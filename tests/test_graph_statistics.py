"""Graph statistics over the sparse adjacency, and the netstat files built on them."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from _oracles import brute_force_lcc

import macnet
from macnet import io as io_mod, network
from macnet.cli import main
from test_network import id_pairs, toy_network


def random_graph(seed, n_nodes, n_pairs):
    rng = np.random.default_rng(seed)
    ids = [f"v{i}" for i in range(n_nodes)]
    pairs = {tuple(sorted(rng.choice(n_nodes, size=2, replace=False))) for _ in range(n_pairs)}
    return toy_network(ids, [(ids[a], ids[b]) for a, b in sorted(pairs)])


def read_distributions(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return {key: [row[key] for row in rows] for key in ("node_id", "degree", "betweenness")}


def test_betweenness_does_not_depend_on_source_chunk(monkeypatch):
    # several components and isolated nodes, more sources than one chunk holds
    net = random_graph(4, 150, 180)
    reference = network.betweenness_values(net)
    assert network.SOURCE_CHUNK < net.n_nodes and np.count_nonzero(reference) > 20
    monkeypatch.setattr(network, "SOURCE_CHUNK", 7)
    np.testing.assert_allclose(network.betweenness_values(net), reference, rtol=1e-12, atol=0)


def test_pair_listed_twice_is_one_edge():
    net = toy_network(["a", "b", "c", "d"], [("a", "b"), ("b", "a"), ("b", "c"), ("c", "a")])
    np.testing.assert_array_equal(network.degree_values(net), [2, 2, 2, 0])
    np.testing.assert_array_equal(network.clustering_values(net), [1, 1, 1, 0])
    assert network.largest_connected_component(net) == 3


def test_largest_component_matches_brute_force():
    rng = np.random.default_rng(8)
    nets = [random_graph(seed, int(rng.integers(2, 40)), int(rng.integers(0, 50)))
            for seed in range(200)]
    path_ids = [f"p{i}" for i in range(1000)]
    nets.append(toy_network(path_ids[::-1], zip(path_ids[:-1], path_ids[1:])))
    nets.append(toy_network(["a", "b", "c"], []))
    for net in nets:
        assert network.largest_connected_component(net) == brute_force_lcc(net.node_ids,
                                                                           id_pairs(net))


def test_netstat_leaves_csgraph_unloaded(tmp_path):
    io_mod.write_edges_csv(random_graph(5, 40, 60), tmp_path / "edges.csv")
    src = str(Path(macnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys; from macnet.cli import main; "
             f"main(['netstat', {str(tmp_path / 'edges.csv')!r}, '--out', {str(tmp_path)!r}]); "
             "print('scipy.sparse.csgraph' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    assert result.stdout.strip().splitlines()[-1] == "False"


def test_import_cli_leaves_scipy_sparse_unloaded():
    src = str(Path(macnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, macnet.cli; print('scipy.sparse' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "False"


def test_netstat_gives_same_stem_inputs_their_own_distribution_files(tmp_path):
    nets = {"a": random_graph(1, 30, 40), "b": random_graph(2, 30, 70)}
    paths = {}
    for name, net in nets.items():
        paths[name] = tmp_path / name / "edges.csv"
        io_mod.write_edges_csv(net, paths[name])
        io_mod.write_meta_json(net, tmp_path / name / "meta.json")
    out = tmp_path / "stats"
    assert main(["netstat", str(paths["a"]), str(paths["b"]), "--out", str(out)]) == 0
    assert len(list(out.glob("*_distributions.csv"))) == 2
    for name, net in nets.items():
        digest = hashlib.sha256(paths[name].as_posix().encode()).hexdigest()[:8]
        written = read_distributions(out / f"edges_{digest}_distributions.csv")
        assert written["node_id"] == list(net.node_ids)
        np.testing.assert_array_equal(np.array(written["degree"], dtype=float),
                                      network.degree_values(net))
        np.testing.assert_allclose(np.array(written["betweenness"], dtype=float),
                                   network.betweenness_values(net), rtol=1e-15)


def test_netstat_on_header_only_edges_file(tmp_path):
    empty = toy_network(["a", "b"], [])
    io_mod.write_edges_csv(empty, tmp_path / "run" / "edges.csv")
    assert io_mod.read_network(tmp_path / "run" / "edges.csv").n_nodes == 0
    out = tmp_path / "stats"
    assert main(["netstat", str(tmp_path / "run" / "edges.csv"), "--out", str(out)]) == 0
    entry = json.loads((out / "summary.json").read_text())[str(tmp_path / "run" / "edges.csv")]
    assert (entry["nodes"], entry["edges"], entry["lcc"]) == (0, 0, 0)
    assert (out / "edges_distributions.csv").read_text() == "node_id,degree,clustering,betweenness\n"
