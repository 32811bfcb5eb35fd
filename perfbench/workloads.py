"""The benchmark's three workloads: seeded input generators and stage lists.

Every input is a function of the workload seed alone, drawn from numpy's
PCG64 stream keyed by (seed, workload).  Stages run in the order listed, each
as ``macnet <argv>`` in its own process, with paths relative to the run
directory so output bytes do not depend on where the benchmark runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import chi2

UNIVERSE = 5017
FDR = 0.05
THRESHOLD = 0.25  # macnet classify's default
EXCLUDE = "CANCER"


@dataclass
class Stage:
    name: str
    argv: list
    out: str
    reads: list
    check: str


@dataclass
class Prepared:
    stages: list
    sizes: dict
    truth: dict


FULL = {
    "infer-pipeline": {"nodes": 120, "samples": 50, "modules": 8, "module_size": 6,
                       "loading": 1.5, "random_sets": 150},
    "graph-characterise": {"nodes": 600, "attach": 5, "group_sets": 100, "random_sets": 900},
    "power-study": {"points": 9, "reps": 1000, "samples": 50},
}

SMOKE = {
    "infer-pipeline": {"nodes": 16, "samples": 20, "modules": 2, "module_size": 4,
                       "loading": 2.0, "random_sets": 12},
    "graph-characterise": {"nodes": 40, "attach": 3, "group_sets": 6, "random_sets": 20},
    "power-study": {"points": 2, "reps": 40, "samples": 30},
}

ATTRIBUTES = ("protein", "gene")


def _rng(seed: int, workload: str) -> np.random.Generator:
    key = list(workload.encode())
    return np.random.default_rng([seed, *key])


def _node_ids(rng, count):
    picks = np.sort(rng.choice(UNIVERSE, size=count, replace=False)) + 1
    return [f"G{int(v):05d}" for v in picks]


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _gmt(rng, groups, group_sets, random_sets):
    """GMT text whose first sets are enriched for the given node groups."""
    universe = [f"G{v:05d}" for v in range(1, UNIVERSE + 1)]
    lines = []
    sets = {}
    for s in range(group_sets):
        members = groups[s % len(groups)]
        keep = rng.choice(members, size=min(len(members), int(rng.integers(4, 60))), replace=False)
        extra = rng.choice(UNIVERSE, size=int(rng.integers(10, 60)), replace=False)
        sets[f"MODULE_{s:04d}"] = sorted({str(m) for m in keep} | {universe[i] for i in extra})
    for s in range(random_sets):
        size = int(rng.integers(10, 300))
        picks = rng.choice(UNIVERSE, size=size, replace=False)
        tag = "CANCER_" if rng.random() < 0.05 else ""
        sets[f"{tag}SET_{s:04d}"] = sorted(universe[i] for i in picks)
    for name, members in sets.items():
        lines.append("\t".join([name, f"generated set {name}"] + members))
    return "\n".join(lines) + "\n", sets


ENRICH = Stage("enrich", ["enrich", "out/classify/node_classes.csv", "inputs/sets.gmt",
                          "--universe", str(UNIVERSE), "--fdr", str(FDR), "--exclude", EXCLUDE,
                          "--out", "out/enrich"], "out/enrich",
               ["out/classify/node_classes.csv", "inputs/sets.gmt"], "enrich")


def _attribute_csv(node_ids, block):
    n = block.shape[1]
    rows = ["node_id," + ",".join(f"s{t + 1}" for t in range(n))]
    for v, values in zip(node_ids, block):
        rows.append(v + "," + ",".join(_fmt(x) for x in values))
    return "\n".join(rows) + "\n"


def prepare_infer(run_dir: Path, seed: int, size: dict) -> Prepared:
    """Planted latent-factor modules over N nodes, two attributes, n samples.

    Modules load on protein only, on gene only, or on both, so the cca
    network has protein-, gene- and mixed-dominated edges for classify and
    enrich to find.
    """
    rng = _rng(seed, "infer-pipeline")
    n_nodes, n = size["nodes"], size["samples"]
    node_ids = _node_ids(rng, n_nodes)
    samples = rng.standard_normal((n_nodes, len(ATTRIBUTES), n))
    order = rng.permutation(n_nodes)
    modules = order[: size["modules"] * size["module_size"]].reshape(size["modules"], -1)
    loads = ((0,), (1,), (0, 1))
    for m, members in enumerate(modules):
        for a in loads[m % len(loads)]:
            samples[members, a, :] += size["loading"] * rng.standard_normal(n)
    for a, attribute in enumerate(ATTRIBUTES):
        _write(run_dir / "inputs" / f"{attribute}.csv", _attribute_csv(node_ids, samples[:, a, :]))
    groups = [[node_ids[i] for i in members] for members in modules]
    text, sets = _gmt(rng, groups, len(groups), size["random_sets"])
    _write(run_dir / "inputs" / "sets.gmt", text)

    inputs = [f"inputs/{a}.csv" for a in ATTRIBUTES]
    stages = [
        Stage("infer_cca", ["infer", *inputs, "--method", "cca", "--fdr", str(FDR),
                            "--out", "out/infer_cca"], "out/infer_cca", inputs, "cca"),
        Stage("infer_max", ["infer", *inputs, "--method", "max", "--fdr", str(FDR),
                            "--out", "out/infer_max"], "out/infer_max", inputs, "max"),
        Stage("netstat", ["netstat", "out/infer_cca/edges.csv", "out/infer_max/edges.csv",
                          "--out", "out/netstat"], "out/netstat",
              ["out/infer_cca/edges.csv", "out/infer_cca/meta.json",
               "out/infer_max/edges.csv", "out/infer_max/meta.json"], "netstat"),
        Stage("classify", ["classify", "out/infer_cca/edges.csv", "--out", "out/classify"],
              "out/classify", ["out/infer_cca/edges.csv", "out/infer_cca/meta.json"], "classify"),
        ENRICH,
    ]
    pairs = n_nodes * (n_nodes - 1) // 2
    sizes = {"N": n_nodes, "k": len(ATTRIBUTES), "n": n, "pairs": pairs,
             "planted_edges": int(size["modules"] * size["module_size"] * (size["module_size"] - 1) // 2),
             "sets": len(sets)}
    truth = {"node_ids": node_ids, "samples": samples, "sets": sets,
             "pairs": 2 * pairs, "pair_stages": ("infer_cca", "infer_max")}
    return Prepared(stages, sizes, truth)


def _preferential_attachment(rng, count, attach):
    """Edges (i < j) of a Barabasi-Albert graph grown from a clique of attach+1 nodes."""
    edges = [(i, j) for i in range(attach + 1) for j in range(i + 1, attach + 1)]
    ends = [v for e in edges for v in e]
    for new in range(attach + 1, count):
        chosen = set()
        while len(chosen) < attach:
            chosen.add(ends[int(rng.integers(len(ends)))])
        for old in sorted(chosen):
            edges.append((old, new))
            ends.extend((old, new))
    return edges


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _edge_csv(rng, node_ids, group, edges, relabel):
    """Edge file in infer's format, contributions following the endpoints' groups."""
    rows = ["node_i,node_j,method,similarity,statistic,df,p,q,contrib_1,contrib_2"]
    mapped = sorted(tuple(sorted((int(relabel[a]), int(relabel[b])))) for a, b in edges)
    total_pairs = len(node_ids) * (len(node_ids) - 1) / 2
    for i, j in mapped:
        # an edge is dominated by its endpoints' attribute unless they disagree
        dominant = {int(group[i]), int(group[j])} - {2}
        if len(dominant) == 1:
            c = rng.beta(8.0, 1.2)
            c = c if dominant == {0} else 1.0 - c
        else:
            c = rng.beta(3.0, 3.0)
        similarity = rng.uniform(0.35, 0.95)
        statistic = -(50 - 1 - 2.5) * np.log1p(-similarity * similarity)
        p = float(chi2.sf(statistic, 4))
        q = min(1.0, p * total_pairs / len(mapped))
        rows.append(",".join([node_ids[i], node_ids[j], "cca", _fmt(similarity), _fmt(statistic),
                              "4", _fmt(p), _fmt(q), _fmt(c), _fmt(1.0 - c)]))
    return "\n".join(rows) + "\n", mapped


def prepare_graph(run_dir: Path, seed: int, size: dict) -> Prepared:
    """Two preferential-attachment graphs over one node set, in infer's edge format.

    ``net_a`` has a sibling meta.json as infer writes it; ``net_b`` is bare,
    which sends it through read_network's no-metadata path.
    """
    rng = _rng(seed, "graph-characterise")
    count, attach = size["nodes"], size["attach"]
    node_ids = _node_ids(rng, count)
    group = rng.choice(3, size=count, p=(0.35, 0.35, 0.30))
    networks = {}
    for name in ("net_a", "net_b"):
        edges = _preferential_attachment(rng, count, attach)
        relabel = rng.permutation(count)
        text, mapped = _edge_csv(rng, node_ids, group, edges, relabel)
        _write(run_dir / "inputs" / name / f"{name}.csv", text)
        networks[name] = mapped
    meta = {
        "method": "cca", "gamma": FDR, "pvalue_mode": "formula", "n_samples": 50,
        "node_ids": node_ids, "attribute_names": list(ATTRIBUTES),
        "tested_pairs": count * (count - 1) // 2, "n_edges": len(networks["net_a"]),
        "skipped_pairs": [], "floored_pairs": [],
        "homogeneity": {"reject_fraction": 0.05, "alpha": 0.05, "df_formula": "k(k+1)/2 + k(k-1)/2"},
    }
    _write(run_dir / "inputs" / "net_a" / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    groups = [[node_ids[i] for i in np.flatnonzero(group == g)] for g in range(3)]
    text, sets = _gmt(rng, groups, size["group_sets"], size["random_sets"])
    _write(run_dir / "inputs" / "sets.gmt", text)

    a, b = "inputs/net_a/net_a.csv", "inputs/net_b/net_b.csv"
    stages = [
        Stage("netstat", ["netstat", a, b, "--out", "out/netstat"], "out/netstat",
              [a, "inputs/net_a/meta.json", b], "netstat"),
        Stage("classify", ["classify", a, "--out", "out/classify"], "out/classify",
              [a, "inputs/net_a/meta.json"], "classify"),
        ENRICH,
    ]
    sizes = {"N": count, "edges": {k: len(v) for k, v in networks.items()}, "sets": len(sets)}
    # netstat's statistics range over every node pair of both networks
    truth = {"node_ids": node_ids, "sets": sets,
             "pairs": count * (count - 1), "pair_stages": ("netstat",)}
    return Prepared(stages, sizes, truth)


def prepare_power(run_dir: Path, seed: int, size: dict) -> Prepared:
    """The README's power study; only the seed comes from the workload seed."""
    argv = ["simulate", "--slice", "b=0.2r", "--points", str(size["points"]),
            "--reps", str(size["reps"]), "--n", str(size["samples"]), "--seed", str(seed),
            "--out", "out/simulate"]
    stages = [Stage("simulate", argv, "out/simulate", [], "power")]
    replicates = size["points"] * size["reps"]
    sizes = {"points": size["points"], "reps": size["reps"], "n": size["samples"],
             "replicates": replicates, "scenarios": 5}
    # each replicate tests one simulated node pair
    truth = {"points": size["points"], "reps": size["reps"], "n": size["samples"],
             "pairs": replicates, "pair_stages": ("simulate",)}
    return Prepared(stages, sizes, truth)


PREPARE = {
    "infer-pipeline": prepare_infer,
    "graph-characterise": prepare_graph,
    "power-study": prepare_power,
}
