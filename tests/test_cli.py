import csv
import dataclasses
import json

import numpy as np
import pytest

from _oracles import csv_cell, edge_pairs, sample_mvn
from macnet import io as io_mod
from macnet import simulation
from macnet.cli import _slice_sweep, main
from macnet.errors import NonNumericCell, SchemaMismatch
from macnet.network import infer_network
from test_network import toy_network


def write_attribute_csv(path, node_ids, block):
    n = block.shape[1]
    rows = [["node_id"] + [f"s{i + 1}" for i in range(n)]]
    for node_id, values in zip(node_ids, block):
        rows.append([node_id] + [csv_cell(v) for v in values])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


def make_dataset_files(tmp_path, seed=0, n_nodes=8, n=60, planted=((0, 1), (2, 3))):
    """Two attribute CSVs with a few strongly correlated node pairs."""
    params = simulation.K2Params(r=0.0, b=0.0, rho1=0.9, rho2=0.9)
    sigma = simulation.build_sigma(params)
    rng = simulation.substream(seed, 999)
    samples = rng.standard_normal((n_nodes, 2, n))
    for a, b in planted:
        draws = sample_mvn(sigma, n, rng)
        samples[a, 0], samples[a, 1] = draws[:, 0], draws[:, 1]
        samples[b, 0], samples[b, 1] = draws[:, 2], draws[:, 3]
    ids = [f"v{i}" for i in range(n_nodes)]
    protein = tmp_path / "protein.csv"
    gene = tmp_path / "gene.csv"
    write_attribute_csv(protein, ids, samples[:, 0, :])
    write_attribute_csv(gene, ids, samples[:, 1, :])
    return protein, gene, ids, samples


def make_collinear_files(tmp_path):
    """Attribute CSVs a and b of eight nodes at 30 samples, where node v1's attributes
    are a linear copy of v0's, 2 v0 + 1 (the fixture of the CI collinear check)."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 8, 30))
    x[:, 1] = 2.0 * x[:, 0] + 1.0
    ids = [f"v{v}" for v in range(8)]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, block in zip(paths, x):
        write_attribute_csv(path, ids, block)
    return paths


class TestIngest:
    def test_two_files(self, tmp_path):
        protein, gene, ids, samples = make_dataset_files(tmp_path)
        data = io_mod.ingest([protein, gene])
        assert data.node_ids == tuple(ids)
        assert data.attribute_names == ("protein", "gene")
        assert data.n_samples == 60
        np.testing.assert_allclose(data.samples[:, 0, :], samples[:, 0, :], atol=1e-15)

    def test_single_file_gives_k1(self, tmp_path):
        protein, _, ids, _ = make_dataset_files(tmp_path)
        data = io_mod.ingest([protein])
        assert data.k == 1

    def test_row_alignment_by_node_id(self, tmp_path):
        protein, gene, ids, samples = make_dataset_files(tmp_path)
        rows = (tmp_path / "gene.csv").read_text().splitlines()
        shuffled = [rows[0]] + rows[1:][::-1]
        (tmp_path / "gene_shuffled.csv").write_text("\n".join(shuffled) + "\n")
        data = io_mod.ingest([protein, tmp_path / "gene_shuffled.csv"])
        np.testing.assert_allclose(data.samples[:, 1, :], samples[:, 1, :], atol=1e-15)

    def test_mismatched_ids(self, tmp_path):
        protein, gene, *_ = make_dataset_files(tmp_path)
        text = gene.read_text().replace("v3", "other")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(SchemaMismatch) as err:
            io_mod.ingest([protein, bad])
        assert "other" in str(err.value) or "v3" in str(err.value)

    def test_non_numeric_cell_reported(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("node_id,s1,s2,s3\na,1.0,oops,2.0\nb,1,2,3\n")
        with pytest.raises(SchemaMismatch) as err:
            io_mod.ingest([path])
        assert err.value.line == 2
        assert err.value.column == 3

    @pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity"])
    def test_non_finite_cell_reported(self, tmp_path, cell):
        path = tmp_path / "broken.csv"
        path.write_text(f"node_id,s1,s2,s3\na,1,2,3\nb,4,{cell},6\n")
        with pytest.raises(NonNumericCell) as err:
            io_mod.ingest([path])
        assert (err.value.line, err.value.column) == (3, 3)
        assert "not finite" in str(err.value)

    def test_duplicate_node_id(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("node_id,s1,s2,s3\na,1,2,3\na,4,5,6\n")
        with pytest.raises(Exception) as err:
            io_mod.ingest([path])
        assert "duplicate" in str(err.value).lower()
        assert (err.value.path, err.value.line) == (str(path), 3)


class TestIngestPublishedShape:
    def test_91_nodes_60_samples(self, tmp_path):
        rng = simulation.substream(1, 2, 3)
        ids = [f"e{i}" for i in range(91)]
        for name in ("protein", "gene"):
            write_attribute_csv(tmp_path / f"{name}.csv", ids, rng.standard_normal((91, 60)))
        data = io_mod.ingest([tmp_path / "protein.csv", tmp_path / "gene.csv"])
        assert data.n_nodes == 91
        assert data.k == 2
        assert data.n_samples == 60


class TestRoundTrip:
    def test_edges_round_trip_exactly(self, tmp_path):
        protein, gene, *_ = make_dataset_files(tmp_path)
        data = io_mod.ingest([protein, gene])
        net = infer_network(data, "cca", 0.05)
        assert net.n_edges >= 2
        io_mod.write_edges_csv(net, tmp_path / "edges.csv")
        io_mod.write_meta_json(net, tmp_path / "meta.json")
        back = io_mod.read_network(tmp_path / "edges.csv")
        assert back.node_ids == net.node_ids
        assert back.attribute_names == net.attribute_names
        assert back.gamma == net.gamma
        assert back.method == net.method
        assert back.n_samples == net.n_samples
        assert back.tested_pairs == net.tested_pairs
        self.assert_tables_equal(back.table, net.table)
        assert back.singular_pairs == net.singular_pairs
        assert back.pvalue_mode == net.pvalue_mode
        assert back.homogeneity_reject_fraction == net.homogeneity_reject_fraction

    @staticmethod
    def assert_tables_equal(a, b):
        for field in ("ends", "similarity", "statistic", "p", "q"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert (a.contrib is None) == (b.contrib is None)
        assert b.contrib is None or np.array_equal(a.contrib, b.contrib)

    @pytest.mark.parametrize("method", ["pearson", "max"])
    def test_quoted_ids_and_empty_cells_round_trip(self, tmp_path, method):
        ids = ("plain", "has,comma", 'has"quote', '"both", here')
        k = 1 if method == "pearson" else 2
        net = toy_network(ids, [(ids[0], ids[1]), (ids[1], ids[3]), (ids[2], ids[0])],
                          [0.5, -0.0, -0.75], method=method,
                          attribute_names=tuple(f"a{i}" for i in range(k)))
        net = dataclasses.replace(net, table=dataclasses.replace(
            net.table, statistic=np.array([1.25, float("inf"), -2.5]),
            p=np.array([1e-3, 0.0, 1.0]), q=np.array([2e-3, 1 / 3, 1.0])))
        io_mod.write_edges_csv(net, tmp_path / "one" / "edges.csv")
        io_mod.write_meta_json(net, tmp_path / "one" / "meta.json")
        back = io_mod.read_network(tmp_path / "one" / "edges.csv")
        io_mod.write_edges_csv(back, tmp_path / "two" / "edges.csv")
        text = (tmp_path / "one" / "edges.csv").read_bytes()
        assert text == (tmp_path / "two" / "edges.csv").read_bytes()
        assert f",{method},-0,inf,,0,".encode() in text and b'"has,comma"' in text
        self.assert_tables_equal(back.table, net.table)
        assert back.node_ids == ids and back.method == method

    def test_column_cells_match_the_cell_oracle(self):
        floats = [0.0, -0.0, 1 / 3, -1e-310, 5e-324, 1e17, 123456789.0, float("inf"),
                  float("-inf"), float("nan"), np.pi]
        ints = [0, -7, 2**40]
        assert io_mod._cells(np.array(floats)) == [csv_cell(v) for v in floats]
        assert io_mod._cells(np.array(floats[:9])) == [csv_cell(v) for v in floats[:9]]
        assert io_mod._cells(np.array(ints)) == [csv_cell(v) for v in ints]

    def test_infinite_statistic_is_read_back_by_netstat_and_classify(self, tmp_path):
        # a singular cca pair whose leading root reaches 1 has statistic inf and p 0
        net = toy_network(["a", "b", "c"], [("a", "b"), ("b", "c")], method="cca",
                          attribute_names=("x", "y"), contrib=[[0.5, 0.5], [0.9, 0.1]])
        table = dataclasses.replace(net.table, statistic=np.array([np.inf, 3.0]),
                                    p=np.array([0.0, 0.01]))
        net = dataclasses.replace(net, table=table, singular_pairs=(("a", "b"),))
        edges = tmp_path / "run" / "edges.csv"
        io_mod.write_edges_csv(net, edges)
        io_mod.write_meta_json(net, tmp_path / "run" / "meta.json")
        assert edges.read_text().splitlines()[1].split(",")[4] == "inf"
        back = io_mod.read_network(edges)
        self.assert_tables_equal(back.table, table)
        assert back.singular_pairs == (("a", "b"),)
        assert main(["netstat", str(edges), "--out", str(tmp_path / "netstat")]) == 0
        assert main(["classify", str(edges), "--out", str(tmp_path / "classify")]) == 0

    def test_seventeen_digit_serialization(self):
        values = [1 / 3, np.pi, 1e-17, 0.1 + 0.2]
        assert [float(cell) for cell in io_mod._cells(np.array(values))] == values
        assert [csv_cell(v) for v in values] == io_mod._cells(np.array(values))


class TestCliInfer:
    def test_end_to_end(self, tmp_path, capsys):
        protein, gene, ids, _ = make_dataset_files(tmp_path)
        out = tmp_path / "run"
        code = main(["infer", str(protein), str(gene), "--method", "cca",
                     "--fdr", "0.05", "--out", str(out)])
        assert code == 0
        assert (out / "edges.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["method"] == "cca"
        assert meta["gamma"] == 0.05
        assert meta["node_ids"] == ids
        assert meta["tested_pairs"] == 28
        assert "reject_fraction" in meta["homogeneity"]
        net = io_mod.read_network(out / "edges.csv")
        assert frozenset(("v0", "v1")) in edge_pairs(net)
        assert frozenset(("v2", "v3")) in edge_pairs(net)

    def test_attribute_subset(self, tmp_path):
        protein, gene, *_ = make_dataset_files(tmp_path)
        out = tmp_path / "run"
        code = main(["infer", str(protein), str(gene), "--method", "pearson",
                     "--attributes", "protein", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["attribute_names"] == ["protein"]

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["infer", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "SchemaMismatch"

    def test_node_id_holding_a_carriage_return_is_data_error(self, tmp_path, capsys):
        # csv.writer does not quote a bare carriage return, so edges.csv could not be read
        path = tmp_path / "protein.csv"
        path.write_text('node_id,s1,s2,s3\nv0,1,2,3\n"a\rb",4,5,7\nv2,1,0,2\n', newline="")
        assert main(["infer", str(path), "--out", str(tmp_path / "run")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert (err["error"], err["path"], err["line"], err["column"]) == (
            "SchemaMismatch", str(path), 3, 1)
        assert not (tmp_path / "run").exists()

    def test_usage_error(self, capsys):
        code = main(["infer"])
        assert code == 1

    def test_same_file_twice_is_data_error(self, tmp_path, capsys):
        protein, *_ = make_dataset_files(tmp_path)
        code = main(["infer", str(protein), str(protein), "--out", str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "SchemaMismatch" and "'protein'" in err["message"]
        assert not (tmp_path / "run").exists()

    def test_files_sharing_a_stem_are_data_error(self, tmp_path, capsys):
        protein, gene, ids, samples = make_dataset_files(tmp_path)
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        write_attribute_csv(tmp_path / "x" / "gene.csv", ids, samples[:, 0, :])
        write_attribute_csv(tmp_path / "y" / "gene.csv", ids, samples[:, 1, :])
        code = main(["infer", str(tmp_path / "x" / "gene.csv"), str(tmp_path / "y" / "gene.csv"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "SchemaMismatch"
        assert str(tmp_path / "x" / "gene.csv") in err["message"]
        assert str(tmp_path / "y" / "gene.csv") in err["message"]

    def test_attribute_selected_twice_is_usage_error(self, tmp_path, capsys):
        protein, gene, *_ = make_dataset_files(tmp_path)
        code = main(["infer", str(protein), str(gene), "--attributes", "protein,protein",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UsageError" and "'protein'" in err["message"]

    def test_empty_attribute_selection_is_data_error(self, tmp_path, capsys):
        protein, gene, *_ = make_dataset_files(tmp_path)
        code = main(["infer", str(protein), str(gene), "--attributes", " , ",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "LengthMismatch" and "empty" in err["message"]
        assert not (tmp_path / "run" / "edges.csv").exists()

    @pytest.mark.parametrize("method", ["cca", "max", "pearson"])
    def test_attribute_whose_squares_overflow_is_data_error(self, tmp_path, capsys, method):
        rng = np.random.default_rng(4)
        ids = [f"v{i}" for i in range(6)]
        for name in ("a", "b"):
            write_attribute_csv(tmp_path / f"{name}.csv", ids, 1e200 * rng.standard_normal((6, 20)))
        code = main(["infer", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--method", method,
                     *(["--attributes", "b"] if method == "pearson" else []),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "NonFiniteInput"
        assert f"node 'v0' attribute '{'b' if method == 'pearson' else 'a'}'" in err["message"]
        assert not (tmp_path / "run" / "edges.csv").exists()

    def test_bad_fdr_is_usage_error(self, tmp_path):
        protein, gene, *_ = make_dataset_files(tmp_path)
        code = main(["infer", str(protein), str(gene), "--fdr", "1.5"])
        assert code == 1

    @pytest.mark.parametrize("method", ["pearson", "max", "min"])
    def test_unit_correlation_names_the_pair(self, tmp_path, capsys, method):
        a, b = make_collinear_files(tmp_path)
        inputs = [a] if method == "pearson" else [a, b]
        code = main(["infer", *map(str, inputs), "--method", method,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DegenerateCorrelation"
        assert "nodes 'v0' and 'v1': attribute 'a' has |r| = 1" in err["message"]
        assert not (tmp_path / "run" / "edges.csv").exists()

    @pytest.mark.parametrize("method", ["pearson", "cca"])
    def test_exact_mode_is_usage_error_without_max_or_min(self, tmp_path, capsys, method):
        protein, gene, *_ = make_dataset_files(tmp_path)
        code = main(["infer", str(protein), str(gene), "--method", method,
                     *(["--attributes", "protein"] if method == "pearson" else []),
                     "--pvalue-mode", "exact", "--out", str(tmp_path / "run")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UsageError"
        assert "'exact'" in err["message"] and repr(method) in err["message"]
        assert not (tmp_path / "run" / "meta.json").exists()

    @pytest.mark.parametrize("method", ["max", "min"])
    def test_exact_mode_is_recorded(self, tmp_path, method):
        protein, gene, *_ = make_dataset_files(tmp_path)
        assert main(["infer", str(protein), str(gene), "--method", method,
                     "--pvalue-mode", "exact", "--out", str(tmp_path / "run")]) == 0
        meta = json.loads((tmp_path / "run" / io_mod.META_FILENAME).read_text())
        assert meta["pvalue_mode"] == "exact"

    def test_montecarlo_mode_is_gone(self, tmp_path, capsys):
        protein, gene, *_ = make_dataset_files(tmp_path)
        code = main(["infer", str(protein), str(gene), "--method", "max",
                     "--pvalue-mode", "montecarlo", "--out", str(tmp_path / "run")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UsageError" and "'montecarlo'" in err["message"]
        assert not (tmp_path / "run").exists()


class TestCliNetstatClassifyEnrich:
    @pytest.fixture()
    def inferred(self, tmp_path):
        protein, gene, ids, _ = make_dataset_files(tmp_path, n_nodes=10,
                                                   planted=((0, 1), (2, 3), (4, 5)))
        out = tmp_path / "run"
        assert main(["infer", str(protein), str(gene), "--method", "cca",
                     "--out", str(out)]) == 0
        return tmp_path, out, ids

    def test_netstat_summary_and_jaccard(self, inferred, tmp_path):
        base, out, ids = inferred
        stats_dir = base / "stats"
        code = main(["netstat", str(out / "edges.csv"), str(out / "edges.csv"),
                     "--out", str(stats_dir)])
        assert code == 0
        summaries = json.loads((stats_dir / "summary.json").read_text())
        entry = summaries[str(out / "edges.csv")]
        assert entry["nodes"] == 10
        assert entry["density"] == pytest.approx(2 * entry["edges"] / (10 * 9))
        with open(stats_dir / "jaccard.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[0]["jaccard"]) == 1.0

    def test_classify_and_enrich(self, inferred, tmp_path):
        base, out, ids = inferred
        cls_dir = base / "cls"
        assert main(["classify", str(out / "edges.csv"), "--threshold", "0.25",
                     "--out", str(cls_dir)]) == 0
        for name in ("edge_classes.csv", "node_classes.csv", "simplex.csv",
                     "contrib_histogram.csv"):
            assert (cls_dir / name).exists()
        with open(cls_dir / "node_classes.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {r["node_id"] for r in rows} == set(ids)

        gmt = base / "sets.gmt"
        gmt.write_text(
            "set_one\tdesc\tv0\tv1\tv2\tv3\nset_two\tdesc\tv4\tv5\tv6\tv7\tv8\tv9\n"
        )
        enr_dir = base / "enr"
        assert main(["enrich", str(cls_dir / "node_classes.csv"), str(gmt),
                     "--universe", "50", "--out", str(enr_dir)]) == 0
        with open(enr_dir / "enrichment.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert {"class", "set", "overlap", "p", "q", "enriched"} <= set(rows[0])

    def test_enrich_strips_node_ids_as_gmt_members_are(self, tmp_path, capsys):
        # ' v1 ' used to miss the GMT member 'v1', so the gene class was skipped with a warning
        (tmp_path / "node_classes.csv").write_text("node_id,label\nv0,protein\n v1 ,gene\n")
        (tmp_path / "sets.gmt").write_text("set_one\tdesc\tv0\tv1\n")
        assert main(["enrich", str(tmp_path / "node_classes.csv"), str(tmp_path / "sets.gmt"),
                     "--universe", "50", "--out", str(tmp_path / "out")]) == 0
        assert "warning" not in capsys.readouterr().err
        with open(tmp_path / "out" / "enrichment.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {(row["class"], row["overlap"]) for row in rows} == {("protein", "1"), ("gene", "1")}

    def test_enrich_warns_of_a_class_without_annotated_members(self, tmp_path, capsys):
        (tmp_path / "node_classes.csv").write_text("node_id,label\nv0,protein\nzz,ghost\n")
        (tmp_path / "sets.gmt").write_text("set_one\tdesc\tv0\tv1\n")
        assert main(["enrich", str(tmp_path / "node_classes.csv"), str(tmp_path / "sets.gmt"),
                     "--universe", "50", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: class 'ghost' has no annotated members; skipped"]
        with open(tmp_path / "out" / "enrichment.csv", newline="") as handle:
            assert {row["class"] for row in csv.DictReader(handle)} == {"protein"}

    def test_pipeline_runs_on_cca_and_max_networks(self, tmp_path):
        protein, gene, *_ = make_dataset_files(tmp_path)
        for method in ("cca", "max"):
            assert main(["infer", str(protein), str(gene), "--method", method,
                         "--out", str(tmp_path / method)]) == 0
        assert main(["netstat", str(tmp_path / "cca" / "edges.csv"),
                     str(tmp_path / "max" / "edges.csv"), "--out", str(tmp_path / "stats")]) == 0
        assert main(["classify", str(tmp_path / "cca" / "edges.csv"),
                     "--out", str(tmp_path / "cls")]) == 0

    def test_netstat_reads_a_montecarlo_run(self, tmp_path):
        # infer wrote pvalue_mode "montecarlo" before the exact tail replaced that mode
        protein, gene, *_ = make_dataset_files(tmp_path)
        out = tmp_path / "run"
        assert main(["infer", str(protein), str(gene), "--method", "max",
                     "--out", str(out)]) == 0
        meta_path = out / io_mod.META_FILENAME
        meta = json.loads(meta_path.read_text())
        meta["pvalue_mode"] = "montecarlo"
        meta_path.write_text(json.dumps(meta))
        assert io_mod.read_network(out / "edges.csv").pvalue_mode == "montecarlo"
        assert main(["netstat", str(out / "edges.csv"), "--out", str(tmp_path / "stats")]) == 0

    @pytest.mark.parametrize("method", ["pearson", "max"])
    def test_classify_rejects_network_without_contributions(self, tmp_path, capsys, method):
        protein, gene, *_ = make_dataset_files(tmp_path)
        out = tmp_path / f"run_{method}"
        inputs = [str(protein)] if method == "pearson" else [str(protein), str(gene)]
        assert main(["infer", *inputs, "--method", method, "--out", str(out)]) == 0
        with open(out / "edges.csv", newline="") as handle:
            first = next(csv.DictReader(handle))
        capsys.readouterr()
        code = main(["classify", str(out / "edges.csv"), "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingContribution"
        assert f"edge ({first['node_i']}, {first['node_j']})" in err["message"]

    def test_classify_leaves_every_node_of_an_edgeless_pearson_network_unclassified(
            self, tmp_path):
        protein, *_ = make_dataset_files(tmp_path, planted=())
        out = tmp_path / "run"
        assert main(["infer", str(protein), "--method", "pearson", "--fdr", "0.001",
                     "--out", str(out)]) == 0
        assert len((out / "edges.csv").read_text().splitlines()) == 1
        assert main(["classify", str(out / "edges.csv"), "--out", str(tmp_path / "cls")]) == 0
        with open(tmp_path / "cls" / "node_classes.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(io_mod.read_network(out / "edges.csv").node_ids)
        assert {row["label"] for row in rows} == {"unclassified"}


class TestMalformedEdgeAndClassFiles:
    """Each case exits 2 with a JSON error naming the file and line."""

    EDGE_HEADER = "node_i,node_j,method,similarity,statistic,df,p,q,contrib_1,contrib_2\n"

    def run(self, capsys, argv):
        assert main(argv) == 2
        return json.loads(capsys.readouterr().err.strip().splitlines()[-1])

    def netstat(self, tmp_path, capsys, text):
        (tmp_path / "edges.csv").write_text(text)
        return self.run(capsys, ["netstat", str(tmp_path / "edges.csv"),
                                 "--out", str(tmp_path / "out")])

    def enrich(self, tmp_path, capsys, text):
        (tmp_path / "node_classes.csv").write_text(text)
        (tmp_path / "sets.gmt").write_text("set_one\tdesc\tv0\tv1\n")
        return self.run(capsys, ["enrich", str(tmp_path / "node_classes.csv"),
                                 str(tmp_path / "sets.gmt"), "--universe", "50",
                                 "--out", str(tmp_path / "out")])

    def test_empty_edge_file(self, tmp_path, capsys):
        err = self.netstat(tmp_path, capsys, "")
        assert (err["error"], err["path"], err["line"]) == (
            "SchemaMismatch", str(tmp_path / "edges.csv"), 1)

    def test_non_numeric_edge_cell(self, tmp_path, capsys):
        err = self.netstat(tmp_path, capsys, self.EDGE_HEADER
                           + "a,b,cca,0.9,30.1,4,0.001,0.002,0.5,0.5\n"
                           + "a,c,cca,0.8,25.3,4,small,0.003,0.4,0.6\n")
        assert (err["error"], err["line"], err["column"]) == ("NonNumericCell", 3, 7)

    @pytest.mark.parametrize("command,row,column", [
        ("netstat", "a,b,cca,nan,30.1,4,0.001,0.002,0.5,0.5", 4),
        ("netstat", "a,b,cca,1.7,30.1,4,0.001,0.002,0.5,0.5", 4),
        ("netstat", "a,b,cca,0.9,30.1,4,1.5,0.002,0.5,0.5", 7),
        ("classify", "a,b,cca,0.9,30.1,4,0.001,-5,0.5,0.5", 8),
        ("classify", "a,b,cca,0.9,30.1,4,0.001,7,0.5,0.5", 8),
        ("classify", "a,b,cca,0.9,30.1,4,0.001,0.002,nan,0.5", 9),
        ("netstat", "a,b,max,0.9,30.1,,0.001,0.002,0.5,0.5", 9),
        ("classify", "a,b,max,0.9,30.1,,0.001,0.002,0.5,0.5", 9)],
        ids=["similarity_nan", "similarity_1.7", "p_1.5", "q_-5", "q_7", "contrib_nan",
             "netstat_max_contrib", "classify_max_contrib"])
    def test_edge_cell_infer_never_writes(self, tmp_path, capsys, command, row, column):
        # netstat wrote a NaN avg_correlation (not JSON), and classify labelled the NaN
        # contribution's edge mixed
        edges = tmp_path / "edges.csv"
        edges.write_text(self.EDGE_HEADER + row + "\n")
        assert main([command, str(edges), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert (err["error"], err["path"], err["line"], err["column"]) == (
            "NonNumericCell", str(edges), 2, column)

    def test_edge_endpoint_missing_from_meta(self, tmp_path, capsys):
        (tmp_path / "meta.json").write_text(json.dumps({
            "method": "cca", "gamma": 0.05, "n_samples": 60, "node_ids": ["a", "b", "c"],
            "attribute_names": ["protein", "gene"]}))
        err = self.netstat(tmp_path, capsys, self.EDGE_HEADER
                           + "a,b,cca,0.9,30.1,4,0.001,0.002,0.5,0.5\n"
                           + "a,x,cca,0.8,25.3,4,0.002,0.003,0.4,0.6\n")
        assert (err["error"], err["path"], err["line"], err["column"]) == (
            "SchemaMismatch", str(tmp_path / "edges.csv"), 3, 2)

    def test_self_loop_edge(self, tmp_path, capsys):
        err = self.netstat(tmp_path, capsys, self.EDGE_HEADER
                           + "a,b,cca,0.9,30.1,4,0.001,0.002,0.5,0.5\n"
                           + "c,c,cca,0.8,25.3,4,0.002,0.003,0.4,0.6\n")
        assert (err["error"], err["path"], err["line"]) == (
            "SchemaMismatch", str(tmp_path / "edges.csv"), 3)

    def test_edge_with_another_method(self, tmp_path, capsys):
        err = self.netstat(tmp_path, capsys, self.EDGE_HEADER
                           + "a,b,cca,0.9,30.1,4,0.001,0.002,0.5,0.5\n"
                           + "a,c,max,0.8,25.3,,0.002,0.003,,\n")
        assert (err["error"], err["line"], err["column"]) == ("SchemaMismatch", 3, 3)

    @pytest.mark.parametrize("command", ["netstat", "classify"])
    @pytest.mark.parametrize("meta", ["{}", '{"method": "cca", "node_ids": ["a", "b"',
                                      '{"method": "cca", "gamma": 0.05, "n_samples": 60, '
                                      '"node_ids": ["a", 7], "attribute_names": ["p", "g"]}',
                                      '{"method": "cca", "gamma": 0.05, "n_samples": 60, '
                                      '"node_ids": ["a", "b", "a"], "attribute_names": ["p", "g"]}',
                                      '{"method": "cca", "gamma": 0.05, "n_samples": 60, '
                                      '"node_ids": "abc", "attribute_names": ["p", "g"]}',
                                      '{"method": "cca", "gamma": 0.05, "n_samples": 60, '
                                      '"node_ids": ["a", "b"], "attribute_names": "xy"}',
                                      '{"method": "cca", "gamma": 0.05, "n_samples": 60, '
                                      '"node_ids": ["a", "b"], "attribute_names": [1, 2]}'],
                             ids=["empty", "truncated", "numeric_id", "repeated_id",
                                  "string_ids", "string_attributes", "numeric_attributes"])
    def test_unreadable_meta(self, tmp_path, capsys, command, meta):
        # an empty object used to end in a KeyError, a truncated file in a JSONDecodeError
        (tmp_path / "meta.json").write_text(meta)
        (tmp_path / "edges.csv").write_text(self.EDGE_HEADER
                                            + "a,b,cca,0.9,30.1,4,0.001,0.002,0.5,0.5\n")
        err = self.run(capsys, [command, str(tmp_path / "edges.csv"),
                                "--out", str(tmp_path / "out")])
        assert (err["error"], err["path"]) == ("SchemaMismatch", str(tmp_path / "meta.json"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["netstat", "classify"])
    def test_attribute_count_differs_from_contribution_columns(self, tmp_path, capsys,
                                                               command):
        # used to end in an UnnormalizedContrib that named no file
        (tmp_path / "meta.json").write_text(json.dumps({
            "method": "cca", "gamma": 0.05, "n_samples": 60, "node_ids": ["a", "b"],
            "attribute_names": ["p"]}))
        (tmp_path / "edges.csv").write_text(self.EDGE_HEADER
                                            + "a,b,cca,0.9,30.1,4,0.001,0.002,0.5,0.5\n")
        err = self.run(capsys, [command, str(tmp_path / "edges.csv"),
                                "--out", str(tmp_path / "out")])
        assert (err["error"], err["path"], err["line"]) == (
            "SchemaMismatch", str(tmp_path / "edges.csv"), 1)
        assert not (tmp_path / "out").exists()

    def test_node_class_row_with_one_cell(self, tmp_path, capsys):
        err = self.enrich(tmp_path, capsys, "node_id,label\nv0,protein\nv1\n")
        assert (err["error"], err["path"], err["line"]) == (
            "SchemaMismatch", str(tmp_path / "node_classes.csv"), 3)

    def test_empty_node_class_file(self, tmp_path, capsys):
        err = self.enrich(tmp_path, capsys, "")
        assert (err["error"], err["line"]) == ("SchemaMismatch", 1)

    def test_node_class_file_repeating_a_node(self, tmp_path, capsys):
        # the later row used to overwrite the earlier, so the gene class vanished
        err = self.enrich(tmp_path, capsys, "node_id,label\nG1,gene\nG2,protein\nG1,protein\n")
        assert (err["error"], err["path"], err["line"], err["column"]) == (
            "DuplicateNodeId", str(tmp_path / "node_classes.csv"), 4, 1)
        assert "'G1'" in err["message"]
        assert not (tmp_path / "out" / "enrichment.csv").exists()

    def test_node_class_file_repeating_a_node_after_stripping(self, tmp_path, capsys):
        err = self.enrich(tmp_path, capsys, "node_id,label\nG1,gene\n G1 ,protein\n")
        assert (err["error"], err["line"], err["column"]) == ("DuplicateNodeId", 3, 1)
        assert "'G1'" in err["message"]

    @pytest.mark.parametrize("blank", ["", "  "], ids=["empty", "spaces"])
    def test_node_class_row_with_a_blank_node_id(self, tmp_path, capsys, blank):
        # a blank id used to be read as a node named '' that no set contains, so it vanished
        err = self.enrich(tmp_path, capsys, f"node_id,label\nv0,protein\n{blank},gene\n")
        assert (err["error"], err["path"], err["line"], err["column"]) == (
            "SchemaMismatch", str(tmp_path / "node_classes.csv"), 3, 1)
        assert not (tmp_path / "out" / "enrichment.csv").exists()


    def test_gmt_set_with_blank_name(self, tmp_path, capsys):
        # a blank first cell used to pass as a set named '', written with an empty set cell
        (tmp_path / "node_classes.csv").write_text("node_id,label\nv0,protein\nv1,gene\n")
        (tmp_path / "sets.gmt").write_text("set_one\tdesc\tv0\tv1\n \tdesc\tv0\tv1\n")
        err = self.run(capsys, ["enrich", str(tmp_path / "node_classes.csv"),
                                str(tmp_path / "sets.gmt"), "--universe", "50",
                                "--out", str(tmp_path / "out")])
        assert (err["error"], err["path"], err["line"]) == (
            "SchemaMismatch", str(tmp_path / "sets.gmt"), 2)
        assert "blank" in err["message"]
        assert not (tmp_path / "out" / "enrichment.csv").exists()

    @pytest.mark.parametrize("command", ["infer", "netstat", "classify", "enrich_classes",
                                         "enrich_sets"])
    def test_input_that_is_a_directory(self, tmp_path, capsys, command):
        # open() raised IsADirectoryError, which left the CLI with a traceback and exit 1
        folder = tmp_path / "folder"
        folder.mkdir()
        (tmp_path / "node_classes.csv").write_text("node_id,label\nv0,protein\n")
        argv = {"infer": ["infer", str(folder)], "netstat": ["netstat", str(folder)],
                "classify": ["classify", str(folder)],
                "enrich_classes": ["enrich", str(folder), str(folder), "--universe", "5"],
                "enrich_sets": ["enrich", str(tmp_path / "node_classes.csv"), str(folder),
                                "--universe", "5"]}[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert (err["error"], err["path"]) == ("SchemaMismatch", str(folder))
        assert not (tmp_path / "out").exists()


class TestExitCodeMapping:
    def test_error_classes_carry_exit_codes(self):
        from macnet import errors

        assert errors.UsageError("x").exit_code == 1
        assert errors.SchemaMismatch("x").exit_code == 2
        assert errors.ZeroVariance("x").exit_code == 2
        assert errors.NotPositiveDefinite("x").exit_code == 3


class TestCliSimulate:
    def test_deterministic_output(self, tmp_path):
        args = ["simulate", "--slice", "b=0.2r", "--points", "3", "--reps", "120",
                "--n", "50", "--seed", "7"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "power.csv").read_bytes() == (out_b / "power.csv").read_bytes()

    def test_explicit_grid(self, tmp_path):
        out = tmp_path / "g"
        assert main(["simulate", "--grid", "0:0,0.1:0.4", "--reps", "80",
                     "--scenarios", "1,5", "--out", str(out)]) == 0
        with open(out / "power.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert {row["scenario"] for row in rows} == {"1", "5"}

    def test_five_samples_suffice_without_scenario_five(self, tmp_path):
        out = tmp_path / "g"
        assert main(["simulate", "--grid", "0:0", "--reps", "5", "--n", "5",
                     "--scenarios", "1,2", "--out", str(out)]) == 0
        with open(out / "power.csv", newline="") as handle:
            assert [row["scenario"] for row in csv.DictReader(handle)] == ["1", "2"]

    def test_two_replicates_suffice_without_max_min_scenarios(self, tmp_path):
        out = tmp_path / "g"
        assert main(["simulate", "--grid", "0:0", "--reps", "2", "--scenarios", "1,5",
                     "--out", str(out)]) == 0
        with open(out / "power.csv", newline="") as handle:
            assert [row["scenario"] for row in csv.DictReader(handle)] == ["1", "5"]

    @pytest.mark.parametrize("name", sorted(simulation.SLICES))
    @pytest.mark.parametrize("rho1,rho2", [(0.3, 0.1), (0.0, 0.0), (0.9, -0.5), (-0.7, 0.95)])
    def test_slice_sweep_matches_the_candidate_loop(self, name, rho1, rho2):
        valid = []
        for t in np.linspace(0.0, 0.99, 500):
            r, b = simulation.SLICES[name](float(t))
            if simulation.K2Params(r=r, b=b, rho1=rho1, rho2=rho2).valid():
                valid.append(float(t))
        expected = simulation.slice_grid(name, np.linspace(0.0, 0.95 * max(valid), 9))
        assert _slice_sweep(name, 9, rho1, rho2) == expected

    def test_sample_size_of_ten_to_the_eighteen_runs(self, tmp_path):
        assert main(["simulate", "--grid", "0:0", "--n", str(10**18), "--reps", "5",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "power.csv").read_text().splitlines()
        assert rows[1:] == [f"0,0,0.29999999999999999,0.10000000000000001,{10**18},5,"
                            f"0.050000000000000003,{s},1,0" for s in range(1, 6)]

    @pytest.mark.parametrize("scenarios", ["1,2", "5"])
    def test_grid_point_a_few_ulps_inside_the_boundary(self, tmp_path, capsys, scenarios):
        """The point passes the domain check, but LAPACK finds no Cholesky factor of its
        joint matrix: exit 3 with one line of JSON on stderr, no uncaught exception."""
        assert main(["simulate", "--grid=-0.5:0.29372539331937714", "--scenarios", scenarios,
                     "--reps", "10", "--out", str(tmp_path)]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "NotPositiveDefinite"
        assert not (tmp_path / "power.csv").exists()

    def test_invalid_grid_point_is_data_error(self, tmp_path, capsys):
        code = main(["simulate", "--grid", "0.9:0", "--reps", "10",
                     "--out", str(tmp_path)])
        assert code == 2


class TestCliSimulateRejectsBadArguments:
    """Bad simulate arguments exit with a JSON error and write no power.csv."""

    def run(self, tmp_path, capsys, extra, code):
        out = tmp_path / "sim"
        assert main(["simulate", "--reps", "10", "--out", str(out), *extra]) == code
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert not (out / "power.csv").exists()
        return err

    def test_grid_value_not_a_number(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["--grid", "x:1"], 1)
        assert err["error"] == "UsageError" and "'x:1'" in err["message"]

    @pytest.mark.parametrize("grid", [",", " , ,"])
    def test_empty_grid(self, tmp_path, capsys, grid):
        err = self.run(tmp_path, capsys, ["--grid", grid], 1)
        assert err == {"error": "UsageError", "message": "empty --grid"}

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_slice_with_no_points(self, tmp_path, capsys, points):
        err = self.run(tmp_path, capsys, ["--slice", "b=0.2r", "--points", points], 1)
        assert err == {"error": "UsageError",
                       "message": f"--points must be positive, got {points}"}

    def test_scenario_not_an_integer(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["--grid", "0:0", "--scenarios", "a"], 1)
        assert err["error"] == "UsageError" and "--scenarios" in err["message"]

    def test_slice_without_a_valid_point(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["--slice", "b=0.2r", "--rho1", "1"], 1)
        assert err["error"] == "UsageError" and "b=0.2r" in err["message"]

    @pytest.mark.parametrize("option", ["--rho1", "--rho2"])
    def test_slice_at_a_correlation_outside_minus_one_one(self, tmp_path, capsys, option):
        err = self.run(tmp_path, capsys, ["--slice", "b=0.2r", option, "1.5"], 2)
        assert err["error"] == "OutOfDomain" and "1.5" in err["message"]

    def test_empty_scenario_list(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["--grid", "0:0", "--scenarios", ""], 2)
        assert err["error"] == "OutOfDomain"

    def test_repeated_scenario(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["--grid", "0:0", "--scenarios", "1,1"], 2)
        assert err["error"] == "OutOfDomain"

    def test_negative_seed(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["--grid", "0:0", "--seed", "-1"], 2)
        assert err["error"] == "OutOfDomain" and "seed" in err["message"]

    @pytest.mark.parametrize("n", ["4", "5"])
    def test_too_few_samples_for_bartlett(self, tmp_path, capsys, n):
        err = self.run(tmp_path, capsys, ["--grid", "0:0", "--n", n], 2)
        assert err["error"] == "InsufficientSamples" and "scenario 5" in err["message"]

    def test_too_few_replicates_for_max_min(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["--grid", "0:0", "--reps", "2", "--scenarios", "3"], 2)
        assert err["error"] == "InsufficientSamples" and "scenarios 3-4" in err["message"]

    def test_montecarlo_mode_is_gone(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["--grid", "0:0", "--pvalue-mode", "montecarlo"], 1)
        assert err["error"] == "UsageError" and "'montecarlo'" in err["message"]

    @pytest.mark.parametrize("n", [str(10**21), str(2**63)])
    def test_sample_size_past_int64(self, tmp_path, capsys, n):
        err = self.run(tmp_path, capsys, ["--grid", "0:0", "--n", n, "--reps", "5"], 2)
        assert err["error"] == "OutOfDomain" and n in err["message"]

    def test_too_few_samples_for_fisher_z(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["--grid", "0:0", "--n", "3", "--scenarios", "1,2"], 2)
        assert err["error"] == "InsufficientSamples"
