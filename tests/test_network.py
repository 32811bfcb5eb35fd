import csv
import dataclasses
import itertools

import numpy as np
import pytest
from scipy.stats import spearmanr

from _oracles import adjacency_sets, brute_force_betweenness, edge_pairs, sample_mvn
from macnet import simulation
from macnet.errors import LengthMismatch, NodeSetMismatch, NonFiniteInput, UsageError, ZeroVariance
from macnet.io import read_network, write_edges_csv, write_meta_json
from macnet.network import (
    AttributeDataset,
    InferredNetwork,
    betweenness_values,
    clustering_values,
    degree_values,
    infer_network,
    jaccard,
    largest_connected_component,
    summary,
)


def toy_network(node_ids, pairs, similarities=None, *, method="pearson",
                attribute_names=("attr",), contrib=None):
    """A hand-built network over ``node_ids`` with one edge per (id, id) pair:
    statistic 1, p = q = 0.01, and for cca the (m, k) ``contrib`` rows (no
    contributions for any other method)."""
    index = {v: x for x, v in enumerate(node_ids)}
    ends = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.intp).reshape(-1, 2)
    m, k = len(ends), len(attribute_names)
    return InferredNetwork(
        node_ids=tuple(node_ids),
        attribute_names=tuple(attribute_names),
        method=method,
        gamma=0.05,
        n_samples=10,
        ends=ends,
        similarity=np.full(m, 0.5) if similarities is None else np.array(similarities, dtype=float),
        statistic=np.ones(m),
        p=np.full(m, 0.01),
        q=np.full(m, 0.01),
        contrib=np.array(contrib, dtype=float).reshape(m, k) if method == "cca" else None,
        tested_pairs=len(node_ids) * (len(node_ids) - 1) // 2,
    )


def planted_pair_dataset(seed, n_nodes=3, n=100, rho=0.9, planted=((0, 1),)):
    """Independent nodes except the planted pairs, which share one correlation."""
    rng = simulation.substream(seed, 424242)
    samples = rng.standard_normal((n_nodes, 1, n))
    for a, b in planted:
        shared = rng.standard_normal(n)
        noise = np.sqrt(1.0 - rho**2)
        samples[a, 0] = rho * shared + noise * rng.standard_normal(n)
        # exact target correlation in population: corr = rho for both vs shared
        samples[b, 0] = rho * shared + noise * rng.standard_normal(n)
    ids = tuple(f"v{i}" for i in range(n_nodes))
    return AttributeDataset(ids, ("attr",), samples)


def random_toy_graph(rng, max_nodes=8):
    n = int(rng.integers(2, max_nodes + 1))
    ids = [f"n{i}" for i in range(n)]
    pairs = [
        (ids[a], ids[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.4
    ]
    return toy_network(ids, pairs)


def id_pairs(net):
    """Each edge's (node id, node id) pair, in edge order."""
    return [(net.node_ids[a], net.node_ids[b]) for a, b in net.ends.tolist()]


def p_by_pair(net):
    """Edge p-values in the order of their (node id, node id) pairs."""
    return [p for _, p in sorted(zip(id_pairs(net), net.p.tolist()))]


class TestInferNetwork:
    def test_planted_edge_recovered(self):
        hits = 0
        exact = 0
        runs = 60
        for seed in range(runs):
            data = planted_pair_dataset(seed)
            net = infer_network(data, "pearson", 0.05)
            pairs = edge_pairs(net)
            if frozenset(("v0", "v1")) in pairs:
                hits += 1
            if pairs == frozenset({frozenset(("v0", "v1"))}):
                exact += 1
        assert hits == runs
        # false edges appear at the step-up threshold rate, so exact recovery
        # sits near 93 percent rather than at certainty
        assert exact >= int(0.85 * runs)

    def test_q_bounded_by_gamma_and_p(self):
        data = planted_pair_dataset(5, n_nodes=6)
        net = infer_network(data, "pearson", 0.1)
        assert (net.q <= 0.1).all()
        assert (net.p <= net.q).all()

    def test_k1_cca_matches_pearson_ranking(self):
        rng = simulation.substream(77, 0)
        samples = rng.standard_normal((8, 1, 60))
        data = AttributeDataset(tuple(f"v{i}" for i in range(8)), ("attr",), samples)
        gamma = 0.999
        z_net = infer_network(data, "pearson", gamma)
        chi_net = infer_network(data, "cca", gamma)
        # near-unit FDR level keeps every pair, so the p-value rankings align
        assert z_net.n_edges == chi_net.n_edges == 28
        rho, _ = spearmanr(p_by_pair(z_net), p_by_pair(chi_net))
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_cca_edges_carry_contributions(self, tmp_path):
        data = planted_two_attribute_dataset(3)
        net = infer_network(data, "cca", 0.05)
        assert net.n_edges >= 1
        assert net.contrib.shape == (net.n_edges, 2)
        assert not np.isnan(net.contrib).any()
        assert net.contrib.sum(axis=1) == pytest.approx(np.ones(net.n_edges), abs=1e-9)
        assert net.homogeneity_reject_fraction is not None
        write_edges_csv(net, tmp_path / "edges.csv")
        with open(tmp_path / "edges.csv", newline="") as handle:
            assert [row["df"] for row in csv.DictReader(handle)] == ["4"] * net.n_edges

    def test_max_min_methods_run(self):
        data = planted_two_attribute_dataset(9)
        for method in ("max", "min"):
            net = infer_network(data, method, 0.05)
            assert frozenset(("v0", "v1")) in edge_pairs(net)

    @pytest.mark.parametrize("method", ["pearson", "max", "min"])
    def test_only_cca_edges_carry_contributions(self, method, tmp_path):
        data = planted_two_attribute_dataset(9)
        if method == "pearson":
            data = data.select(["x"])
        net = infer_network(data, method, 0.05)
        assert net.n_edges >= 1 and net.contrib is None
        write_edges_csv(net, tmp_path / "edges.csv")
        write_meta_json(net, tmp_path / "meta.json")
        assert read_network(tmp_path / "edges.csv").contrib is None

    def test_edge_table_has_no_df_column(self):
        assert "df" not in {field.name for field in dataclasses.fields(InferredNetwork)}

    def test_exact_pvalue_mode(self):
        data = planted_two_attribute_dataset(9)
        net = infer_network(data, "max", 0.05, pvalue_mode="exact")
        assert frozenset(("v0", "v1")) in edge_pairs(net)
        assert net.pvalue_mode == "exact"
        again = infer_network(data, "max", 0.05, pvalue_mode="exact")
        assert net.p.tolist() == again.p.tolist()

    def test_montecarlo_mode_is_gone(self):
        with pytest.raises(UsageError, match=r"\('formula', 'exact'\), got 'montecarlo'"):
            infer_network(planted_two_attribute_dataset(9), "max", 0.05, pvalue_mode="montecarlo")

    def test_permutation_equivariance(self):
        data = planted_pair_dataset(11, n_nodes=5)
        perm = [3, 1, 4, 0, 2]
        permuted = AttributeDataset(
            tuple(data.node_ids[i] for i in perm),
            data.attribute_names,
            data.samples[perm],
        )
        base = infer_network(data, "pearson", 0.05)
        other = infer_network(permuted, "pearson", 0.05)
        assert edge_pairs(base) == edge_pairs(other)

    def test_deterministic(self):
        data = planted_two_attribute_dataset(13)
        a = infer_network(data, "cca", 0.05)
        b = infer_network(data, "cca", 0.05)
        assert a.node_ids == b.node_ids
        for field in ("ends", "p", "q"):
            assert getattr(a, field).tolist() == getattr(b, field).tolist(), field

    def test_zero_variance_reports_node_and_attribute(self):
        rng = simulation.substream(19, 0)
        samples = rng.standard_normal((3, 2, 20))
        samples[1, 1, :] = 2.5
        data = AttributeDataset(("a", "b", "c"), ("x", "y"), samples)
        with pytest.raises(ZeroVariance) as err:
            infer_network(data, "cca", 0.05)
        assert "b" in str(err.value) and "y" in str(err.value)

    def test_constant_attribute_with_an_inexact_mean_is_zero_variance(self):
        # the mean of twenty 0.1s is not 0.1 in float64, so the computed variance is not 0
        data = planted_two_attribute_dataset(19, n=20)
        samples = data.samples.copy()
        samples[1, 1, :] = 0.1
        with pytest.raises(ZeroVariance, match="node 'v1' attribute 'y' is constant"):
            infer_network(AttributeDataset(data.node_ids, data.attribute_names, samples), "cca", 0.05)

    @pytest.mark.parametrize("method", ["pearson", "max", "cca"])
    @pytest.mark.parametrize("scale", [1e200, 1e100, 1e-100, 1e-170])
    def test_attribute_scale_outside_float_range_is_rejected(self, scale, method):
        # squares overflow (1e200), a product of two sums of squares over- or underflows
        # (1e100, 1e-100), squares underflow to 0 (1e-170)
        data = planted_two_attribute_dataset(5, n=20)
        data = AttributeDataset(data.node_ids, data.attribute_names, data.samples * scale)
        if method == "pearson":
            data = data.select(["y"])
        with pytest.raises(NonFiniteInput, match=f"node 'v0' attribute '{data.attribute_names[0]}'"):
            infer_network(data, method, 0.05)

    @pytest.mark.parametrize("method", ["pearson", "max", "cca"])
    @pytest.mark.parametrize("scale", [2.0**230, 2.0**-230])
    def test_attribute_scale_inside_float_range_is_tested(self, scale, method):
        data = planted_two_attribute_dataset(5)
        scaled = AttributeDataset(data.node_ids, data.attribute_names, data.samples * scale)
        if method == "pearson":
            data, scaled = data.select(["y"]), scaled.select(["y"])
        base, net = infer_network(data, method, 0.05), infer_network(scaled, method, 0.05)
        assert edge_pairs(net) == edge_pairs(base) and base.n_edges
        np.testing.assert_allclose(net.p, base.p, rtol=1e-9)

    def test_method_preconditions(self):
        data = planted_two_attribute_dataset(23)
        with pytest.raises(UsageError):
            infer_network(data, "pearson", 0.05)
        single = data.select(["x"])
        with pytest.raises(UsageError):
            infer_network(single, "max", 0.05)


def planted_two_attribute_dataset(seed, n_nodes=6, n=60):
    params = simulation.K2Params(r=0.3, b=0.2, rho1=0.75, rho2=0.7)
    sigma = simulation.build_sigma(params)
    rng = simulation.substream(seed, 31337)
    samples = rng.standard_normal((n_nodes, 2, n))
    draws = sample_mvn(sigma, n, rng)
    samples[0, 0], samples[0, 1] = draws[:, 0], draws[:, 1]
    samples[1, 0], samples[1, 1] = draws[:, 2], draws[:, 3]
    ids = tuple(f"v{i}" for i in range(n_nodes))
    return AttributeDataset(ids, ("x", "y"), samples)


class TestGraphStatistics:
    def test_table_arithmetic(self):
        # synthetic graph with the published node and edge counts
        rng = np.random.default_rng(0)
        ids = [f"g{i}" for i in range(91)]
        all_pairs = list(itertools.combinations(ids, 2))
        chosen = [all_pairs[i] for i in rng.choice(len(all_pairs), size=791, replace=False)]
        net = toy_network(ids, chosen)
        stats = summary(net)
        assert stats.density == 791 / 4095
        assert stats.density == 2 * 791 / (91 * 90)
        assert round(stats.density, 2) == 0.19
        assert stats.avg_degree == pytest.approx(2 * 791 / 91)
        assert round(stats.avg_degree, 2) == 17.38
        assert degree_values(net).sum() == 2 * 791

    def test_triangle(self):
        net = toy_network(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        np.testing.assert_array_equal(clustering_values(net), np.ones(3))
        np.testing.assert_array_equal(betweenness_values(net), np.zeros(3))

    def test_three_node_path(self):
        net = toy_network(["a", "b", "c"], [("a", "b"), ("b", "c")])
        np.testing.assert_array_equal(betweenness_values(net), [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(clustering_values(net), np.zeros(3))

    def test_star(self):
        ids = ["hub"] + [f"leaf{i}" for i in range(5)]
        net = toy_network(ids, [("hub", leaf) for leaf in ids[1:]])
        np.testing.assert_array_equal(degree_values(net), [5, 1, 1, 1, 1, 1])

    def test_five_cycle_against_enumeration(self):
        ids = [f"c{i}" for i in range(5)]
        pairs = [(ids[i], ids[(i + 1) % 5]) for i in range(5)]
        net = toy_network(ids, pairs)
        values = betweenness_values(net)
        oracle = brute_force_betweenness(net.node_ids, adjacency_sets(net))
        np.testing.assert_allclose(values, oracle, atol=1e-12)
        np.testing.assert_allclose(values, np.full(5, values[0]), atol=1e-12)

    def test_empty_graph(self):
        net = toy_network(["a", "b", "c"], [])
        np.testing.assert_array_equal(degree_values(net), np.zeros(3))
        np.testing.assert_array_equal(betweenness_values(net), np.zeros(3))
        np.testing.assert_array_equal(clustering_values(net), np.zeros(3))

    def test_betweenness_matches_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            net = random_toy_graph(rng)
            values = betweenness_values(net)
            oracle = brute_force_betweenness(net.node_ids, adjacency_sets(net))
            np.testing.assert_allclose(values, oracle, atol=1e-12)

    def test_avg_abs_similarity(self):
        net = toy_network(["a", "b", "c"], [("a", "b"), ("b", "c")], similarities=[0.4, -0.8])
        assert summary(net).avg_abs_similarity == pytest.approx(0.6)


class TestConnectedComponents:
    def test_complete_graph(self):
        ids = ["a", "b", "c", "d"]
        net = toy_network(ids, list(itertools.combinations(ids, 2)))
        assert largest_connected_component(net) == 4

    def test_two_triangles(self):
        net = toy_network(
            ["a", "b", "c", "x", "y", "z"],
            [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")],
        )
        assert largest_connected_component(net) == 3

    def test_isolated_nodes_excluded(self):
        ids = [f"g{i}" for i in range(91)]
        pairs = [(ids[i], ids[i + 1]) for i in range(79)]  # chain over the first 80
        net = toy_network(ids, pairs)
        assert largest_connected_component(net) == 80


class TestJaccard:
    def test_published_arithmetic(self):
        ids = [f"n{i}" for i in range(60)]
        all_pairs = list(itertools.combinations(ids, 2))
        shared = all_pairs[:329]
        net_a = toy_network(ids, shared + all_pairs[329:426])
        net_b = toy_network(ids, shared + all_pairs[426 : 426 + 462])
        value, count = jaccard(net_a, net_b)
        assert count == 329
        assert value == pytest.approx(329 / 888)
        assert round(value, 2) == 0.37

    def test_identical(self):
        net = toy_network(["a", "b", "c"], [("a", "b")])
        assert jaccard(net, net) == (1.0, 1)

    def test_disjoint(self):
        ids = ["a", "b", "c", "d"]
        assert jaccard(toy_network(ids, [("a", "b")]), toy_network(ids, [("c", "d")])) == (0.0, 0)

    def test_two_edgeless_networks_are_identical(self):
        ids = ["a", "b", "c"]
        assert jaccard(toy_network(ids, []), toy_network(ids[::-1], [])) == (1.0, 0)

    def test_node_set_mismatch(self):
        with pytest.raises(NodeSetMismatch):
            jaccard(toy_network(["a", "b"], []), toy_network(["a", "c"], []))


class TestSimpleGraphRule:
    """An in-process network's edges form a simple graph, as ``read_network`` requires of
    an edge file: the first edge that breaks the rule is named with its row and node ids."""

    @pytest.mark.parametrize("pairs,message", [
        ([("a", "b"), ("c", "a"), ("a", "b")], r"edge 2 \('a', 'b'\) repeats the node pair of edge 0"),
        ([("a", "b"), ("c", "a"), ("b", "a")], r"edge 2 \('b', 'a'\) repeats the node pair of edge 0"),
        ([("a", "b"), ("c", "c"), ("b", "a")], r"edge 1 \('c', 'c'\) is a self-loop"),
        ([("a", "b"), ("b", "a"), ("b", "c")], r"edge 1 \('b', 'a'\) repeats the node pair of edge 0"),
    ], ids=["repeated_pair", "repeated_pair_reversed", "self_loop", "repeated_pair_next_to_it"])
    def test_a_repeated_pair_or_self_loop_raises(self, pairs, message):
        with pytest.raises(NodeSetMismatch, match=message):
            toy_network(["a", "b", "c"], pairs)

    @pytest.mark.parametrize("ends,named", [
        ([[0, 1], [1, -1]], "('b', -1)"),
        ([[0, 1], [1, 3]], "('b', 3)"),
        # its pair's key, min * 3 + max = 2, is the first edge's
        ([[0, 2], [-1, 5]], "(-1, 5)"),
    ], ids=["negative", "past_the_last_node", "sharing_a_key_in_range"])
    def test_an_end_outside_the_nodes_raises(self, ends, named):
        net = toy_network(["a", "b", "c"], [("a", "b")])
        with pytest.raises(NodeSetMismatch) as caught:
            dataclasses.replace(net, ends=np.array(ends), similarity=np.zeros(2),
                                statistic=np.zeros(2), p=np.zeros(2), q=np.zeros(2))
        assert str(caught.value) == f"edge 1 {named} has an end outside [0, 3)"

    def test_a_simple_graph_is_kept(self):
        ids = ["a", "b", "c", "d"]
        net = toy_network(ids, [("b", "c"), ("c", "a"), ("d", "b"), ("a", "d")])
        assert net.n_edges == 4 and InferredNetwork.first_non_simple_edge(net.ends, 4) is None
        assert toy_network(ids, []).n_edges == 0


class TestAttributeDataset:
    def test_selection_by_name(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(2, 3, 5))
        data = AttributeDataset(("a", "b"), ("x", "y", "z"), samples)
        selected = data.select(["z", "x"])
        built = AttributeDataset(("a", "b"), ("z", "x"), samples[:, [2, 0], :])
        assert selected.attribute_names == built.attribute_names == ("z", "x")
        assert selected.k == 2
        np.testing.assert_array_equal(selected.samples, built.samples)

    def test_empty_selection(self):
        data = AttributeDataset(("a", "b"), ("x", "y"), np.ones((2, 2, 4)))
        with pytest.raises(LengthMismatch, match="empty"):
            data.select([])

    def test_rejects_an_empty_attribute_list(self):
        with pytest.raises(LengthMismatch, match="empty"):
            AttributeDataset(("a", "b", "c"), (), np.empty((3, 0, 20)))

    def test_rejects_repeated_attribute_names(self):
        with pytest.raises(LengthMismatch, match="not unique"):
            AttributeDataset(("a", "b"), ("x", "x"), np.ones((2, 2, 4)))

    def test_rejects_nan(self):
        samples = np.zeros((2, 2, 4))
        samples[1, 1, 2] = np.nan
        with pytest.raises(NonFiniteInput, match="node 'b' attribute 'y'"):
            AttributeDataset(("a", "b"), ("x", "y"), samples)


def null_share_with_edges(method, seeds, n_nodes=40, n=50, gamma=0.05, pvalue_mode="formula"):
    """Share of pure-noise datasets (i.i.d. nodes) on which ``method`` declares any edge."""
    k = 1 if method == "pearson" else 2
    ids = tuple(f"v{i}" for i in range(n_nodes))
    names = tuple(f"a{a}" for a in range(k))
    hits = 0
    for seed in range(seeds):
        samples = simulation.substream(seed, n_nodes).standard_normal((n_nodes, k, n))
        net = infer_network(AttributeDataset(ids, names, samples), method, gamma,
                            pvalue_mode=pvalue_mode)
        hits += net.n_edges > 0
    return hits / seeds


NULL_SEEDS = 2000
NULL_BOUND = 0.05 + 3 * np.sqrt(0.05 * 0.95 / NULL_SEEDS)


def test_cca_network_is_calibrated_under_the_null():
    """With no edge anywhere, BH at 0.05 over the candidates declares one on at most
    gamma + 3 SE of the datasets (5.4% here)."""
    assert null_share_with_edges("cca", NULL_SEEDS) <= NULL_BOUND


@pytest.mark.xfail(strict=True, reason=(
    "pearson's Fisher-z tail with sqrt(n-3) runs 1.4-1.5x the nominal rate at p ~ 6e-5 "
    "(the exact t(n-2) tail stays within 5%): 8.0% of 2,000 null datasets (7.4% +- 0.7% "
    "over 1,000) show an edge, above the 6.5% bound"))
def test_pearson_network_is_calibrated_under_the_null():
    assert null_share_with_edges("pearson", NULL_SEEDS) <= NULL_BOUND


def test_exact_min_network_is_calibrated_under_the_null():
    assert null_share_with_edges("min", NULL_SEEDS, pvalue_mode="exact") <= NULL_BOUND


@pytest.mark.xfail(strict=True, reason=(
    "the exact max tail is read at Fisher-z marginals, whose sqrt(n-3) normal tail is "
    "anti-conservative where BH decides (ROADMAP item 17): 7.55% of 2,000 null datasets "
    "show an edge, above the 6.46% bound"))
def test_exact_max_network_is_calibrated_under_the_null():
    assert null_share_with_edges("max", NULL_SEEDS, pvalue_mode="exact") <= NULL_BOUND
