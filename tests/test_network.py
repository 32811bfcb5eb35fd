import itertools

import numpy as np
import pytest
from scipy.stats import spearmanr

from _oracles import brute_force_betweenness
from macnet import network, simulation
from macnet.errors import NodeSetMismatch, UsageError, ZeroVariance
from macnet.network import (
    AttributeDataset,
    EdgeTable,
    InferredNetwork,
    _floor_supermatrix,
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
    statistic 1, p = q = 0.01, no df, and the (m, k) ``contrib`` rows or NaN."""
    index = {v: x for x, v in enumerate(node_ids)}
    ends = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.intp).reshape(-1, 2)
    m, k = len(ends), len(attribute_names)
    contrib = np.full((m, k), np.nan) if contrib is None else contrib
    table = EdgeTable(
        ends=ends,
        similarity=np.full(m, 0.5) if similarities is None else np.array(similarities, dtype=float),
        statistic=np.ones(m),
        df=np.full(m, np.nan),
        p=np.full(m, 0.01),
        q=np.full(m, 0.01),
        contrib=np.array(contrib, dtype=float).reshape(m, k),
    )
    return InferredNetwork(tuple(node_ids), tuple(attribute_names), method, 0.05, 10, table,
                           tested_pairs=len(node_ids) * (len(node_ids) - 1) // 2)


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
    """Each edge's (node id, node id) pair, in table order."""
    return [(net.node_ids[a], net.node_ids[b]) for a, b in net.table.ends.tolist()]


def p_by_pair(net):
    """Edge p-values in the order of their (node id, node id) pairs."""
    return [p for _, p in sorted(zip(id_pairs(net), net.table.p.tolist()))]


class TestInferNetwork:
    def test_planted_edge_recovered(self):
        hits = 0
        exact = 0
        runs = 60
        for seed in range(runs):
            data = planted_pair_dataset(seed)
            net = infer_network(data, "pearson", 0.05)
            pairs = net.edge_pairs()
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
        assert (net.table.q <= 0.1).all()
        assert (net.table.p <= net.table.q).all()

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

    def test_cca_edges_carry_contributions(self):
        data = planted_two_attribute_dataset(3)
        net = infer_network(data, "cca", 0.05)
        assert net.n_edges >= 1
        assert (net.table.df == 4).all()
        assert not np.isnan(net.table.contrib).any()
        assert net.table.contrib.sum(axis=1) == pytest.approx(np.ones(net.n_edges), abs=1e-9)
        assert net.homogeneity_reject_fraction is not None

    def test_max_min_methods_run(self):
        data = planted_two_attribute_dataset(9)
        for method in ("max", "min"):
            net = infer_network(data, method, 0.05)
            assert frozenset(("v0", "v1")) in net.edge_pairs()

    def test_monte_carlo_pvalue_mode(self):
        data = planted_two_attribute_dataset(9)
        net = infer_network(data, "max", 0.05, pvalue_mode="montecarlo")
        assert frozenset(("v0", "v1")) in net.edge_pairs()
        again = infer_network(data, "max", 0.05, pvalue_mode="montecarlo")
        assert net.table.p.tolist() == again.table.p.tolist()

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
        assert base.edge_pairs() == other.edge_pairs()

    def test_deterministic(self):
        data = planted_two_attribute_dataset(13)
        a = infer_network(data, "cca", 0.05)
        b = infer_network(data, "cca", 0.05)
        assert a.node_ids == b.node_ids
        for field in ("ends", "p", "q"):
            assert getattr(a.table, field).tolist() == getattr(b.table, field).tolist(), field

    def test_zero_variance_reports_node_and_attribute(self):
        rng = simulation.substream(19, 0)
        samples = rng.standard_normal((3, 2, 20))
        samples[1, 1, :] = 2.5
        data = AttributeDataset(("a", "b", "c"), ("x", "y"), samples)
        with pytest.raises(ZeroVariance) as err:
            infer_network(data, "cca", 0.05)
        assert "b" in str(err.value) and "y" in str(err.value)

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
    draws = simulation.sample_mvn(sigma, n, rng)
    samples[0, 0], samples[0, 1] = draws[:, 0], draws[:, 1]
    samples[1, 0], samples[1, 1] = draws[:, 2], draws[:, 3]
    ids = tuple(f"v{i}" for i in range(n_nodes))
    return AttributeDataset(ids, ("x", "y"), samples)


class TestFlooring:
    def test_clean_matrix_untouched(self):
        joint = np.eye(4)
        repaired, floored, change = _floor_supermatrix(joint)
        assert not floored and change == 0.0
        np.testing.assert_array_equal(repaired, joint)

    def test_small_defect_repaired(self):
        base = np.eye(4)
        base[0, 1] = base[1, 0] = 1.0 + 1e-6  # slightly indefinite
        repaired, floored, change = _floor_supermatrix(base)
        assert floored
        assert change < 0.01
        assert np.linalg.eigvalsh(repaired)[0] > 0
        np.testing.assert_allclose(np.diag(repaired), 1.0, atol=1e-12)

    def test_large_defect_flagged_for_skip(self):
        bad = np.eye(4)
        bad[0, 1] = bad[1, 0] = 1.1
        _, _, change = _floor_supermatrix(bad)
        assert change > network.FLOOR_SKIP_DELTA


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
        oracle = brute_force_betweenness(net.node_ids, net.adjacency())
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
            oracle = brute_force_betweenness(net.node_ids, net.adjacency())
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

    def test_node_set_mismatch(self):
        with pytest.raises(NodeSetMismatch):
            jaccard(toy_network(["a", "b"], []), toy_network(["a", "c"], []))


class TestAttributeDataset:
    def test_selection_by_name(self):
        rng = np.random.default_rng(1)
        data = AttributeDataset(("a", "b"), ("x", "y", "z"), rng.normal(size=(2, 3, 5)))
        selected = data.select(["z", "x"])
        assert selected.selected_names == ("z", "x")
        np.testing.assert_array_equal(selected.node_matrix(0)[:, 0], data.samples[0, 2])

    def test_rejects_nan(self):
        samples = np.zeros((2, 1, 4))
        samples[0, 0, 0] = np.nan
        with pytest.raises(Exception):
            AttributeDataset(("a", "b"), ("x",), samples)


def null_share_with_edges(method, seeds, n_nodes=40, n=50, gamma=0.05):
    """Share of pure-noise datasets (i.i.d. nodes) on which ``method`` declares any edge."""
    k = 1 if method == "pearson" else 2
    ids = tuple(f"v{i}" for i in range(n_nodes))
    names = tuple(f"a{a}" for a in range(k))
    hits = 0
    for seed in range(seeds):
        samples = simulation.substream(seed, n_nodes).standard_normal((n_nodes, k, n))
        hits += infer_network(AttributeDataset(ids, names, samples), method, gamma).n_edges > 0
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
