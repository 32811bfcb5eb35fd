import numpy as np
import pytest

from macnet.classify import (
    classify_edge,
    classify_network,
    classify_node,
    contribution_histogram,
    simplex_xy,
)
from macnet.errors import InvalidThreshold, MissingContribution, UnnormalizedContrib
from macnet.inference import chi2_sf
from macnet.network import EdgeRecord, InferredNetwork

ATTRS = ("protein", "gene")


def edge(contrib, t=0.25, pair=("a", "b"), attrs=ATTRS):
    return classify_edge(pair, contrib, t, attrs)


class TestClassifyEdge:
    def test_protein_dominated_example(self):
        out = edge((0.93, 0.07))
        assert out.label == "protein"
        assert out.dominant_index == 0

    def test_balanced_is_mixed(self):
        for t in (0.1, 0.25, 0.49):
            assert edge((0.5, 0.5), t=t).label == "mixed"

    def test_three_attribute_rule(self):
        attrs = ("a1", "a2", "a3")
        assert edge((0.6, 0.3, 0.1), t=0.25, attrs=attrs).label == "mixed"
        assert edge((0.6, 0.3, 0.1), t=0.45, attrs=attrs).label == "a1"

    def test_two_attribute_cuts_agree(self):
        # with two attributes the argmax rule reproduces both one-sided cuts
        for t in (0.1, 0.25, 0.4):
            for value in np.linspace(0.0, 1.0, 101):
                label = edge((value, 1.0 - value), t=t).label
                if value >= 1.0 - t:
                    assert label == "protein"
                elif value <= t:
                    assert label == "gene"
                else:
                    assert label == "mixed"

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        thresholds = [0.05, 0.15, 0.25, 0.35, 0.45]
        for _ in range(200):
            a = rng.uniform()
            contrib = (a, 1.0 - a)
            mixed_flags = [edge(contrib, t=t).label == "mixed" for t in thresholds]
            # raising the threshold can only move edges out of the mixed set
            for at_small_t, at_large_t in zip(mixed_flags[:-1], mixed_flags[1:]):
                assert (not at_large_t) or at_small_t

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform()
            left = edge((a, 1.0 - a)).label
            right = edge((1.0 - a, a)).label
            mirror = {"protein": "gene", "gene": "protein", "mixed": "mixed"}
            assert right == mirror[left]

    def test_label_tracks_attribute_permutation(self):
        attrs = ("a1", "a2", "a3")
        contrib = (0.8, 0.15, 0.05)
        base = edge(contrib, t=0.3, attrs=attrs)
        perm = [2, 0, 1]
        permuted = edge(
            tuple(contrib[i] for i in perm), t=0.3, attrs=tuple(attrs[i] for i in perm)
        )
        assert base.label == permuted.label == "a1"

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThreshold):
            edge((0.5, 0.5), t=0.0)

    def test_unnormalized(self):
        with pytest.raises(UnnormalizedContrib):
            edge((0.9, 0.3))


class TestClassifyNode:
    def test_majority_counting(self):
        incident = [edge((0.9, 0.1))] * 3 + [edge((0.1, 0.9))]
        out = classify_node("n", incident, ATTRS)
        assert out.proportions == (0.75, 0.25, 0.0)
        assert out.label == "protein"

    def test_all_mixed(self):
        incident = [edge((0.5, 0.5))] * 4
        out = classify_node("n", incident, ATTRS)
        assert out.label == "mixed"
        assert out.proportions == (0.0, 0.0, 1.0)
        assert out.simplex_coords == (0.0, 0.0, 1.0)

    def test_tie_prefers_mixed(self):
        incident = [edge((0.9, 0.1)), edge((0.5, 0.5))]
        assert classify_node("n", incident, ATTRS).label == "mixed"

    def test_attribute_tie_prefers_lowest_index(self):
        incident = [edge((0.9, 0.1)), edge((0.1, 0.9))]
        assert classify_node("n", incident, ATTRS).label == "protein"

    def test_isolated_node(self):
        out = classify_node("n", [], ATTRS)
        assert out.label == "unclassified"
        assert out.proportions == (0.0, 0.0, 0.0)

    def test_deterministic_in_multiset(self):
        a = [edge((0.9, 0.1)), edge((0.5, 0.5)), edge((0.1, 0.9))]
        b = list(reversed(a))
        assert classify_node("n", a, ATTRS) == classify_node("n", b, ATTRS)


class TestContributionHistogram:
    def test_point_mass_in_last_bin(self):
        edges = [edge((1.0, 0.0)) for _ in range(7)]
        counts = contribution_histogram(edges, attribute_index=0)
        assert counts[-1] == 7
        assert counts[:-1].sum() == 0

    def test_empty(self):
        counts = contribution_histogram([], attribute_index=0)
        assert counts.shape == (50,)
        assert counts.sum() == 0

    def test_uniform_contributions_roughly_flat(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(size=5000)
        edges = [edge((v, 1.0 - v)) for v in values]
        counts = contribution_histogram(edges, attribute_index=0)
        expected = len(values) / 50
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert chi2_sf(stat, 49) > 0.01


class TestClassifyNetwork:
    def test_end_to_end(self):
        edges = (
            EdgeRecord("a", "b", "cca", 0.5, 10.0, 4, 1e-4, 1e-3, contrib=(0.9, 0.1)),
            EdgeRecord("b", "c", "cca", 0.4, 8.0, 4, 1e-3, 5e-3, contrib=(0.5, 0.5)),
        )
        net = InferredNetwork.from_records(("a", "b", "c", "d"), ATTRS, "cca", 0.05, 60, edges)
        edge_classes, node_classes = classify_network(net, 0.25)
        labels = {nc.node_id: nc.label for nc in node_classes}
        assert labels == {"a": "protein", "b": "mixed", "c": "mixed", "d": "unclassified"}
        assert [ec.label for ec in edge_classes] == ["protein", "mixed"]

    def test_matches_rule_edge_by_edge(self):
        # exact boundary values (1 - t), balanced vectors and node-level ties included
        rng = np.random.default_rng(11)
        ids = [f"n{i}" for i in range(30)]
        pairs = sorted({tuple(sorted(rng.choice(30, size=2, replace=False))) for _ in range(120)})
        firsts = rng.choice([0.75, 0.5, 0.25, 0.9, 0.1], size=len(pairs))
        firsts[::3] = rng.uniform(size=len(firsts[::3]))
        edges = tuple(EdgeRecord(ids[a], ids[b], "cca", 0.5, 10.0, 4, 1e-4, 1e-3,
                                 contrib=(float(v), 1.0 - float(v)))
                      for (a, b), v in zip(pairs, firsts))
        net = InferredNetwork.from_records(tuple(ids), ATTRS, "cca", 0.05, 60, edges)
        edge_classes, node_classes = classify_network(net, 0.25)
        expected = [ATTRS[0] if e.contrib[0] >= 0.75 else ATTRS[1] if e.contrib[1] >= 0.75
                    else "mixed" for e in edges]
        assert [ec.label for ec in edge_classes] == expected
        assert [ec.pair for ec in edge_classes] == [(e.node_i, e.node_j) for e in edges]
        for nc in node_classes:
            labels = [lab for e, lab in zip(edges, expected) if nc.node_id in (e.node_i, e.node_j)]
            counts = [labels.count(ATTRS[0]), labels.count(ATTRS[1]), labels.count("mixed")]
            if not labels:
                assert (nc.label, nc.proportions) == ("unclassified", (0.0, 0.0, 0.0))
                continue
            assert nc.proportions == tuple(c / len(labels) for c in counts)
            best = max(counts)
            assert nc.label == ("mixed" if counts[2] == best
                                else ATTRS[0] if counts[0] == best else ATTRS[1])

    def test_requires_contributions(self):
        edges = (EdgeRecord("a", "b", "pearson", 0.5, 3.0, None, 1e-4, 1e-3),)
        net = InferredNetwork.from_records(("a", "b"), ("x",), "pearson", 0.05, 60, edges)
        with pytest.raises(MissingContribution):
            classify_network(net, 0.25)


class TestSimplexCoords:
    def test_corners(self):
        assert simplex_xy((1.0, 0.0, 0.0)) == (0.0, 0.0)
        assert simplex_xy((0.0, 1.0, 0.0)) == (1.0, 0.0)
        x, y = simplex_xy((0.0, 0.0, 1.0))
        assert (x, y) == pytest.approx((0.5, np.sqrt(3) / 2))
