import numpy as np
import pytest

from macnet.classify import classify_network, contribution_histogram, simplex_xy
from macnet.errors import InvalidThreshold, MissingContribution, UnnormalizedContrib
from macnet.inference import chi2_sf
from test_network import toy_network

ATTRS = ("protein", "gene")


def star(contribs, t=0.25, attrs=ATTRS):
    """Edge and node classes of a star around node "n": edge r joins "n" to leaf r
    and carries ``contribs[r]``."""
    leaves = [f"leaf{r}" for r in range(len(contribs))]
    net = toy_network(("n", *leaves), [("n", leaf) for leaf in leaves], method="cca",
                      attribute_names=attrs, contrib=contribs)
    return classify_network(net, t)


def edge(contrib, t=0.25, attrs=ATTRS):
    """Edge classes of a one-edge network carrying ``contrib``."""
    return star([contrib], t, attrs)[0]


def label(classes, row=0):
    return classes.labels[classes.code[row]]


class TestClassifyEdge:
    def test_protein_dominated_example(self):
        out = edge((0.93, 0.07))
        assert label(out) == "protein"
        assert out.code[0] == 0

    def test_balanced_is_mixed(self):
        for t in (0.1, 0.25, 0.49):
            assert label(edge((0.5, 0.5), t=t)) == "mixed"

    def test_three_attribute_rule(self):
        attrs = ("a1", "a2", "a3")
        assert label(edge((0.6, 0.3, 0.1), t=0.25, attrs=attrs)) == "mixed"
        assert label(edge((0.6, 0.3, 0.1), t=0.45, attrs=attrs)) == "a1"

    def test_two_attribute_cuts_agree(self):
        # with two attributes the argmax rule reproduces both one-sided cuts
        for t in (0.1, 0.25, 0.4):
            for value in np.linspace(0.0, 1.0, 101):
                out = label(edge((value, 1.0 - value), t=t))
                if value >= 1.0 - t:
                    assert out == "protein"
                elif value <= t:
                    assert out == "gene"
                else:
                    assert out == "mixed"

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        thresholds = [0.05, 0.15, 0.25, 0.35, 0.45]
        for _ in range(200):
            a = rng.uniform()
            contrib = (a, 1.0 - a)
            mixed_flags = [label(edge(contrib, t=t)) == "mixed" for t in thresholds]
            # raising the threshold can only move edges out of the mixed set
            for at_small_t, at_large_t in zip(mixed_flags[:-1], mixed_flags[1:]):
                assert (not at_large_t) or at_small_t

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform()
            left = label(edge((a, 1.0 - a)))
            right = label(edge((1.0 - a, a)))
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
        assert label(base) == label(permuted) == "a1"

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThreshold):
            edge((0.5, 0.5), t=0.0)

    def test_unnormalized(self):
        with pytest.raises(UnnormalizedContrib):
            edge((0.9, 0.3))


class TestClassifyNode:
    def test_majority_counting(self):
        _, out = star([(0.9, 0.1)] * 3 + [(0.1, 0.9)])
        assert tuple(out.proportions[0]) == (0.75, 0.25, 0.0)
        assert label(out) == "protein"

    def test_all_mixed(self):
        _, out = star([(0.5, 0.5)] * 4)
        assert label(out) == "mixed"
        assert tuple(out.proportions[0]) == (0.0, 0.0, 1.0)

    def test_tie_prefers_mixed(self):
        assert label(star([(0.9, 0.1), (0.5, 0.5)])[1]) == "mixed"

    def test_attribute_tie_prefers_lowest_index(self):
        assert label(star([(0.9, 0.1), (0.1, 0.9)])[1]) == "protein"

    def test_isolated_node(self):
        _, out = star([])
        assert label(out) == "unclassified"
        assert tuple(out.proportions[0]) == (0.0, 0.0, 0.0)

    def test_deterministic_in_multiset(self):
        a = [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)]
        _, forward = star(a)
        _, backward = star(a[::-1])
        assert tuple(forward.proportions[0]) == tuple(backward.proportions[0])
        assert label(forward) == label(backward)


class TestContributionHistogram:
    def test_point_mass_in_last_bin(self):
        edges, _ = star([(1.0, 0.0)] * 7)
        counts = contribution_histogram(edges, attribute_index=0)
        assert counts[-1] == 7
        assert counts[:-1].sum() == 0

    def test_empty(self):
        edges, _ = star([])
        counts = contribution_histogram(edges, attribute_index=0)
        assert counts.shape == (50,)
        assert counts.sum() == 0

    def test_uniform_contributions_roughly_flat(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(size=5000)
        edges, _ = star(np.column_stack([values, 1.0 - values]))
        counts = contribution_histogram(edges, attribute_index=0)
        expected = len(values) / 50
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert chi2_sf(stat, 49) > 0.01


class TestClassifyNetwork:
    def test_end_to_end(self):
        net = toy_network(("a", "b", "c", "d"), [("a", "b"), ("b", "c")], method="cca",
                          attribute_names=ATTRS, contrib=[(0.9, 0.1), (0.5, 0.5)])
        edge_classes, node_classes = classify_network(net, 0.25)
        labels = {node_id: label(node_classes, i)
                  for i, node_id in enumerate(node_classes.node_ids)}
        assert labels == {"a": "protein", "b": "mixed", "c": "mixed", "d": "unclassified"}
        assert [label(edge_classes, r) for r in range(len(edge_classes))] == ["protein", "mixed"]

    def test_matches_rule_edge_by_edge(self):
        # exact boundary values (1 - t), balanced vectors and node-level ties included
        rng = np.random.default_rng(11)
        ids = [f"n{i}" for i in range(30)]
        pairs = sorted({tuple(sorted(rng.choice(30, size=2, replace=False))) for _ in range(120)})
        firsts = rng.choice([0.75, 0.5, 0.25, 0.9, 0.1], size=len(pairs))
        firsts[::3] = rng.uniform(size=len(firsts[::3]))
        pairs = [(ids[a], ids[b]) for a, b in pairs]
        contribs = [(float(v), 1.0 - float(v)) for v in firsts]
        net = toy_network(ids, pairs, method="cca", attribute_names=ATTRS, contrib=contribs)
        edge_classes, node_classes = classify_network(net, 0.25)
        expected = [ATTRS[0] if c[0] >= 0.75 else ATTRS[1] if c[1] >= 0.75 else "mixed"
                    for c in contribs]
        assert [label(edge_classes, r) for r in range(len(edge_classes))] == expected
        ids = edge_classes.node_ids
        assert [(ids[a], ids[b]) for a, b in edge_classes.ends.tolist()] == pairs
        for i, node_id in enumerate(node_classes.node_ids):
            labels = [lab for pair, lab in zip(pairs, expected) if node_id in pair]
            counts = [labels.count(ATTRS[0]), labels.count(ATTRS[1]), labels.count("mixed")]
            proportions = tuple(node_classes.proportions[i])
            if not labels:
                assert (label(node_classes, i), proportions) == ("unclassified", (0.0, 0.0, 0.0))
                continue
            assert proportions == tuple(c / len(labels) for c in counts)
            best = max(counts)
            assert label(node_classes, i) == ("mixed" if counts[2] == best
                                              else ATTRS[0] if counts[0] == best else ATTRS[1])

    def test_requires_contributions(self):
        net = toy_network(("a", "b"), [("a", "b")], attribute_names=("x",))
        with pytest.raises(MissingContribution):
            classify_network(net, 0.25)


class TestSimplexCoords:
    def test_corners(self):
        assert simplex_xy((1.0, 0.0, 0.0)) == (0.0, 0.0)
        assert simplex_xy((0.0, 1.0, 0.0)) == (1.0, 0.0)
        x, y = simplex_xy((0.0, 0.0, 1.0))
        assert (x, y) == pytest.approx((0.5, np.sqrt(3) / 2))
