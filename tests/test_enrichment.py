import json
import math
from fractions import Fraction

import numpy as np
import pytest
from _oracles import exact_hypergeom_upper, reference_enrichment
from hypothesis import given, settings
from hypothesis import strategies as st

from macnet.cli import main
from macnet.enrichment import (
    GeneSetCollection,
    _upper_tails,
    enrich,
    load_gmt,
    parse_gmt,
)
from macnet.errors import EmptyInput, InvalidCounts, SchemaMismatch
from macnet.inference import bh_fdr


def assert_reports_equal(a, b):
    """Every label tuple and grid array of two enrichment reports agrees."""
    assert (a.class_labels, a.set_names) == (b.class_labels, b.set_names)
    for field in ("class_size", "set_size", "overlap", "p", "q", "enriched"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def hypergeom_upper(overlap, class_size, set_size, universe):
    """One test's tail through the batched ``_upper_tails``."""
    return float(_upper_tails([overlap], [class_size], [set_size], universe)[0])


class TestHypergeomUpper:
    def test_zero_overlap(self):
        assert hypergeom_upper(0, 5, 4, 10) == 1.0

    def test_worked_example(self):
        value = hypergeom_upper(4, 5, 4, 10)
        assert value == pytest.approx(6 / 252, rel=1e-12)

    def test_complete_overlap_extreme(self):
        for universe in (12, 20, 30):
            class_size = 4
            value = hypergeom_upper(class_size, class_size, class_size, universe)
            expected = Fraction(1, math.comb(universe, class_size))
            assert value == pytest.approx(float(expected), rel=1e-12)

    def test_enumeration_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            universe = int(rng.integers(2, 31))
            set_size = int(rng.integers(1, universe + 1))
            class_size = int(rng.integers(1, universe + 1))
            overlap = int(rng.integers(0, min(set_size, class_size) + 1))
            value = hypergeom_upper(overlap, class_size, set_size, universe)
            expected = float(exact_hypergeom_upper(overlap, class_size, set_size, universe))
            assert value == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_monotone_in_overlap(self):
        previous = 1.1
        for overlap in range(0, 8):
            value = hypergeom_upper(overlap, 10, 8, 40)
            assert value <= previous + 1e-15
            previous = value

    def test_point_masses_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            universe = int(rng.integers(2, 61))
            set_size = int(rng.integers(1, universe + 1))
            class_size = int(rng.integers(1, universe + 1))
            total = 0.0
            for t in range(0, min(set_size, class_size) + 1):
                upper = hypergeom_upper(t, class_size, set_size, universe)
                nxt = (
                    hypergeom_upper(t + 1, class_size, set_size, universe)
                    if t + 1 <= min(set_size, class_size)
                    else 0.0
                )
                total += upper - nxt
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_universe_stability(self):
        value = hypergeom_upper(12, 35, 60, 5017)
        assert 0.0 < value < 1e-10

    def test_invalid_counts(self):
        with pytest.raises(InvalidCounts):
            hypergeom_upper(6, 5, 4, 10)
        with pytest.raises(InvalidCounts):
            hypergeom_upper(1, 11, 4, 10)


GMT_TEXT = """pathway_a\tfirst pathway\tg1\tg2\tg3
pathway_b\tsecond pathway\tg2\tg4
pathway_c\tthird pathway\tg5\tg6\tg7\tg8
"""


class TestGmtParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sets.gmt"
        path.write_text(GMT_TEXT, encoding="utf-8")
        gsc = load_gmt(path, universe_size=100)
        assert set(gsc.sets) == {"pathway_a", "pathway_b", "pathway_c"}
        assert gsc.sets["pathway_b"] == {"g2", "g4"}
        assert gsc.descriptions["pathway_a"] == "first pathway"

    def test_rejects_short_lines(self):
        with pytest.raises(SchemaMismatch):
            parse_gmt(["only_name\tdescription"])

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaMismatch):
            parse_gmt(["s\td\tg1", "s\td\tg2"])

    @pytest.mark.parametrize("space", [" ", "\x1c", "\xa0", "\u2003", "\r"])
    def test_members_stripped_of_any_whitespace(self, space):
        lines = [f"s\td\tg1\t{space}g2{space}\t{space}\tg3", "t\td\tg1\tg4\t", "u\td\t\tg5"]
        sets, _ = parse_gmt(lines)
        assert sets == {"s": {"g1", "g2", "g3"}, "t": {"g1", "g4"}, "u": {"g5"}}

    def test_spaced_description_leaves_members_alone(self):
        plain = ["s\td\tg1\tg2", "t\td\tg3"]
        spaced = ["s\tfirst pathway\tg1\tg2", "t\t second one \tg3"]
        assert parse_gmt(spaced)[0] == parse_gmt(plain)[0]
        sets, descriptions = parse_gmt(["s\tfirst pathway\tg1\t g2 "])
        assert sets == {"s": {"g1", "g2"}} and descriptions == {"s": "first pathway"}

    def test_members_deduplicated(self):
        gsc = GeneSetCollection(universe_size=10, sets={"s": ["g1", "g1", "g2"]})
        assert gsc.sets["s"] == frozenset({"g1", "g2"})


class TestEnrich:
    def test_constructed_extreme_enrichment(self):
        members = [f"g{i}" for i in range(10)]
        others = [f"x{i}" for i in range(10)]
        gsc = GeneSetCollection(
            universe_size=100,
            sets={"target": members, "background": members + others},
        )
        classes = {g: "hot" for g in members}
        classes.update({x: "cold" for x in others})
        report = enrich(classes, gsc, gamma=0.05)
        assert report.annotated_nodes == 20
        hot_target = report.class_labels.index("hot"), report.set_names.index("target")
        assert report.overlap[hot_target] == 10
        assert report.p[hot_target] == pytest.approx(
            float(exact_hypergeom_upper(10, 10, 10, 100)), rel=1e-10
        )
        assert report.enriched[hot_target]
        assert report.q[hot_target] <= 0.05

    def test_unmatched_nodes_reported(self):
        gsc = GeneSetCollection(universe_size=50, sets={"s": ["g1", "g2"]})
        report = enrich({"g1": "a", "g2": "a", "zz": "a"}, gsc, gamma=0.05)
        assert report.unmatched_nodes == ("zz",)
        assert report.annotated_nodes == 2

    def test_empty_class_warned_and_skipped(self):
        gsc = GeneSetCollection(universe_size=50, sets={"s": ["g1", "g2"]})
        report = enrich({"g1": "a", "zz": "ghost"}, gsc, gamma=0.05)
        assert "ghost" not in report.class_labels
        assert any("ghost" in w for w in report.warnings)

    def test_exclusion_filter(self):
        gsc = GeneSetCollection(
            universe_size=50, sets={"CANCER_PATH": ["g1"], "SIGNALING": ["g1", "g2"]}
        )
        report = enrich({"g1": "a", "g2": "a"}, gsc, gamma=0.05, exclude=["CANCER"])
        assert report.set_names == ("SIGNALING",)

    def test_set_order_independence(self):
        sets_fwd = {"s1": ["g1", "g2"], "s2": ["g2", "g3"], "s3": ["g1", "g3"]}
        sets_rev = dict(reversed(list(sets_fwd.items())))
        classes = {"g1": "a", "g2": "a", "g3": "b"}
        fwd = enrich(classes, GeneSetCollection(30, sets_fwd), gamma=0.1)
        rev = enrich(classes, GeneSetCollection(30, sets_rev), gamma=0.1)
        assert_reports_equal(fwd, rev)

    def test_unclassified_skipped(self):
        gsc = GeneSetCollection(universe_size=50, sets={"s": ["g1", "g2"]})
        report = enrich({"g1": "a", "g2": "unclassified"}, gsc, gamma=0.05)
        assert report.class_labels == ("a",)

    def test_empty_sets_rejected(self):
        with pytest.raises(EmptyInput):
            GeneSetCollection(universe_size=10, sets={})

    @pytest.mark.parametrize("universe", [0, -3])
    def test_universe_below_one_rejected(self, universe):
        with pytest.raises(InvalidCounts, match=f"universe size must be positive, got {universe}"):
            GeneSetCollection(universe_size=universe, sets={"s": ["g1"]})

    def test_non_string_members_converted_with_str(self):
        gsc = GeneSetCollection(universe_size=10, sets={7: [1, "g2", 1.5], "t": ["g2"]})
        assert gsc.sets == {"7": frozenset({"1", "g2", "1.5"}), "t": frozenset({"g2"})}
        assert gsc.annotated() == frozenset({"1", "g2", "1.5"})
        report = enrich({"1": "a", "g2": "a"}, gsc, gamma=0.05)
        assert report.set_names == ("7", "t") and report.overlap.tolist() == [[2, 1]]


class TestUpperTails:
    """The batched tail routine every enrichment p-value comes from."""

    def test_matches_exact_enumeration(self):
        rng = np.random.default_rng(29)
        universes = rng.integers(1, 31, size=1000)
        for universe in np.unique(universes):
            universe = int(universe)
            count = int(np.sum(universes == universe))
            set_size = rng.integers(0, universe + 1, size=count)
            class_size = rng.integers(0, universe + 1, size=count)
            overlap = rng.integers(0, np.minimum(set_size, class_size) + 1)
            values = _upper_tails(overlap, class_size, set_size, universe)
            expected = [float(exact_hypergeom_upper(int(o), int(c), int(s), universe))
                        for o, c, s in zip(overlap, class_size, set_size)]
            np.testing.assert_allclose(values, expected, rtol=1e-10, atol=1e-300)

    def test_large_universe_matches_scipy(self):
        from scipy.stats import hypergeom

        rng = np.random.default_rng(31)
        universe = 5017
        set_size = rng.integers(1, 400, size=300)
        class_size = rng.integers(1, 2000, size=300)
        overlap = rng.integers(1, np.minimum(set_size, class_size) + 1)
        values = _upper_tails(overlap, class_size, set_size, universe)
        expected = hypergeom.sf(overlap - 1, universe, set_size, class_size)
        np.testing.assert_allclose(values, expected, rtol=1e-9, atol=1e-300)

    def test_edge_cases(self):
        # overlap 0; c = U and s = U (X is certain); overlap below the least
        # possible X = c - (U - s), so the range starts above it and p is 1
        values = _upper_tails([0, 3, 4, 2], [5, 10, 4, 5], [4, 3, 10, 8], 10)
        assert values.tolist() == [1.0, 1.0, 1.0, pytest.approx(1.0, rel=1e-14)]
        assert values.max() <= 1.0
        # the lower bound c - (U - s) cuts the range short of overlap 1
        assert _upper_tails([1], [9], [3], 10)[0] == pytest.approx(
            float(exact_hypergeom_upper(1, 9, 3, 10)), rel=1e-12)
        # a single-point range at the top of the support
        assert _upper_tails([3], [5], [3], 10)[0] == pytest.approx(
            float(exact_hypergeom_upper(3, 5, 3, 10)), rel=1e-12)
        empty = _upper_tails([], [], [], 10)
        assert empty.shape == (0,) and empty.dtype == float
        assert _upper_tails([], 3, [], 10).shape == (0,)

    @staticmethod
    def full_range_tail(overlap, class_size, set_size, universe):
        """One test's log-space sum over every term of its range, added left to right,
        the arithmetic ``_upper_tails`` does before it shares and trims terms."""
        if overlap == 0:
            return 1.0
        log_fact = [math.lgamma(m + 1) for m in range(universe + 1)]
        c, s, U = class_size, set_size, universe
        terms = [(log_fact[s] - log_fact[t] - log_fact[s - t])
                 + (log_fact[U - s] - log_fact[c - t] - log_fact[U - s - c + t])
                 - (log_fact[U] - log_fact[c] - log_fact[U - c])
                 for t in range(max(overlap, c - (U - s)), min(c, s) + 1)]
        peak = max(terms)
        total = 0.0
        for term in terms:
            total += float(np.exp(term - peak))
        return min(1.0, float(np.exp(peak + np.log(total))))

    @pytest.mark.parametrize("universe", [12, 300, 5017])
    def test_shared_and_trimmed_terms_give_the_full_sum(self, universe):
        # tests share a (class size, set size) block and stop e^40 below their peak;
        # that must leave every p bit for bit as the full left-to-right sum
        rng = np.random.default_rng(universe)
        class_size = rng.choice(rng.integers(1, universe + 1, size=4), size=150)
        set_size = rng.choice(rng.integers(1, universe + 1, size=20), size=150)
        overlap = rng.integers(0, np.minimum(set_size, class_size) + 1)
        values = _upper_tails(overlap, class_size, set_size, universe)
        expected = [self.full_range_tail(int(o), int(c), int(s), universe)
                    for o, c, s in zip(overlap, class_size, set_size)]
        assert values.tolist() == expected

    @pytest.mark.parametrize("args", [
        ([-1, 1], [3, 3], [2, 2], 10),
        ([1, 1], [3, -3], [2, 2], 10),
        ([1, 1], [3, 3], [2, 2.5], 10),
        ([1, 1], [11, 3], [2, 2], 10),
        ([1, 1], [3, 3], [2, 11], 10),
        ([1, 4], [3, 3], [2, 5], 10),
        ([1, float("nan")], [3, 3], [2, 2], 10),
        ([1], [3], [2], -1),
    ])
    def test_invalid_counts_raise(self, args):
        with pytest.raises(InvalidCounts):
            _upper_tails(*args)


class TestEnrichBatched:
    def test_class_larger_than_universe_raises(self):
        # the two sets fit the universe, but together they annotate six nodes; the
        # collection refuses them before any class can outgrow the universe
        with pytest.raises(InvalidCounts):
            gsc = GeneSetCollection(universe_size=4, sets={"s1": ["g1", "g2", "g3"],
                                                           "s2": ["g4", "g5", "g6"]})
            classes = {f"g{i}": "a" for i in range(1, 7)}
            enrich(classes, gsc, gamma=0.05)

    def test_blank_exclusion_tokens_ignored(self):
        gsc = GeneSetCollection(
            universe_size=50, sets={"CANCER_PATH": ["g1"], "SIGNALING": ["g1", "g2"]}
        )
        classes = {"g1": "a", "g2": "a"}
        plain = enrich(classes, gsc, gamma=0.05, exclude=["CANCER"])
        padded = enrich(classes, gsc, gamma=0.05, exclude=["CANCER", "", "  "])
        assert_reports_equal(padded, plain)
        assert_reports_equal(enrich(classes, gsc, gamma=0.05, exclude=[""]),
                             enrich(classes, gsc, gamma=0.05))

    def test_cli_trailing_comma_in_exclude(self, tmp_path):
        (tmp_path / "node_classes.csv").write_text(
            "node_id,label\ng1,protein\ng2,protein\ng3,gene\ng4,gene\n")
        (tmp_path / "sets.gmt").write_text(
            "CANCER_PATH\tdesc\tg1\tg2\nSIGNALING\tdesc\tg1\tg2\tg3\nOTHER\tdesc\tg3\tg4\n")
        outputs = []
        for exclude in ("CANCER", "CANCER,"):
            out = tmp_path / exclude.replace(",", "_comma")
            assert main(["enrich", str(tmp_path / "node_classes.csv"), str(tmp_path / "sets.gmt"),
                         "--universe", "50", "--exclude", exclude, "--out", str(out)]) == 0
            outputs.append((out / "enrichment.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 1 + 2 * 2


class TestUniverseCoversAnnotation:
    SETS = {"A": ["a", "b", "c"], "B": ["c", "d", "e"]}

    def test_union_of_sets_larger_than_universe(self):
        with pytest.raises(InvalidCounts, match="annotate 5 identifiers.*universe size 4"):
            GeneSetCollection(4, self.SETS)
        gsc = GeneSetCollection(5, self.SETS)
        assert gsc.annotated() == frozenset("abcde")
        assert gsc.annotated() is gsc.annotated()

    def test_cli_union_larger_than_universe(self, tmp_path, capsys):
        (tmp_path / "node_classes.csv").write_text("node_id,label\na,protein\nd,gene\n")
        (tmp_path / "sets.gmt").write_text("A\tdesc\ta\tb\tc\nB\tdesc\tc\td\te\n")
        code = main(["enrich", str(tmp_path / "node_classes.csv"), str(tmp_path / "sets.gmt"),
                     "--universe", "4", "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "InvalidCounts"
        assert "5 identifiers" in err["message"] and "universe size 4" in err["message"]
        assert not (tmp_path / "out" / "enrichment.csv").exists()


IDENTIFIERS = [f"g{i}" for i in range(10)]


@st.composite
def enrichment_cases(draw):
    """GMT lines with repeated, whitespace-padded and blank member cells, node classes
    that include unclassified nodes and nodes in no set, exclude tokens (some blank)
    and a universe that holds every identifier."""
    names = draw(st.lists(st.sampled_from(["CANCER_A", "SIG_B", "PATH_C", "MOD_D", "E_CANCER",
                                           "F", "G_SIG"]), min_size=1, max_size=6, unique=True))
    cell = st.tuples(st.sampled_from(["", " ", "\u00a0 "]), st.sampled_from(IDENTIFIERS + [""]),
                     st.sampled_from(["", " ", "  "])).map("".join)
    lines = []
    for name in names:
        cells = [draw(st.sampled_from(IDENTIFIERS))] + draw(st.lists(cell, max_size=12))
        cells = draw(st.permutations(cells))
        lines.append("\t".join([draw(st.sampled_from([name, f" {name} "])), "desc", *cells]))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  "])))
    classes = draw(st.dictionaries(st.sampled_from(IDENTIFIERS + ["u0", "u1", "u2"]),
                                   st.sampled_from(["protein", "gene", "mixed", "unclassified"]),
                                   max_size=13))
    exclude = draw(st.lists(st.sampled_from(["CANCER", "SIG", "_", "", "  "]), max_size=3))
    universe = draw(st.integers(len(IDENTIFIERS), 60))
    return lines, classes, exclude, universe


@settings(max_examples=300, deadline=None)
@given(case=enrichment_cases())
def test_enrich_matches_plain_set_reference(case):
    lines, classes, exclude, universe = case
    report = enrich(classes, GeneSetCollection(universe, *parse_gmt(lines)), 0.1, exclude=exclude)
    expected = reference_enrichment(classes, lines, exclude)
    overlap = report.overlap.tolist()
    rows = [(label, name, overlap[i][j], class_size, set_size)
            for i, (label, class_size) in enumerate(zip(report.class_labels,
                                                        report.class_size.tolist()))
            for j, (name, set_size) in enumerate(zip(report.set_names, report.set_size.tolist()))]
    assert rows == expected
    assert len(report) == len(expected)
    p = report.p.ravel()
    exact = [float(exact_hypergeom_upper(o, c, s, universe)) for _, _, o, c, s in expected]
    np.testing.assert_allclose(p, exact, rtol=1e-12, atol=0)
    rejected, q = bh_fdr(p, 0.1)
    assert report.q.ravel().tolist() == q.tolist()
    assert report.enriched.ravel().tolist() == [x in rejected for x in range(len(p))]
