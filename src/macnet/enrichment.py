"""Over-representation of node classes within annotated identifier sets.

Each (class, set) pair gets an upper-tail hypergeometric p-value against a
fixed identifier universe, with step-up FDR control across the whole
family.  Set collections are read from tab-separated GMT-style files.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .classify import UNCLASSIFIED_LABEL
from .errors import EmptyInput, InvalidCounts, SchemaMismatch
from .inference import bh_fdr


@dataclass(frozen=True, eq=False)
class GeneSetCollection:
    """Named identifier sets plus the size of the universe they live in.

    Each set is held once, as the frozenset of its distinct members, and a
    frozenset of strings is kept as it is: members are converted with ``str``
    only when some identifier is not a string already.
    """

    universe_size: int
    sets: dict
    descriptions: dict = field(default_factory=dict)
    _annotated: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        if self.universe_size < 1:
            raise InvalidCounts(f"universe size must be positive, got {self.universe_size}")
        if not self.sets:
            raise EmptyInput("no identifier sets supplied")
        sets = {str(name): frozenset(members) for name, members in self.sets.items()}
        annotated = frozenset().union(*sets.values())
        if not all(type(v) is str for v in annotated):
            sets = {name: frozenset(map(str, members)) for name, members in sets.items()}
            annotated = frozenset().union(*sets.values())
        for name, members in sets.items():
            if not members:
                raise EmptyInput(f"set {name!r} is empty")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "_annotated", annotated)
        if len(annotated) > self.universe_size:
            raise InvalidCounts(f"the sets annotate {len(annotated)} identifiers, more "
                                f"than the universe size {self.universe_size}")

    def annotated(self) -> frozenset:
        """Identifiers appearing in at least one set."""
        return self._annotated


#: whitespace other than the tab that separates cells; a line without it past its
#: description has no member cell to strip
_NON_TAB_SPACE = re.compile(r"[^\S\t]")


def parse_gmt(source) -> tuple:
    """Read ``name<TAB>description<TAB>member...`` lines into (sets, descriptions).

    Each set comes out once, as the frozenset of its distinct members with
    surrounding whitespace stripped; blank member cells are dropped.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
        origin = str(source)
    else:
        lines = list(source)
        origin = "<stream>"
    sets = {}
    descriptions = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise SchemaMismatch(
                f"{origin}:{lineno}: expected name, description and at least one member",
                path=origin,
                line=lineno,
            )
        name = fields[0].strip()
        if not name:
            raise SchemaMismatch(f"{origin}:{lineno}: set name is blank", path=origin, line=lineno)
        if name in sets:
            raise SchemaMismatch(f"{origin}:{lineno}: duplicate set {name!r}", path=origin, line=lineno)
        padded = _NON_TAB_SPACE.search(line, len(fields[0]) + len(fields[1]) + 2)
        members = frozenset(map(str.strip, fields[2:]) if padded else fields[2:])
        if "" in members:
            members -= {""}
        if not members:
            raise SchemaMismatch(f"{origin}:{lineno}: set {name!r} has no members", path=origin, line=lineno)
        sets[name] = members
        descriptions[name] = fields[1].strip()
    if not sets:
        raise EmptyInput(f"{origin}: no sets found")
    return sets, descriptions


def load_gmt(path, universe_size: int) -> GeneSetCollection:
    sets, descriptions = parse_gmt(path)
    return GeneSetCollection(universe_size=universe_size, sets=sets, descriptions=descriptions)


def _counts(name: str, value) -> np.ndarray:
    values = np.asarray(value, dtype=float)
    bad = ~(np.isfinite(values) & (values >= 0) & (values == np.floor(values)))
    if bad.any():
        raise InvalidCounts(f"{name} must be a non-negative integer, got {values[bad].flat[0]:g}")
    return values.astype(np.int64)


def _upper_tails(overlap, class_size, set_size, universe: int) -> np.ndarray:
    """P(X >= overlap) for each test, X counting set members among class_size draws.

    ``overlap``, ``class_size`` and ``set_size`` broadcast against each other
    to one dimension or more; a test with overlap 0 gives 1.  Every other
    test's terms C(s, t) C(U - s, c - t) / C(U, c), t from
    max(overlap, c - (U - s)) to min(c, s), are summed in log space per test,
    so universes of several thousand identifiers stay well inside
    floating-point range.  The terms come from one shared log-factorial table
    and are computed once per distinct (c, s), over the union of its tests'
    ranges; each test gathers its terms from that block into one flat array,
    up to where the rest can no longer change its sum.  Working memory is
    O(sum of the tests' ranges).
    """
    o, c, s = np.broadcast_arrays(_counts("overlap", overlap), _counts("class_size", class_size),
                                  _counts("set_size", set_size))
    U = int(_counts("universe", universe))
    if np.any(c > U) or np.any(s > U):
        raise InvalidCounts("class and set sizes cannot exceed the universe")
    if np.any(o > c) or np.any(o > s):
        raise InvalidCounts("overlap cannot exceed class or set size")
    p = np.ones(o.shape)
    tested = np.nonzero(o)
    if tested[0].size:
        o, c, s = o[tested], c[tested], s[tested]
        # the checks above make every range non-empty and every table index
        # below lie in [0, U]
        lo = np.maximum(o, c - (U - s))
        shapes, block = np.unique(c * (U + 1) + s, return_inverse=True)
        bc, bs = np.divmod(shapes, U + 1)
        block_lo = np.full(shapes.size, U)
        np.minimum.at(block_lo, block, lo)
        block_width = np.minimum(bc, bs) - block_lo + 1
        block_start = np.cumsum(block_width) - block_width
        cc, ss = np.repeat(bc, block_width), np.repeat(bs, block_width)
        t = np.repeat(block_lo - block_start, block_width) + np.arange(cc.size)
        log_fact = np.array([math.lgamma(m + 1) for m in range(U + 1)])
        log_denominator = log_fact[U] - log_fact[cc] - log_fact[U - cc]
        block_terms = ((log_fact[ss] - log_fact[t] - log_fact[ss - t])
                       + (log_fact[U - ss] - log_fact[cc - t] - log_fact[U - ss - cc + t])
                       - log_denominator)
        # each test's sum stops at the last term of its block at or above m - 40, m the
        # least first term of the block's tests: every term after that lies past the
        # test's peak P >= m and below P - 40, so its share e^(term - P) < 2^-53 is lost
        # when added to a running sum that already holds the peak's share of 1
        first = block_start[block] + lo - block_lo[block]
        least_first = np.full(shapes.size, np.inf)
        np.minimum.at(least_first, block, block_terms[first])
        kept = block_terms >= np.repeat(least_first - 40.0, block_width)
        last = np.maximum.reduceat(np.where(kept, np.arange(kept.size), -1), block_start)
        width = last[block] - first + 1
        starts = np.cumsum(width) - width
        test = np.repeat(np.arange(width.size), width)
        terms = block_terms[np.repeat(first - starts, width) + np.arange(test.size)]
        peak = np.maximum.reduceat(terms, starts)
        total = np.bincount(test, weights=np.exp(terms - peak[test]), minlength=width.size)
        p[tested] = np.minimum(1.0, np.exp(peak + np.log(total)))
    return p


@dataclass(frozen=True, eq=False)
class EnrichmentReport:
    """Every tested (class, set) pair as one cell of a classes-by-sets grid.

    ``class_labels`` and ``set_names``, both sorted, label the rows and
    columns, and ``class_size`` and ``set_size`` give their sizes; ``overlap``,
    ``p``, ``q`` and ``enriched`` are (classes, sets) arrays.  Rows of the
    report run in row-major order: class by class, each over every set.
    """

    class_labels: tuple
    set_names: tuple
    class_size: np.ndarray
    set_size: np.ndarray
    overlap: np.ndarray
    p: np.ndarray
    q: np.ndarray
    enriched: np.ndarray
    gamma: float
    annotated_nodes: int
    unmatched_nodes: tuple
    warnings: tuple

    def __len__(self) -> int:
        return self.overlap.size


def enrich(classes: dict, gsc: GeneSetCollection, gamma: float,
           exclude: Optional[Sequence[str]] = None) -> EnrichmentReport:
    """Test every retained (class, set) pair and control FDR across the family.

    ``classes`` maps node id to class label; unclassified nodes form no class.
    Nodes absent from every set are dropped first (and reported); class sizes
    are measured on the retained nodes.  ``exclude`` removes sets whose name
    contains any of the given substrings; empty or blank substrings are
    ignored.  Each set is intersected once with the classified nodes, one
    ``np.bincount`` turns the hits into the (classes, sets) overlap grid, and
    one ``_upper_tails`` call and one BH pass cover the whole grid.
    """
    annotated = gsc.annotated()
    labelled = {}
    retained = 0
    unmatched = []
    for v, label in classes.items():
        v = str(v)
        if v not in annotated:
            unmatched.append(v)
            continue
        retained += 1
        if label != UNCLASSIFIED_LABEL:
            labelled[v] = label

    labels = sorted(set(labelled.values()))
    index = {label: x for x, label in enumerate(labels)}
    warnings = tuple(
        f"class {label!r} has no annotated members; skipped"
        for label in sorted({label for label in classes.values() if label != UNCLASSIFIED_LABEL})
        if label not in index
    )
    node_class = {v: index[label] for v, label in labelled.items()}
    class_size = np.bincount(np.fromiter(node_class.values(), dtype=np.intp, count=len(node_class)),
                             minlength=len(labels))

    excluded = tuple(token for token in exclude or () if token.strip())
    names = sorted(name for name in gsc.sets if not any(token in name for token in excluded))
    members = [gsc.sets[name] for name in names]
    set_size = np.array([len(m) for m in members], dtype=np.int64)
    nodes = frozenset(node_class)
    hit_class, hit_count = [], []
    for m in members:
        hit = m & nodes
        hit_class.extend(map(node_class.__getitem__, hit))
        hit_count.append(len(hit))
    hit_set = np.repeat(np.arange(len(names)), hit_count)
    overlap = np.bincount(np.array(hit_class, dtype=np.intp) * len(names) + hit_set,
                          minlength=len(labels) * len(names)).reshape(len(labels), len(names))

    p = _upper_tails(overlap, class_size[:, None], set_size[None, :], gsc.universe_size)
    rejected, q = bh_fdr(p.ravel(), gamma)
    enriched = np.zeros(p.size, dtype=bool)
    enriched[rejected] = True
    return EnrichmentReport(
        class_labels=tuple(labels),
        set_names=tuple(names),
        class_size=class_size,
        set_size=set_size,
        overlap=overlap,
        p=p,
        q=q.reshape(p.shape),
        enriched=enriched.reshape(p.shape),
        gamma=gamma,
        annotated_nodes=retained,
        unmatched_nodes=tuple(sorted(unmatched)),
        warnings=warnings,
    )
