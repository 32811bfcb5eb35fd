"""Over-representation of node classes within annotated identifier sets.

Each (class, set) pair gets an upper-tail hypergeometric p-value against a
fixed identifier universe, with step-up FDR control across the whole
family.  Set collections are read from tab-separated GMT-style files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .classify import UNCLASSIFIED_LABEL
from .errors import EmptyInput, InvalidCounts, SchemaMismatch
from .inference import bh_fdr


@dataclass(frozen=True, eq=False)
class GeneSetCollection:
    """Named identifier sets plus the size of the universe they live in."""

    universe_size: int
    sets: dict
    descriptions: dict = field(default_factory=dict)
    _annotated: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        if self.universe_size < 1:
            raise InvalidCounts(f"universe size must be positive, got {self.universe_size}")
        if not self.sets:
            raise EmptyInput("no identifier sets supplied")
        normalized = {}
        for name, members in self.sets.items():
            members = frozenset(map(str, members))
            if not members:
                raise EmptyInput(f"set {name!r} is empty")
            normalized[str(name)] = members
        object.__setattr__(self, "sets", normalized)
        object.__setattr__(self, "_annotated", frozenset().union(*normalized.values()))
        if len(self._annotated) > self.universe_size:
            raise InvalidCounts(f"the sets annotate {len(self._annotated)} identifiers, more "
                                f"than the universe size {self.universe_size}")

    def annotated(self) -> frozenset:
        """Identifiers appearing in at least one set."""
        return self._annotated


def parse_gmt(source) -> dict:
    """Read ``name<TAB>description<TAB>member...`` lines into (sets, descriptions)."""
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
        if name in sets:
            raise SchemaMismatch(f"{origin}:{lineno}: duplicate set {name!r}", path=origin, line=lineno)
        members = [m for m in map(str.strip, fields[2:]) if m]
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
    max(overlap, c - (U - s)) to min(c, s), are laid out in one flat array
    from a shared log-factorial table and summed in log space per test, so
    universes of several thousand identifiers stay well inside
    floating-point range.  Working memory is O(sum of the tests' ranges).
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
        width = np.minimum(c, s) - lo + 1
        starts = np.cumsum(width) - width
        test = np.repeat(np.arange(width.size), width)
        t = lo[test] + np.arange(test.size) - starts[test]
        cc, ss = c[test], s[test]
        log_fact = np.array([math.lgamma(m + 1) for m in range(U + 1)])
        log_denominator = log_fact[U] - log_fact[cc] - log_fact[U - cc]
        terms = ((log_fact[ss] - log_fact[t] - log_fact[ss - t])
                 + (log_fact[U - ss] - log_fact[cc - t] - log_fact[U - ss - cc + t])
                 - log_denominator)
        peak = np.maximum.reduceat(terms, starts)
        total = np.bincount(test, weights=np.exp(terms - peak[test]), minlength=width.size)
        p[tested] = np.minimum(1.0, np.exp(peak + np.log(total)))
    return p


def hypergeom_upper(overlap: int, class_size: int, set_size: int, universe: int) -> float:
    """P(X >= overlap) for X counting set members among class_size draws.

    One test through the batched ``_upper_tails``.
    """
    return float(_upper_tails([overlap], [class_size], [set_size], universe)[0])


@dataclass(frozen=True)
class EnrichmentResult:
    class_label: str
    set_name: str
    overlap: int
    class_size: int
    set_size: int
    p: float
    q: float
    enriched: bool


@dataclass(frozen=True, eq=False)
class EnrichmentReport:
    results: tuple
    gamma: float
    annotated_nodes: int
    unmatched_nodes: tuple
    warnings: tuple


def enrich(classes: dict, gsc: GeneSetCollection, gamma: float,
           exclude: Optional[Sequence[str]] = None) -> EnrichmentReport:
    """Test every retained (class, set) pair and control FDR across the family.

    ``classes`` maps node id to class label; unclassified nodes form no class.
    Nodes absent from every set are dropped first (and reported); class sizes
    are measured on the retained nodes.  ``exclude`` removes sets whose name
    contains any of the given substrings; empty or blank substrings are
    ignored.  Each class's tail probabilities come from one ``_upper_tails``
    call over all sets.
    """
    annotated = gsc.annotated()
    retained = {v: label for v, label in classes.items() if str(v) in annotated}
    unmatched = tuple(sorted(str(v) for v in classes if str(v) not in annotated))

    excluded = tuple(token for token in exclude or () if token.strip())
    sets = {
        name: members
        for name, members in gsc.sets.items()
        if not any(token in name for token in excluded)
    }

    warnings = []
    labels = sorted({label for label in retained.values() if label != UNCLASSIFIED_LABEL})
    all_labels = sorted({label for label in classes.values() if label != UNCLASSIFIED_LABEL})
    for label in all_labels:
        if label not in labels:
            warnings.append(f"class {label!r} has no annotated members; skipped")

    names = sorted(sets)
    set_sizes = [len(sets[name]) for name in names]
    rows = []
    for label in labels:
        members = {str(v) for v, lab in retained.items() if lab == label}
        class_size = len(members)
        overlaps = [len(members & sets[name]) for name in names]
        pvalues = _upper_tails(overlaps, class_size, set_sizes, gsc.universe_size).tolist()
        rows.extend((label, name, overlap, class_size, set_size, p)
                    for name, overlap, set_size, p in zip(names, overlaps, set_sizes, pvalues))

    decision = bh_fdr([row[5] for row in rows], gamma)
    rejected = set(decision.rejected)
    results = tuple(
        EnrichmentResult(
            class_label=label,
            set_name=name,
            overlap=overlap,
            class_size=class_size,
            set_size=set_size,
            p=p,
            q=float(decision.qvalues[idx]),
            enriched=idx in rejected,
        )
        for idx, (label, name, overlap, class_size, set_size, p) in enumerate(rows)
    )
    return EnrichmentReport(
        results=results,
        gamma=gamma,
        annotated_nodes=len(retained),
        unmatched_nodes=unmatched,
        warnings=tuple(warnings),
    )
