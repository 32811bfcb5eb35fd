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

from .errors import EmptyInput, InvalidCounts, SchemaMismatch
from .inference import bh_fdr


@dataclass(frozen=True, eq=False)
class GeneSetCollection:
    """Named identifier sets plus the size of the universe they live in."""

    universe_size: int
    sets: dict
    descriptions: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.universe_size < 1:
            raise InvalidCounts(f"universe size must be positive, got {self.universe_size}")
        if not self.sets:
            raise EmptyInput("no identifier sets supplied")
        normalized = {}
        for name, members in self.sets.items():
            members = frozenset(str(m) for m in members)
            if not members:
                raise EmptyInput(f"set {name!r} is empty")
            if len(members) > self.universe_size:
                raise InvalidCounts(f"set {name!r} is larger than the universe")
            normalized[str(name)] = members
        object.__setattr__(self, "sets", normalized)

    def annotated(self) -> frozenset:
        """Identifiers appearing in at least one set."""
        out = set()
        for members in self.sets.values():
            out |= members
        return frozenset(out)


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
        members = [m.strip() for m in fields[2:] if m.strip()]
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


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_upper(overlap: int, class_size: int, set_size: int, universe: int) -> float:
    """P(X >= overlap) for X counting set members among class_size draws.

    Summed in log space so universes of several thousand identifiers stay
    well inside floating-point range.
    """
    for name, value in (("overlap", overlap), ("class_size", class_size),
                        ("set_size", set_size), ("universe", universe)):
        if int(value) != value or value < 0:
            raise InvalidCounts(f"{name} must be a non-negative integer, got {value}")
    if class_size > universe or set_size > universe:
        raise InvalidCounts("class and set sizes cannot exceed the universe")
    if overlap > class_size or overlap > set_size:
        raise InvalidCounts("overlap cannot exceed class or set size")
    if overlap == 0:
        return 1.0
    log_denominator = _log_comb(universe, class_size)
    upper = min(class_size, set_size)
    log_terms = []
    for t in range(overlap, upper + 1):
        if class_size - t > universe - set_size:
            continue
        log_terms.append(
            _log_comb(set_size, t)
            + _log_comb(universe - set_size, class_size - t)
            - log_denominator
        )
    if not log_terms:
        return 0.0
    peak = max(log_terms)
    total = peak + math.log(sum(math.exp(term - peak) for term in log_terms))
    return min(1.0, math.exp(total))


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
           exclude: Optional[Sequence[str]] = None,
           skip_labels: Sequence[str] = ("unclassified",)) -> EnrichmentReport:
    """Test every retained (class, set) pair and control FDR across the family.

    ``classes`` maps node id to class label.  Nodes absent from every set
    are dropped first (and reported); class sizes are measured on the
    retained nodes.  ``exclude`` removes sets whose name contains any of the
    given substrings.
    """
    annotated = gsc.annotated()
    retained = {v: label for v, label in classes.items() if str(v) in annotated}
    unmatched = tuple(sorted(str(v) for v in classes if str(v) not in annotated))

    excluded = tuple(exclude or ())
    sets = {
        name: members
        for name, members in gsc.sets.items()
        if not any(token in name for token in excluded)
    }

    warnings = []
    labels = sorted({label for label in retained.values() if label not in skip_labels})
    all_labels = sorted({label for label in classes.values() if label not in skip_labels})
    for label in all_labels:
        if label not in labels:
            warnings.append(f"class {label!r} has no annotated members; skipped")

    rows = []
    for label in labels:
        members = {str(v) for v, lab in retained.items() if lab == label}
        class_size = len(members)
        for name in sorted(sets):
            overlap = len(members & sets[name])
            p = hypergeom_upper(overlap, class_size, len(sets[name]), gsc.universe_size)
            rows.append((label, name, overlap, class_size, len(sets[name]), p))

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
