"""Edge and node classification by per-attribute contribution.

An edge is dominated by the attribute whose squared standardized weight
reaches 1 - T, otherwise mixed; a node takes the majority class of its
incident edges, with the class proportions doubling as barycentric
coordinates on the unit simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidThreshold, MissingContribution, UnnormalizedContrib

#: default contribution threshold separating dominated from mixed edges
DEFAULT_THRESHOLD = 0.25

MIXED_LABEL = "mixed"
UNCLASSIFIED_LABEL = "unclassified"

#: bins of the contribution histogram over [0, 1]
HISTOGRAM_BINS = 50

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class EdgeClass:
    pair: tuple
    contrib: tuple
    label: str
    threshold: float
    dominant_index: Optional[int] = None


@dataclass(frozen=True)
class NodeClass:
    node_id: str
    proportions: tuple
    label: str

    @property
    def simplex_coords(self) -> tuple:
        """Class proportions read as barycentric coordinates."""
        return self.proportions


def classify_edge(pair, contrib, t: float, attribute_names: Sequence[str]) -> EdgeClass:
    """Label an edge as dominated by its strongest attribute or mixed.

    For any number of attributes the rule is: let l* maximize the
    contribution vector; the edge is dominated by l* iff contrib[l*] >= 1-T.
    With two attributes this is the usual two-cut rule on either entry.
    """
    if not (0.0 < t < 1.0):
        raise InvalidThreshold(f"threshold must lie in (0, 1), got {t}")
    values = np.asarray(contrib, dtype=float)
    if values.ndim != 1 or values.size != len(attribute_names):
        raise UnnormalizedContrib(
            f"contribution vector length {values.size} does not match "
            f"{len(attribute_names)} attributes"
        )
    if np.any(values < -_SUM_TOL) or abs(float(values.sum()) - 1.0) > _SUM_TOL:
        raise UnnormalizedContrib(f"contributions must be non-negative and sum to 1: {values}")
    top = int(np.argmax(values))
    if values[top] >= 1.0 - t:
        label = str(attribute_names[top])
        dominant = top
    else:
        label = MIXED_LABEL
        dominant = None
    return EdgeClass(
        pair=(str(pair[0]), str(pair[1])),
        contrib=tuple(float(v) for v in values),
        label=label,
        threshold=float(t),
        dominant_index=dominant,
    )


def classify_node(node_id, incident: Sequence[EdgeClass], attribute_names: Sequence[str]) -> NodeClass:
    """Majority class over incident edges; isolated nodes stay unclassified.

    Proportions are reported in (attribute..., mixed) order.  Ties go to
    mixed first, then to the lowest attribute index.
    """
    k = len(attribute_names)
    if not incident:
        return NodeClass(node_id=str(node_id), proportions=(0.0,) * (k + 1), label=UNCLASSIFIED_LABEL)
    counts = np.zeros(k + 1)
    for edge in incident:
        if edge.label == MIXED_LABEL:
            counts[k] += 1
        else:
            counts[list(attribute_names).index(edge.label)] += 1
    proportions = counts / counts.sum()
    best = float(proportions.max())
    if proportions[k] >= best - 1e-15:
        label = MIXED_LABEL
    else:
        label = str(attribute_names[int(np.argmax(proportions[:k]))])
    return NodeClass(
        node_id=str(node_id),
        proportions=tuple(float(v) for v in proportions),
        label=label,
    )


def classify_network(net, t: float = DEFAULT_THRESHOLD):
    """Edge and node classes for an inferred network carrying contributions."""
    attribute_names = net.attribute_names
    edge_classes = []
    for edge in net.edges:
        if edge.contrib is None:
            raise MissingContribution(
                f"edge ({edge.node_i}, {edge.node_j}) carries no contribution vector; "
                f"classification needs a canonical-correlation network"
            )
        edge_classes.append(classify_edge((edge.node_i, edge.node_j), edge.contrib, t, attribute_names))
    incident = {v: [] for v in net.node_ids}
    for ec in edge_classes:
        incident[ec.pair[0]].append(ec)
        incident[ec.pair[1]].append(ec)
    node_classes = [classify_node(v, incident[v], attribute_names) for v in net.node_ids]
    return edge_classes, node_classes


def contribution_histogram(edge_classes: Sequence[EdgeClass],
                           attribute_index: int = 0) -> np.ndarray:
    """Counts of one attribute's contribution across edges in ``HISTOGRAM_BINS`` bins
    over [0, 1]."""
    values = [ec.contrib[attribute_index] for ec in edge_classes]
    counts, _ = np.histogram(values, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return counts


def simplex_xy(proportions: Sequence[float]):
    """2-d coordinates of a three-class proportion vector in the unit triangle.

    Defined for two attributes plus the mixed class: attribute 1 at the
    origin, attribute 2 at (1, 0), mixed at the top corner.
    """
    p = np.asarray(proportions, dtype=float)
    if p.size != 3:
        raise UnnormalizedContrib("triangle coordinates need exactly 3 proportions")
    x = p[1] + 0.5 * p[2]
    y = float(np.sqrt(3.0) / 2.0) * p[2]
    return float(x), float(y)
