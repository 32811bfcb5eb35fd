"""Edge and node classification by per-attribute contribution.

An edge is dominated by the attribute whose squared standardized weight
reaches 1 - T, otherwise mixed; a node takes the majority class of its
incident edges, with the class proportions doubling as barycentric
coordinates on the unit simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidThreshold, MissingContribution, UnnormalizedContrib

#: default contribution threshold separating dominated from mixed edges
DEFAULT_THRESHOLD = 0.25

MIXED_LABEL = "mixed"
UNCLASSIFIED_LABEL = "unclassified"

#: bins of the contribution histogram over [0, 1]
HISTOGRAM_BINS = 50

_SUM_TOL = 1e-9


def _labels(attribute_names) -> tuple:
    """Class names by code: one per attribute, then mixed, then unclassified."""
    return (*map(str, attribute_names), MIXED_LABEL, UNCLASSIFIED_LABEL)


def _edge_codes(contrib: np.ndarray, t: float, attribute_names: Sequence[str]) -> np.ndarray:
    """Per row of an (m, k) contribution array, the index of the attribute that
    dominates the edge, or k for a mixed edge; the first bad row raises.

    The argmax attribute (the lowest index on a tie) dominates when its share is
    at least 1 - T; with two attributes this is the usual two-cut rule.
    """
    if not (0.0 < t < 1.0):
        raise InvalidThreshold(f"threshold must lie in (0, 1), got {t}")
    k = len(attribute_names)
    if len(contrib) and contrib.shape[1] != k:
        raise UnnormalizedContrib(
            f"contribution vector length {contrib.shape[1]} does not match {k} attributes"
        )
    # written as the negation of the rule, so that a row holding NaN, which fails every
    # comparison, is bad
    bad = ~(np.all(contrib >= -_SUM_TOL, axis=1) & (np.abs(contrib.sum(axis=1) - 1.0) <= _SUM_TOL))
    if bad.any():
        raise UnnormalizedContrib(
            f"contributions must be finite, non-negative and sum to 1: {contrib[np.argmax(bad)]}"
        )
    top = np.argmax(contrib, axis=1)
    return np.where(contrib[np.arange(len(contrib)), top] >= 1.0 - t, top, k)


def _node_codes(counts: np.ndarray):
    """Proportions and class code per row of incident-edge counts in (attribute...,
    mixed) order: ties go to mixed first, then to the lowest attribute index, and a
    node without edges is unclassified."""
    k = counts.shape[1] - 1
    total = counts.sum(axis=1, keepdims=True)
    proportions = np.divide(counts, total, out=np.zeros_like(counts), where=total > 0)
    mixed = proportions[:, k] >= proportions.max(axis=1) - 1e-15
    code = np.where(mixed, k, np.argmax(proportions[:, :k], axis=1))
    return proportions, np.where(total[:, 0] > 0, code, k + 1)


@dataclass(frozen=True, eq=False)
class EdgeClasses:
    """Edge classes of one network as columns.

    Row r is the edge between ``node_ids[ends[r, 0]]`` and ``node_ids[ends[r, 1]]``;
    ``code[r]`` indexes ``labels`` (the attribute names, then mixed and unclassified).
    """

    node_ids: tuple
    ends: np.ndarray
    contrib: np.ndarray
    code: np.ndarray
    labels: tuple
    threshold: float

    def __len__(self) -> int:
        return len(self.code)


@dataclass(frozen=True, eq=False)
class NodeClasses:
    """Node classes of one network as columns.

    ``proportions`` is (N, k + 1) in (attribute..., mixed) order and ``code``
    indexes ``labels`` (the attribute names, then mixed and unclassified).
    """

    node_ids: tuple
    proportions: np.ndarray
    code: np.ndarray
    labels: tuple

    def __len__(self) -> int:
        return len(self.code)


def classify_network(net, t: float = DEFAULT_THRESHOLD):
    """Edge and node classes of a cca network, labelled by the rules of ``_edge_codes``
    and ``_node_codes``.  Only cca edges carry contributions: another method's network
    raises ``MissingContribution`` at its first edge, or leaves every node unclassified."""
    labels = _labels(net.attribute_names)
    if net.method != "cca" and net.n_edges:
        node_i, node_j = (net.node_ids[x] for x in net.ends[0])
        raise MissingContribution(
            f"edge ({node_i}, {node_j}) carries no contribution vector; "
            f"classification needs a canonical-correlation network"
        )
    width = len(net.attribute_names) + 1
    contrib = net.contrib if net.method == "cca" else np.empty((0, width - 1))
    code = _edge_codes(contrib, t, net.attribute_names)
    counts = np.bincount((net.ends * width + code[:, None]).ravel(),
                         minlength=net.n_nodes * width).reshape(net.n_nodes, width)
    proportions, node_code = _node_codes(counts.astype(float))
    return (EdgeClasses(net.node_ids, net.ends, contrib, code, labels, float(t)),
            NodeClasses(net.node_ids, proportions, node_code, labels))


def contribution_histogram(edge_classes: EdgeClasses) -> np.ndarray:
    """Counts of the first attribute's contribution across edges in ``HISTOGRAM_BINS``
    bins over [0, 1]."""
    counts, _ = np.histogram(edge_classes.contrib[:, 0], bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return counts


def simplex_xy(proportions):
    """2-d coordinates of three-class proportion vectors in the unit triangle.

    Defined for two attributes plus the mixed class: attribute 1 at the
    origin, attribute 2 at (1, 0), mixed at the top corner.  Takes one vector
    or an (N, 3) stack, and gives x and y per vector.
    """
    p = np.asarray(proportions, dtype=float)
    if p.shape[-1:] != (3,):
        raise UnnormalizedContrib("triangle coordinates need exactly 3 proportions")
    x = p[..., 1] + 0.5 * p[..., 2]
    y = float(np.sqrt(3.0) / 2.0) * p[..., 2]
    return x, y
