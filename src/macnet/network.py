"""Whole-network inference over all node pairs plus graph summary statistics.

``infer_network`` tests every unordered node pair with the chosen
similarity measure, applies false-discovery-rate control across the pair
family, and returns the declared edges together with per-pair diagnostics.
The remaining functions compute the usual summaries of the resulting
undirected graph: degrees, clustering coefficients, normalized betweenness,
connected components, and Jaccard overlap between edge sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import inference, numkernel, similarity
from .errors import (
    DegenerateCorrelation,
    DegenerateR,
    InsufficientSamples,
    LengthMismatch,
    NodeSetMismatch,
    NonFiniteInput,
    OutOfDomain,
    UsageError,
    ZeroVariance,
)

METHODS = ("pearson", "max", "min", "cca")

#: cca's per-pair homogeneity check is reported against this level
HOMOGENEITY_ALPHA = 0.05

#: node pairs per row tile, at most: a tile takes PAIR_CHUNK // (N_v - 1) rows of the
#: pair triangle, one row at least, so working memory is O(N_v k n + max(PAIR_CHUNK, N_v) k^2)
PAIR_CHUNK = 2048

#: betweenness sources walked per batched step; working memory is O(SOURCE_CHUNK N_v)
SOURCE_CHUNK = 64


@dataclass(frozen=True, eq=False)
class AttributeDataset:
    """Measurements for every node: N_v nodes x K attributes x n samples."""

    node_ids: tuple
    attribute_names: tuple
    samples: np.ndarray

    def __post_init__(self):
        node_ids = tuple(str(v) for v in self.node_ids)
        attribute_names = tuple(str(a) for a in self.attribute_names)
        samples = np.asarray(self.samples, dtype=float)
        if not attribute_names:
            raise LengthMismatch("attribute list is empty")
        if len(set(attribute_names)) != len(attribute_names):
            raise LengthMismatch("attribute names are not unique")
        if samples.ndim != 3:
            raise LengthMismatch(f"samples must be 3-d (nodes, attributes, samples), got {samples.shape}")
        if samples.shape[0] != len(node_ids) or samples.shape[1] != len(attribute_names):
            raise LengthMismatch("samples array does not match node/attribute counts")
        if len(set(node_ids)) != len(node_ids):
            raise LengthMismatch("node ids are not unique")
        if len(node_ids) < 2:
            raise InsufficientSamples("need at least 2 nodes")
        if samples.shape[2] < 3:
            raise InsufficientSamples("need at least 3 samples per node")
        bad = np.argwhere(~np.isfinite(samples))
        if bad.size:
            vi, ai, _ = bad[0]
            raise NonFiniteInput(f"node {node_ids[vi]!r} attribute {attribute_names[ai]!r} "
                                 f"has a non-finite sample")
        object.__setattr__(self, "node_ids", node_ids)
        object.__setattr__(self, "attribute_names", attribute_names)
        object.__setattr__(self, "samples", samples)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[2]

    @property
    def k(self) -> int:
        return len(self.attribute_names)

    def select(self, names) -> "AttributeDataset":
        """The dataset of the named attributes only, in the given order; each name
        at most once, and at least one."""
        indices = []
        for name in names:
            if name not in self.attribute_names:
                raise LengthMismatch(f"unknown attribute {name!r}")
            index = self.attribute_names.index(name)
            if index in indices:
                raise UsageError(f"attribute {name!r} is selected twice")
            indices.append(index)
        return AttributeDataset(self.node_ids, tuple(self.attribute_names[i] for i in indices),
                                self.samples[:, indices, :])


def _pair_keys(ends: np.ndarray, n: int) -> np.ndarray:
    """Each of the (m, 2) ``ends``' unordered pair as one integer key, min * n + max."""
    return np.minimum(*ends.T) * n + np.maximum(*ends.T)  # not ends.min(axis=1): 10x slower


@dataclass(frozen=True, eq=False)
class InferredNetwork:
    """Declared edges, one row per edge, plus the diagnostics needed to audit the run.

    ``ends`` (m, 2) holds each edge's endpoint indices into ``node_ids``, and the edges
    form a simple undirected graph: every end lies in [0, N_v), no edge is a self-loop,
    and no unordered pair appears twice (``NodeSetMismatch`` names the first edge that
    breaks the rule).  ``similarity``, ``statistic``, ``p`` and ``q`` are float64
    columns.  Only cca edges have a df (k^2, written by ``io.write_edges_csv``) and a
    contribution vector: ``contrib`` is (m, k) for cca and None for pearson, max and min.
    """

    node_ids: tuple
    attribute_names: tuple
    method: str
    gamma: float
    n_samples: int
    ends: np.ndarray
    similarity: np.ndarray
    statistic: np.ndarray
    p: np.ndarray
    q: np.ndarray
    contrib: Optional[np.ndarray]
    tested_pairs: int = 0
    singular_pairs: tuple = ()
    homogeneity_reject_fraction: Optional[float] = None
    pvalue_mode: str = "formula"

    def __post_init__(self):
        bad, n = self.first_non_simple_edge(self.ends, self.n_nodes), self.n_nodes
        if bad is not None:
            x, first = bad
            ends = self.ends[x].tolist()
            fault = (f"has an end outside [0, {n})" if not 0 <= min(ends) <= max(ends) < n
                     else "is a self-loop" if ends[0] == ends[1]
                     else f"repeats the node pair of edge {first}")
            ids = tuple(self.node_ids[v] if 0 <= v < n else v for v in ends)
            raise NodeSetMismatch(f"edge {x} {ids} {fault}")

    @staticmethod
    def first_non_simple_edge(ends: np.ndarray, n_nodes: int):
        """The row of the first of the (m, 2) ``ends`` that breaks the simple-graph rule over
        ``n_nodes`` nodes and the first row with its key, min * n_nodes + max (an earlier
        row only for a repeat or an end out of range), or None."""
        _, first, pair = np.unique(_pair_keys(ends, n_nodes), return_index=True, return_inverse=True)
        out, first = (ends < 0) | (ends >= n_nodes), first[pair]
        bad = out[:, 0] | out[:, 1] | (ends[:, 0] == ends[:, 1]) | (first < np.arange(len(ends)))
        if bad.any():
            x = int(np.argmax(bad))
            return x, int(first[x])

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.ends)

    @cached_property
    def adjacency_matrix(self):
        """Symmetric 0/1 adjacency in node order, as a ``scipy.sparse`` CSR matrix."""
        from scipy.sparse import csr_matrix

        rows, cols = np.concatenate([self.ends, self.ends[:, ::-1]]).T
        return csr_matrix((np.ones(rows.size), (rows, cols)), shape=(self.n_nodes,) * 2)

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Connected-component label per node: the smallest node index in its component,
        by min-label hooking and pointer jumping (Shiloach & Vishkin 1982) until no edge
        joins two labels."""
        adj = self.adjacency_matrix.tocoo()
        label = np.arange(self.n_nodes)
        while True:
            hooked = label.copy()
            np.minimum.at(hooked, label[adj.row], label[adj.col])
            while not np.array_equal(hooked[hooked], hooked):
                hooked = hooked[hooked]
            if np.array_equal(hooked, label):
                return label
            label = hooked


def _check_preconditions(data: AttributeDataset, method: str, pvalue_mode: str):
    k = data.k
    n = data.n_samples
    if method not in METHODS:
        raise UsageError(f"method must be one of {METHODS}, got {method!r}")
    if pvalue_mode == "exact" and method not in ("max", "min"):
        raise UsageError(f"pvalue_mode 'exact' applies to methods 'max' and 'min' only, "
                         f"not {method!r}")
    if method == "pearson" and k != 1:
        raise UsageError(f"method 'pearson' needs exactly 1 selected attribute, got {k}")
    if method in ("max", "min") and k != 2:
        raise UsageError(f"method {method!r} needs exactly 2 selected attributes, got {k}")
    if method == "cca":
        inference._require_bartlett_n(n, k)
    else:
        inference._require_fisher_n(n)
    bad = np.argwhere(np.ptp(data.samples, axis=2) == 0.0)
    if bad.size:
        vi, ai = bad[0]
        raise ZeroVariance(
            f"node {data.node_ids[vi]!r} attribute "
            f"{data.attribute_names[ai]!r} is constant",
            index=int(ai),
        )
    # a correlation divides by the root of the product of two attributes' sums of squared
    # deviations, which over- or underflows unless each sum lies within the square root
    # of float64's normal range
    with np.errstate(over="ignore"):
        squares = data.samples.var(axis=2) * n
    low, high = np.sqrt([np.finfo(float).tiny, np.finfo(float).max])
    bad = np.argwhere(~((squares >= low) & (squares <= high)))
    if bad.size:
        vi, ai = bad[0]
        raise NonFiniteInput(
            f"node {data.node_ids[vi]!r} attribute {data.attribute_names[ai]!r}: its sum of "
            f"squared deviations, {squares[vi, ai]:.3g}, lies outside [{low:.3g}, {high:.3g}], "
            f"where its correlations are representable; rescale the attribute"
        )


class _NodeFacts:
    """Per-node data, computed once: centred rows (k-by-n), Gram and correlation
    blocks, and for cca the homogeneity test's covariance block facts and each
    correlation block's inverse root.  cca raises ``DegenerateR`` naming the first
    node whose correlation block fails the PD rule."""

    def __init__(self, data: AttributeDataset, method: str):
        self.k, self.n = data.k, data.n_samples
        # stored attribute-major, (k, N_v, n), so each attribute's rows of the later nodes
        # are one contiguous block for the tile's einsum: 10-20% faster in infer at N_v=120
        self.centred = np.empty((self.k, data.n_nodes, self.n)).transpose(1, 0, 2)
        np.subtract(data.samples, data.samples.mean(axis=2, keepdims=True), out=self.centred)
        self._sq = np.einsum("van,van->va", self.centred, self.centred)
        self.gram = np.einsum("van,vbn->vab", self.centred, self.centred)
        self.sigma = self._correlation(self.gram, self._sq, self._sq)
        self.sigma[:, np.arange(self.k), np.arange(self.k)] = 1.0
        if method == "cca":
            self.cov = inference.covariance_block_facts(self.gram / self.n)
            values, vectors = np.linalg.eigh(self.sigma)
            bad = np.flatnonzero(~numkernel.pd_from_eigenvalues(values))
            if bad.size:
                raise DegenerateR(
                    f"node {data.node_ids[bad[0]]!r}: the correlation matrix of its attributes "
                    f"is singular (smallest eigenvalue {values[bad[0], 0]:.3g}), so cca has no "
                    f"canonical roots for its pairs; drop or combine the collinear attributes")
            self.inv_sqrt = numkernel.inv_sqrt_from_eigh(values, vectors)

    @staticmethod
    def _correlation(gram, sq_i, sq_j):
        return np.clip(gram / np.sqrt(sq_i[:, :, None] * sq_j[:, None, :]), -1.0, 1.0)

    def tile(self, rows):
        """The pairs (i, j > i) of the given rows, in row order: their indices, cross
        products and correlation blocks.

        A row's cross products are one sum over the samples of its centred (k, n) block
        against a view of the blocks of every later node, so no node's samples are
        copied per pair.  The sums run in the order an einsum over one pair's blocks
        takes, whatever the tiling; a BLAS product would sum in an order that depends
        on the operand shapes, and so on the tile size."""
        count = len(self._sq)
        gram = np.concatenate([np.einsum("an,pbn->pab", self.centred[r], self.centred[r + 1:])
                               for r in rows])
        i = np.repeat(rows, count - 1 - rows)
        j = np.concatenate([np.arange(r + 1, count) for r in rows])
        return i, j, gram, self._correlation(gram, self._sq[i], self._sq[j])


def _test_cca(facts: _NodeFacts, i, j, sigma_ij, log_lambda):
    """Bartlett's tests of the pairs (i[p], j[p]), given their log Wilks' Lambda from
    the homogeneity step (NaN where it found the pair singular): statistic and p.  A
    singular pair's log Lambda is the sum of log(1 - root^2) over its roots clipped to
    [0, 1] (-inf once a root reaches 1), the roots of
    T = inv_sqrt(S_ii) S_ij inv_sqrt(S_jj) from the node facts and its tile block; no
    other pair's T is formed here."""
    singular = np.flatnonzero(np.isnan(log_lambda))
    if singular.size:
        t = facts.inv_sqrt[i[singular]] @ sigma_ij[singular] @ facts.inv_sqrt[j[singular]]
        squared = np.clip(similarity.squared_roots(t), 0.0, 1.0)
        log_lambda = log_lambda.copy()
        with np.errstate(divide="ignore"):
            log_lambda[singular] = np.log1p(-squared).sum(axis=-1)
    test = inference._bartlett_from_log_lambda(log_lambda, facts.n, facts.k)
    return test.statistic, test.p


def infer_network(data: AttributeDataset, method: str, gamma: float, *,
                  pvalue_mode: str = "formula") -> InferredNetwork:
    """Test all node pairs with one similarity measure and keep FDR-passing edges.

    Edges are declared two-sidedly.  ``pvalue_mode`` selects the analytic
    tail approximation or the exact bivariate-normal tail for the max/min
    methods; the other methods take no exact mode.  Every pair
    is tested.  pearson, max and min raise ``DegenerateCorrelation`` naming the
    first pair with a per-attribute |r| of 1.  cca needs each node's own
    correlation block positive-definite (``DegenerateR`` otherwise); a pair whose
    joint correlation matrix is not takes its roots from its node blocks like every
    other pair, and is reported in ``singular_pairs``.  Only cca runs the homogeneity
    check, whose log Wilks' Lambda its test reads; other methods report no verdict.

    Per-node facts are computed once; the pair triangle is then streamed in tiles
    of whole rows (``PAIR_CHUNK``).  Only cca's homogeneity counts and singular pairs and
    the candidates (p <= gamma, each with what its edge is described from: cca's
    k-by-k correlation block, the others' k per-attribute r) outlive a tile, and
    Benjamini-Hochberg runs over the candidates in a family of all tested
    pairs (``inference.bh_fdr`` with m), so memory does not grow with the number of
    pairs beyond the candidates.  Similarities and cca's contributions are formed once,
    for the declared edges only.  No result depends on the tile size.
    """
    if not (0.0 < gamma < 1.0):
        raise OutOfDomain(f"FDR level must lie in (0, 1), got {gamma}")
    if pvalue_mode not in inference.PVALUE_MODES:
        raise UsageError(f"pvalue_mode must be one of {inference.PVALUE_MODES}, got {pvalue_mode!r}")
    _check_preconditions(data, method, pvalue_mode)

    facts = _NodeFacts(data, method)
    n, ids = facts.n, data.node_ids
    last = data.n_nodes - 1
    verdicts = rejects = 0
    singular_pairs, candidates = [], []
    step = max(1, PAIR_CHUNK // last)
    for start in range(0, last, step):
        i, j, gram, sigma_ij = facts.tile(np.arange(start, min(start + step, last)))
        if method == "cca":
            cov, _, logdet, pd, log_diagonal = facts.cov
            # the test reads no inverse of the second block
            hom, pair_singular, log_lambda = inference.homogeneity_test_from_blocks(
                [fact[i] for fact in facts.cov], (cov[j], None, logdet[j], pd[j], log_diagonal[j]),
                gram / n, n)
            verdicts += hom.p.size
            rejects += int(np.sum(hom.p < HOMOGENEITY_ALPHA))
            statistic, pvalues = _test_cca(facts, i, j, sigma_ij, log_lambda)
            singular_pairs += [(ids[a], ids[b]) for a, b in zip(i[pair_singular], j[pair_singular])]
        else:
            rhos = np.diagonal(sigma_ij, axis1=1, axis2=2)
            unit = np.argwhere(np.abs(rhos) >= 1.0)
            if unit.size:
                pair, a = unit[0]
                raise DegenerateCorrelation(
                    f"nodes {ids[i[pair]]!r} and {ids[j[pair]]!r}: attribute "
                    f"{data.attribute_names[a]!r} has |r| = 1, which leaves no finite Fisher z "
                    f"statistic; drop one of the two copies")
            if method == "pearson":
                statistic, pvalues = inference.correlation_test(rhos[:, 0], n)
            else:
                zs = inference.fisher_z(rhos, n)
                rho_z = inference.fisher_z_correlation(facts.sigma[i], facts.sigma[j], sigma_ij)
                statistic = similarity.aggregate_extreme(zs, method)
                pvalues = inference.extreme_corr_pvalue(*zs.T, rho_z, method, two_sided=True,
                                                        exact=pvalue_mode == "exact")
        keep = np.flatnonzero(pvalues <= gamma)
        carried = sigma_ij if method == "cca" else rhos
        candidates.append((i[keep], j[keep], statistic[keep], pvalues[keep], carried[keep]))

    ends_i, ends_j, statistic, pvalues, carried = (
        np.concatenate(column) for column in zip(*candidates))
    tested = data.n_nodes * last // 2
    rejected, q = inference.bh_fdr(pvalues, gamma, tested)
    # what drives each declared edge, formed for the edges only
    ends = np.stack([ends_i[rejected], ends_j[rejected]], axis=1)
    if method == "cca":
        # an edge's p <= gamma keeps rho_c > 0, so its leading weights are well defined
        sigma_ij, (inv_i, inv_j) = carried[rejected], facts.inv_sqrt[ends.T]
        t = inv_i @ sigma_ij @ inv_j
        sims = np.sqrt(np.clip(similarity.squared_roots(t)[:, 0], 0.0, 1.0))
        _, _, contrib = similarity._leading_weights(t, inv_i, inv_j, sigma_ij)
    else:  # pearson's r (k = 1) or the signed extreme r, and no contribution vector
        extreme = np.min if method == "min" else np.max
        sims, contrib = extreme(carried[rejected], axis=-1), None
    return InferredNetwork(
        node_ids=data.node_ids, attribute_names=data.attribute_names, method=method,
        gamma=gamma, n_samples=data.n_samples,
        ends=ends, similarity=sims, statistic=statistic[rejected], p=pvalues[rejected],
        q=q[rejected], contrib=contrib,
        tested_pairs=tested, singular_pairs=tuple(singular_pairs),
        homogeneity_reject_fraction=rejects / verdicts if verdicts else None,
        pvalue_mode=pvalue_mode)


# --- graph statistics --------------------------------------------------------
#
# Every statistic is derived from ``InferredNetwork.adjacency_matrix``; scipy.sparse is
# imported there and in the functions, not at module level.  That saves little:
# ``macnet.cli`` already imports scipy.special, which loads the same array-API layer,
# so ``import scipy.sparse`` after ``import macnet.cli`` takes only 10-20 ms.

def degree_values(net: InferredNetwork) -> np.ndarray:
    return np.diff(net.adjacency_matrix.indptr).astype(float)


def clustering_values(net: InferredNetwork) -> np.ndarray:
    """Local clustering coefficient per node; nodes of degree < 2 score 0."""
    adj = net.adjacency_matrix
    degrees = np.diff(adj.indptr).astype(float)
    # row v of (A @ A) * A counts each link among v's neighbours twice
    links = np.asarray((adj @ adj).multiply(adj).sum(axis=1), dtype=float).ravel()
    pairs = degrees * (degrees - 1)
    return np.divide(links, pairs, out=np.zeros(net.n_nodes), where=degrees >= 2)


def betweenness_values(net: InferredNetwork) -> np.ndarray:
    """Normalized shortest-path betweenness via Brandes accumulation.

    Shortest-path counts split evenly across equal-length paths; each
    unordered pair is counted once and the total is normalized by
    (N_v - 1)(N_v - 2) / 2.  Sources are taken ``SOURCE_CHUNK`` at a time and
    walked one breadth-first level per sparse product, forwards for the path
    counts and backwards for the dependencies (Brandes 2001; Kepner & Gilbert
    2011), so working memory is O(SOURCE_CHUNK N_v).  Around each product the
    levels are kept by whole-array arithmetic (masks multiply, never select),
    and the forward walk stops once every source has reached its component.
    """
    n = net.n_nodes
    if n < 3:
        return np.zeros(n)
    adj = net.adjacency_matrix
    labels = net.component_labels
    component_size = np.bincount(labels)
    centrality = np.zeros(n)
    for start in range(0, n, SOURCE_CHUNK):
        sources = np.arange(start, min(start + SOURCE_CHUNK, n))
        column = np.arange(sources.size)
        # column s: shortest-path count and depth of every node, seen from source s
        sigma = np.zeros((n, sources.size))
        sigma[sources, column] = 1.0
        unseen = np.ones(sigma.shape, dtype=bool)
        unseen[sources, column] = False
        depth = np.zeros(sigma.shape, dtype=np.int32)
        to_reach = int((component_size[labels[sources]] - 1).sum())
        frontier, level = sigma.copy(), 0
        while to_reach:
            paths = adj @ frontier
            level += 1
            depth += unseen  # an entry stops counting levels once reached
            reached = (paths > 0) & unseen
            unseen ^= reached
            to_reach -= np.count_nonzero(reached)
            frontier = paths * reached
            sigma += frontier
        depth[unseen] = -1
        # sigma >= 1 wherever a share is read, so dividing by the clamp changes no value
        divisor = np.maximum(sigma, 1.0)
        dependency = np.zeros_like(sigma)
        at_level = depth == level
        for d in range(level, 1, -1):
            share = (1.0 + dependency) / divisor * at_level
            at_level = depth == d - 1
            dependency += (adj @ share) * sigma * at_level
        # sources and unreached entries keep dependency 0 (the level-1 step, which
        # would fill in only the sources' own, is skipped)
        centrality += dependency.sum(axis=1)
    norm = (n - 1) * (n - 2) / 2.0
    # halve: the accumulation visits each unordered pair from both endpoints
    return centrality / 2.0 / norm


def largest_connected_component(net: InferredNetwork) -> int:
    """Size of the largest connected component (0 for a 0-node network)."""
    return int(np.bincount(net.component_labels, minlength=1).max())


@dataclass(frozen=True, eq=False)
class NetworkSummary:
    n_nodes: int
    n_edges: int
    density: float
    lcc_size: int
    avg_abs_similarity: float
    degrees: np.ndarray
    avg_degree: float
    clustering: np.ndarray
    avg_clustering: float
    betweenness: np.ndarray
    avg_betweenness: float


def summary(net: InferredNetwork) -> NetworkSummary:
    """All standard summary statistics of the inferred graph.

    The similarity average is the mean absolute similarity over declared
    edges only.
    """
    n = net.n_nodes
    e = net.n_edges
    degrees = degree_values(net)
    clustering = clustering_values(net)
    betweenness = betweenness_values(net)
    density = 2.0 * e / (n * (n - 1)) if n > 1 else 0.0
    avg_abs = float(np.mean(np.abs(net.similarity))) if e else 0.0
    return NetworkSummary(
        n_nodes=n,
        n_edges=e,
        density=density,
        lcc_size=largest_connected_component(net),
        avg_abs_similarity=avg_abs,
        degrees=degrees,
        avg_degree=float(degrees.mean()) if n else 0.0,
        clustering=clustering,
        avg_clustering=float(clustering.mean()) if n else 0.0,
        betweenness=betweenness,
        avg_betweenness=float(betweenness.mean()) if n else 0.0,
    )


def jaccard(net_a: InferredNetwork, net_b: InferredNetwork):
    """Jaccard similarity of two edge sets over identical node sets."""
    if set(net_a.node_ids) != set(net_b.node_ids):
        raise NodeSetMismatch("networks cover different node sets")
    n = net_a.n_nodes
    index = {v: x for x, v in enumerate(net_a.node_ids)}
    in_a = np.array([index[v] for v in net_b.node_ids], dtype=np.intp)
    # each edge as one integer key in net_a's node order, unique since edges form a simple graph
    keys = [_pair_keys(ends, n) for ends in (net_a.ends, in_a[net_b.ends])]
    shared = int(np.intersect1d(*keys, assume_unique=True).size)
    union = keys[0].size + keys[1].size - shared
    if union == 0:
        return 1.0, 0
    return shared / union, shared
