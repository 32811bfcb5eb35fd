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
    InsufficientSamples,
    LengthMismatch,
    NodeSetMismatch,
    OutOfDomain,
    UsageError,
    ZeroVariance,
)

METHODS = ("pearson", "max", "min", "cca")

#: a pair is skipped outright when repairing its estimated joint correlation
#: matrix moves any eigenvalue by more than this
FLOOR_SKIP_DELTA = 0.01
_EIG_FLOOR = 1e-8

#: per-pair homogeneity check is reported against this level
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
    selected: tuple = None

    def __post_init__(self):
        node_ids = tuple(str(v) for v in self.node_ids)
        attribute_names = tuple(str(a) for a in self.attribute_names)
        samples = np.asarray(self.samples, dtype=float)
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
        if np.any(~np.isfinite(samples)):
            raise LengthMismatch("samples contain non-finite values")
        selected = self.selected
        if selected is None:
            selected = tuple(range(len(attribute_names)))
        else:
            selected = tuple(int(i) for i in selected)
            if not selected:
                raise LengthMismatch("attribute selection is empty")
            if any(i < 0 or i >= len(attribute_names) for i in selected):
                raise LengthMismatch(f"attribute selection out of range: {selected}")
        object.__setattr__(self, "node_ids", node_ids)
        object.__setattr__(self, "attribute_names", attribute_names)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "selected", selected)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[2]

    @property
    def k(self) -> int:
        return len(self.selected)

    @property
    def selected_names(self) -> tuple:
        return tuple(self.attribute_names[i] for i in self.selected)

    def select(self, names) -> "AttributeDataset":
        """Restrict the active attribute subset, by name, each name at most once."""
        indices = []
        for name in names:
            if name not in self.attribute_names:
                raise LengthMismatch(f"unknown attribute {name!r}")
            index = self.attribute_names.index(name)
            if index in indices:
                raise UsageError(f"attribute {name!r} is selected twice")
            indices.append(index)
        return AttributeDataset(self.node_ids, self.attribute_names, self.samples, tuple(indices))

    def node_matrix(self, index: int) -> np.ndarray:
        """n-by-k sample block of the selected attributes for one node."""
        return self.samples[index, list(self.selected), :].T


@dataclass(frozen=True)
class SkippedPair:
    node_i: str
    node_j: str
    reason: str


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Declared edges as columns, one row per edge.

    ``ends`` (m, 2) holds each edge's endpoint indices into the network's
    ``node_ids``; ``similarity``, ``statistic``, ``df``, ``p`` and ``q`` are
    float64 columns and ``contrib`` is (m, k).  ``df`` is NaN where a method
    has no degrees of freedom, and a row of NaN contributions means the edge
    carries no contribution vector.
    """

    ends: np.ndarray
    similarity: np.ndarray
    statistic: np.ndarray
    df: np.ndarray
    p: np.ndarray
    q: np.ndarray
    contrib: np.ndarray

    def __len__(self) -> int:
        return len(self.ends)


@dataclass(frozen=True, eq=False)
class InferredNetwork:
    """Declared edges plus the diagnostics needed to audit the run."""

    node_ids: tuple
    attribute_names: tuple
    method: str
    gamma: float
    n_samples: int
    table: EdgeTable
    tested_pairs: int = 0
    skipped: tuple = ()
    floored: tuple = ()
    homogeneity_reject_fraction: Optional[float] = None
    homogeneity_singular_pairs: int = 0
    pvalue_mode: str = "formula"

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.table)

    def edge_pairs(self) -> frozenset:
        return frozenset(frozenset((self.node_ids[a], self.node_ids[b]))
                         for a, b in self.table.ends.tolist())

    def adjacency(self) -> dict:
        adj = {v: set() for v in self.node_ids}
        for a, b in self.table.ends.tolist():
            adj[self.node_ids[a]].add(self.node_ids[b])
            adj[self.node_ids[b]].add(self.node_ids[a])
        return adj

    @cached_property
    def adjacency_matrix(self):
        """Symmetric 0/1 adjacency in node order, as a ``scipy.sparse`` CSR matrix."""
        from scipy.sparse import csr_matrix

        ends = self.table.ends
        rows, cols = np.concatenate([ends, ends[:, ::-1]]).T
        adj = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(self.n_nodes,) * 2)
        adj.data[:] = 1.0  # a pair listed twice is still one edge
        return adj


def _floor_supermatrix(joint: np.ndarray):
    """Repair non-positive-definite joint correlation estimates.

    Floors eigenvalues at a small positive level and restores the unit
    diagonal.  Returns (matrix, floored, max_change), one of each per matrix
    of a stack (..., 2k, 2k); callers skip the pair when max_change exceeds
    ``FLOOR_SKIP_DELTA``.
    """
    values, vectors = np.linalg.eigh(joint)
    clean = numkernel.pd_from_eigenvalues(values)
    floored_values = np.maximum(values, _EIG_FLOOR)
    max_change = np.where(clean, 0.0, np.max(np.abs(floored_values - values), axis=-1))
    repaired = (vectors * floored_values[..., None, :]) @ np.swapaxes(vectors, -1, -2)
    scale = np.sqrt(np.diagonal(repaired, axis1=-2, axis2=-1))
    repaired = repaired / (scale[..., :, None] * scale[..., None, :])
    diag = np.arange(joint.shape[-1])
    repaired[..., diag, diag] = 1.0
    repaired = (repaired + np.swapaxes(repaired, -1, -2)) / 2.0
    return np.where(clean[..., None, None], joint, repaired), ~clean, max_change


def _check_preconditions(data: AttributeDataset, method: str):
    k = data.k
    n = data.n_samples
    if method not in METHODS:
        raise UsageError(f"method must be one of {METHODS}, got {method!r}")
    if method == "pearson" and k != 1:
        raise UsageError(f"method 'pearson' needs exactly 1 selected attribute, got {k}")
    if method in ("max", "min") and k != 2:
        raise UsageError(f"method {method!r} needs exactly 2 selected attributes, got {k}")
    if method in ("pearson", "max", "min") and n < 4:
        raise InsufficientSamples(f"need at least 4 samples, got {n}")
    if method == "cca" and (n <= 2 * k + 2 or n - 1 < k * (2 * k - 1)):
        raise InsufficientSamples(
            f"n={n} too small for cca with {k} attributes: need n > {2 * k + 2} "
            f"and n-1 >= {k * (2 * k - 1)}"
        )
    variances = data.samples[:, list(data.selected), :].var(axis=2)
    bad = np.argwhere(variances <= 0.0)
    if bad.size:
        vi, ai = bad[0]
        raise ZeroVariance(
            f"node {data.node_ids[vi]!r} attribute "
            f"{data.selected_names[ai]!r} is constant",
            index=int(ai),
        )


class _NodeFacts:
    """Per-node data, computed once: samples (n-by-k), centred rows (k-by-n), Gram
    and correlation blocks, the homogeneity test's covariance block facts, and for
    cca each correlation block's PD verdict, (smallest, largest) eigenvalue and
    inverse root (NaN if not PD)."""

    def __init__(self, data: AttributeDataset, method: str):
        selected = data.samples[:, list(data.selected), :]
        self.k, self.n = data.k, data.n_samples
        self.samples = selected.transpose(0, 2, 1)
        self.centred = selected - selected.mean(axis=2, keepdims=True)
        self._sq = np.einsum("van,van->va", self.centred, self.centred)
        self.gram = np.einsum("van,vbn->vab", self.centred, self.centred)
        self.sigma = self._correlation(self.gram, self._sq, self._sq)
        self.sigma[:, np.arange(self.k), np.arange(self.k)] = 1.0
        self.cov = inference.covariance_block_facts(self.gram / self.n)
        if method == "cca":
            values, vectors = np.linalg.eigh(self.sigma)
            self.pd = numkernel.pd_from_eigenvalues(values)
            self.extremes = values[:, [0, -1]]
            self.inv_sqrt = np.full_like(self.sigma, np.nan)
            self.inv_sqrt[self.pd] = numkernel.inv_sqrt_from_eigh(values[self.pd], vectors[self.pd])

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


def _clean_by_roots(rho, extremes_i, extremes_j):
    """Pairs whose joint correlation matrix certainly passes ``pd_from_eigenvalues``'s
    rule, from the leading canonical root rho (NaN: undecided) and each block's
    (smallest, largest) eigenvalue.  With D = blockdiag(S_ii^1/2, S_jj^1/2) the joint
    matrix is D [[I, T], [T', I]] D, whose middle factor has eigenvalues 1 +- rho_i,
    so its eigenvalues lie in [(1 - rho) min lambda_min, (1 + rho) max lambda_max];
    a factor 2 on the rule's tolerance covers rounding."""
    lower = (1.0 - rho) * np.minimum(extremes_i[:, 0], extremes_j[:, 0])
    upper = (1.0 + rho) * np.maximum(extremes_i[:, 1], extremes_j[:, 1])
    return lower > 2.0 * numkernel.PD_TOLERANCE * upper


def _test_cca(facts: _NodeFacts, i, j, sigma_ij, gamma: float):
    """Canonical-correlation tests of the pairs (i[p], j[p]): similarity, statistic
    and p (NaN where skipped), floored flags, repair changes, and a contribution
    vector per pair, NaN unless p <= gamma (BH can reject no other pair).

    T and the roots come first, from the per-node inverse roots; a pair whose roots
    show its joint matrix to be positive-definite (``_clean_by_roots``) needs no
    2k-by-2k decomposition.  Only the other pairs are assembled and checked."""
    k = facts.k
    inv_i, inv_j = facts.inv_sqrt[i], facts.inv_sqrt[j]
    cross = sigma_ij.copy()
    both = facts.pd[i] & facts.pd[j]
    t = np.full_like(cross, np.nan)
    squared = np.full((i.size, k), np.nan)
    t[both] = inv_i[both] @ cross[both] @ inv_j[both]
    squared[both] = similarity.squared_roots(t[both])
    clean = _clean_by_roots(np.sqrt(np.maximum(squared[:, 0], 0.0)),
                            facts.extremes[i], facts.extremes[j])
    floored, change = np.zeros(i.size, dtype=bool), np.zeros(i.size)
    undecided = np.flatnonzero(~clean)
    if undecided.size:
        iu, ju = i[undecided], j[undecided]
        joint = np.block([[facts.sigma[iu], cross[undecided]],
                          [np.swapaxes(cross[undecided], 1, 2), facts.sigma[ju]]])
        joint, floored[undecided], change[undecided] = _floor_supermatrix(joint)
        # pairs that need repair or touch a node without an inverse root are re-estimated
        # from their stacked samples, as the repair magnifies last-bit differences in its input
        own = floored[undecided] | ~both[undecided]
        stacked = np.concatenate([facts.samples[iu[own]], facts.samples[ju[own]]], axis=2)
        joint[own], floored[undecided[own]], change[undecided[own]] = _floor_supermatrix(
            numkernel.corr_matrices(stacked))
        own &= change[undecided] <= FLOOR_SKIP_DELTA
        # a clean or repaired joint matrix is positive-definite, and so are its blocks
        redo = undecided[own]
        inv_i[redo] = numkernel.inv_sqrt_spd_stack(joint[own, :k, :k])
        inv_j[redo] = numkernel.inv_sqrt_spd_stack(joint[own, k:, k:])
        cross[redo] = joint[own, :k, k:]
        t[redo] = inv_i[redo] @ cross[redo] @ inv_j[redo]
        squared[redo] = similarity.squared_roots(t[redo])
    ok = change <= FLOOR_SKIP_DELTA
    roots = np.sqrt(similarity._clamp_squared_roots(squared[ok]))
    test = inference.bartlett_chi2(roots, facts.n, k)
    out = np.full((3, i.size), np.nan)
    out[:, ok] = roots[:, 0], test.statistic, test.p
    # p <= gamma keeps rho_c > 0, so every candidate's weights are well defined
    cand = np.flatnonzero(ok)[test.p <= gamma]
    contrib = np.full((i.size, k), np.nan)
    _, _, contrib[cand] = similarity._leading_weights(t[cand], inv_i[cand], inv_j[cand],
                                                      cross[cand])
    return (*out, floored, change, contrib)


def infer_network(data: AttributeDataset, method: str, gamma: float, *,
                  pvalue_mode: str = "formula") -> InferredNetwork:
    """Test all node pairs with one similarity measure and keep FDR-passing edges.

    Edges are declared two-sidedly.  ``pvalue_mode`` selects the analytic
    tail approximation or the Monte Carlo alternative for the max/min
    methods (the Monte Carlo panel uses a fixed internal seed, so inference
    stays deterministic).  Pairs whose estimated joint correlation matrix
    cannot be repaired are skipped and reported, never silently dropped.

    Per-node facts are computed once; the pair triangle is then streamed in tiles
    of whole rows (``PAIR_CHUNK``).  Only running counts, the skipped and floored
    pairs and the candidates (p <= gamma) outlive a tile, and Benjamini-Hochberg
    runs over the candidates and the count of tested pairs
    (``inference.bh_fdr_candidates``), so memory does not grow with the number of
    pairs beyond the candidates.  No result depends on the tile size.
    """
    if not (0.0 < gamma < 1.0):
        raise OutOfDomain(f"FDR level must lie in (0, 1), got {gamma}")
    if pvalue_mode not in inference.PVALUE_MODES:
        raise UsageError(f"pvalue_mode must be one of {inference.PVALUE_MODES}, got {pvalue_mode!r}")
    _check_preconditions(data, method)

    sampler = None
    if pvalue_mode == "montecarlo" and method in ("max", "min"):
        sampler = inference.ExtremeTailSampler()

    facts = _NodeFacts(data, method)
    n, k, ids = facts.n, facts.k, data.node_ids
    last = data.n_nodes - 1
    tested = verdicts = rejects = singular = 0
    skipped, floored, candidates = [], [], []
    step = max(1, PAIR_CHUNK // last)
    for start in range(0, last, step):
        i, j, gram, sigma_ij = facts.tile(np.arange(start, min(start + step, last)))
        ok, contrib = np.ones(i.size, dtype=bool), np.full((i.size, k), np.nan)
        if method == "pearson":
            sims = sigma_ij[:, 0, 0]
            statistic = inference.fisher_z(sims, n)
            pvalues = np.minimum(1.0, 2.0 * inference.normal_sf(np.abs(statistic)))
        elif method in ("max", "min"):
            rhos = np.diagonal(sigma_ij, axis1=1, axis2=2)
            zs = inference.fisher_z(rhos, n)
            rho_z = inference.fisher_z_correlation(facts.sigma[i], facts.sigma[j], sigma_ij)
            sims = similarity.aggregate_extreme(rhos, method)
            statistic = similarity.aggregate_extreme(zs, method)
            if sampler is None:
                pvalues = inference.extreme_corr_pvalue_two_sided(*zs.T, rho_z, method)
            else:
                pvalues = np.array([
                    inference.extreme_corr_mc_pvalue(a, b, r, method, two_sided=True,
                                                     sampler=sampler)
                    for a, b, r in zip(*zs.T, rho_z)
                ])
        else:
            sims, statistic, pvalues, was_floored, change, contrib = _test_cca(
                facts, i, j, sigma_ij, gamma)
            ok = change <= FLOOR_SKIP_DELTA
            skipped += [
                SkippedPair(ids[i[x]], ids[j[x]],
                            f"joint correlation estimate not positive-definite; repair moved an "
                            f"eigenvalue by {change[x]:.3g}")
                for x in np.flatnonzero(~ok)
            ]
            floored += [(ids[i[x]], ids[j[x]]) for x in np.flatnonzero(was_floored & ok)]
        tested += int(ok.sum())
        if n >= 2 * k + 2:
            hom, pair_singular = inference.homogeneity_test_from_blocks(
                [fact[i] for fact in facts.cov], [fact[j] for fact in facts.cov], gram / n, n)
            verdict_p = hom.p[ok[~pair_singular]]
            verdicts += verdict_p.size
            rejects += int(np.sum(verdict_p < HOMOGENEITY_ALPHA))
            singular += int(np.sum(pair_singular & ok))
        keep = np.flatnonzero(ok & (pvalues <= gamma))
        candidates.append((i[keep], j[keep], sims[keep], statistic[keep], pvalues[keep],
                           contrib[keep]))

    ends_i, ends_j, sims, statistic, pvalues, contrib = (
        np.concatenate(column) for column in zip(*candidates))
    rejected, qvalues = inference.bh_fdr_candidates(pvalues, tested, gamma)
    table = EdgeTable(
        ends=np.stack([ends_i[rejected], ends_j[rejected]], axis=1),
        similarity=sims[rejected],
        statistic=statistic[rejected],
        df=np.full(rejected.size, k * k if method == "cca" else np.nan),
        p=pvalues[rejected],
        q=qvalues,
        contrib=contrib[rejected],
    )
    return InferredNetwork(
        node_ids=data.node_ids,
        attribute_names=data.selected_names,
        method=method,
        gamma=gamma,
        n_samples=data.n_samples,
        table=table,
        tested_pairs=tested,
        skipped=tuple(skipped),
        floored=tuple(floored),
        homogeneity_reject_fraction=rejects / verdicts if verdicts else None,
        homogeneity_singular_pairs=singular,
        pvalue_mode=pvalue_mode,
    )


# --- graph statistics --------------------------------------------------------
#
# Every statistic is derived from ``InferredNetwork.adjacency_matrix``; scipy.sparse is
# imported there and in the functions, not at module level, so ``import macnet.cli``
# stays lean for the subcommands that draw no graph.

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
    2011), so working memory is O(SOURCE_CHUNK N_v).
    """
    n = net.n_nodes
    if n < 3:
        return np.zeros(n)
    adj = net.adjacency_matrix
    centrality = np.zeros(n)
    for start in range(0, n, SOURCE_CHUNK):
        sources = np.arange(start, min(start + SOURCE_CHUNK, n))
        column = np.arange(sources.size)
        # column s: shortest-path count and depth of every node, seen from source s
        sigma = np.zeros((n, sources.size))
        sigma[sources, column] = 1.0
        depth = np.full(sigma.shape, -1)
        depth[sources, column] = 0
        frontier, level = sigma.copy(), 0
        while True:
            paths = adj @ frontier
            reached = (paths > 0) & (depth < 0)
            if not reached.any():
                break
            level += 1
            depth[reached] = level
            frontier = np.where(reached, paths, 0.0)
            sigma += frontier
        dependency = np.zeros_like(sigma)
        for d in range(level, 0, -1):
            share = np.divide(1.0 + dependency, sigma, out=np.zeros_like(sigma), where=depth == d)
            dependency += np.where(depth == d - 1, sigma * (adj @ share), 0.0)
        centrality += np.where(depth > 0, dependency, 0.0).sum(axis=1)
    norm = (n - 1) * (n - 2) / 2.0
    # halve: the accumulation visits each unordered pair from both endpoints
    return centrality / 2.0 / norm


def largest_connected_component(net: InferredNetwork) -> int:
    """Size of the largest connected component (0 for a 0-node network), labelled by min-label
    hooking and pointer jumping (Shiloach & Vishkin 1982) until no edge joins two labels."""
    adj = net.adjacency_matrix.tocoo()
    label = np.arange(net.n_nodes)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, label[adj.row], label[adj.col])
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return int(np.bincount(label, minlength=1).max())
        label = hooked


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
    avg_abs = float(np.mean(np.abs(net.table.similarity))) if e else 0.0
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
    # each unordered pair as one integer key, both networks in net_a's node order
    keys = [np.unique(ends.min(axis=1) * n + ends.max(axis=1))
            for ends in (net_a.table.ends, in_a[net_b.table.ends])]
    shared = int(np.intersect1d(*keys, assume_unique=True).size)
    union = keys[0].size + keys[1].size - shared
    if union == 0:
        return 1.0, 0
    return shared / union, shared
