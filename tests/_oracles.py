"""Independent brute-force oracles used by the module and acceptance tests.

Everything here deliberately avoids the implementations under test: paths
are enumerated explicitly, tail sums use exact rational arithmetic, the
step-up rule is spelled out naively, canonical weights are scored by the
correlation they achieve, and eigenvalues come from a general (not symmetric)
eigensolver.  Two references are earlier forms of the code under test, which the
current forms must match bit for bit: betweenness by masked level-by-level
accumulation, and sample correlation matrices scaled inline after two passes.

The rest are data generators and references that no pipeline runs:
``sample_mvn`` draws Gaussian samples and ``corr_matrices`` takes their sample
correlation matrices; ``equal_corr_blocks`` builds the equal-correlation model's
blocks; ``adjacency_sets`` and ``edge_pairs`` read a network's edges as node ids;
``bartlett_from_roots`` is Bartlett's test from canonical roots, and
``homogeneity_from_cov`` the homogeneity test of a stack of joint covariances,
each through the function ``infer`` calls; ``csv_cell`` is one numeric CSV cell as
macnet writes it, formatted one value at a time.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from macnet import inference, numkernel
from macnet.errors import InsufficientSamples, NotPositiveDefinite, ZeroVariance
from macnet.simulation import substream


def csv_cell(value) -> str:
    """One numeric CSV cell: an integer by ``str``, any other number with 17 significant
    digits, and NaN as an empty cell."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "" if math.isnan(value) else format(float(value), ".17g")


def brute_force_betweenness(node_ids, adjacency):
    """Normalized betweenness by explicit enumeration of all shortest paths."""
    nodes = list(node_ids)
    n = len(nodes)
    scores = {v: 0.0 for v in nodes}

    def all_shortest_paths(s, t):
        best = None
        paths = []
        frontier = [[s]]
        while frontier:
            if best is not None and len(frontier[0]) > best:
                break
            next_frontier = []
            for path in frontier:
                last = path[-1]
                if last == t:
                    if best is None or len(path) == best:
                        best = len(path)
                        paths.append(path)
                    continue
                if best is not None and len(path) >= best:
                    continue
                for w in adjacency[last]:
                    if w not in path:
                        next_frontier.append(path + [w])
            frontier = next_frontier
        return paths

    for s, t in itertools.combinations(nodes, 2):
        paths = all_shortest_paths(s, t)
        if not paths:
            continue
        for v in nodes:
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            scores[v] += through / len(paths)
    if n < 3:
        return np.zeros(n)
    norm = (n - 1) * (n - 2) / 2.0
    return np.array([scores[v] / norm for v in nodes])


def masked_betweenness(net, source_chunk):
    """Normalized betweenness by level-by-level Brandes accumulation with masked selects.

    Sources are taken ``source_chunk`` at a time, each level selects with ``np.where``
    and divides under a ``where=`` mask, and the forward walk runs until a level
    reaches nothing.  ``network.betweenness_values`` must match it bit for bit.
    """
    n = net.n_nodes
    if n < 3:
        return np.zeros(n)
    adj = net.adjacency_matrix
    centrality = np.zeros(n)
    for start in range(0, n, source_chunk):
        sources = np.arange(start, min(start + source_chunk, n))
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


def brute_force_clustering(node_ids, adjacency):
    values = []
    for v in node_ids:
        neighbors = list(adjacency[v])
        d = len(neighbors)
        if d < 2:
            values.append(0.0)
            continue
        closed = sum(
            1 for a, b in itertools.combinations(neighbors, 2) if b in adjacency[a]
        )
        values.append(closed / (d * (d - 1) / 2.0))
    return np.array(values)


def brute_force_lcc(node_ids, pairs):
    """Largest component size by repeated set merging."""
    components = [{v} for v in node_ids]
    for a, b in pairs:
        merged = {a, b}
        rest = []
        for comp in components:
            if comp & merged:
                merged |= comp
            else:
                rest.append(comp)
        components = rest + [merged]
    return max(len(c) for c in components) if components else 0


def naive_step_up(pvalues, gamma):
    """Step-up rule written out directly: largest k with p_(k) <= k*gamma/m."""
    m = len(pvalues)
    indexed = sorted(range(m), key=lambda i: (pvalues[i], i))
    k_star = 0
    for k in range(m, 0, -1):
        if pvalues[indexed[k - 1]] <= k * gamma / m:
            k_star = k
            break
    return tuple(sorted(indexed[:k_star]))


def exact_hypergeom_upper(overlap, class_size, set_size, universe):
    """Exact rational upper tail by direct enumeration."""
    total = Fraction(0)
    denom = math.comb(universe, class_size)
    for t in range(overlap, min(class_size, set_size) + 1):
        if class_size - t > universe - set_size:
            continue
        total += Fraction(
            math.comb(set_size, t) * math.comb(universe - set_size, class_size - t), denom
        )
    return total


def reference_enrichment(classes, gmt_lines, exclude=()):
    """(class, set, overlap, class size, set size) of every pair enrich tests, by
    plain set arithmetic on the lines of a GMT file.

    Members are stripped and blank cells dropped; a node in no set, or
    unclassified, joins no class; a set whose name contains a non-blank exclude
    token is dropped; rows run over the classes in sorted order, each over the
    sets in sorted order.
    """
    sets = {}
    for line in gmt_lines:
        if line.strip():
            name, _, *members = line.split("\t")
            sets[name.strip()] = {m.strip() for m in members} - {""}
    annotated = set().union(*sets.values())
    tokens = [t for t in exclude if t.strip()]
    kept = {name: m for name, m in sets.items() if not any(t in name for t in tokens)}
    members = {}
    for node, label in classes.items():
        if node in annotated and label != "unclassified":
            members.setdefault(label, set()).add(node)
    return [(label, name, len(members[label] & kept[name]), len(members[label]), len(kept[name]))
            for label in sorted(members) for name in sorted(kept)]


def correlation_objective(sigma_ii, sigma_jj, sigma_ij, w_i, w_j):
    """Correlation of the two weighted attribute combinations w_i'x_i and w_j'x_j."""
    w_i = np.asarray(w_i, dtype=float)
    w_j = np.asarray(w_j, dtype=float)
    num = float(w_i @ sigma_ij @ w_j)
    return num / float(np.sqrt((w_i @ sigma_ii @ w_i) * (w_j @ sigma_jj @ w_j)))


def general_eigen(a):
    """Right eigendecomposition (values, unit column vectors) of a square matrix with
    a real spectrum, sorted by descending absolute value."""
    values, vectors = np.linalg.eig(np.asarray(a, dtype=float))
    if np.iscomplexobj(values):
        scale = max(1.0, float(np.max(np.abs(values))))
        assert float(np.max(np.abs(values.imag))) <= 1e-9 * scale, "complex spectrum"
        values, vectors = values.real, vectors.real
    order = np.argsort(-np.abs(values), kind="stable")
    vectors = vectors[:, order]
    return values[order], vectors / np.linalg.norm(vectors, axis=0)


def corr_matrices(samples) -> np.ndarray:
    """Sample correlation matrix of each n-by-d block in a stack (..., n, d): its
    centred cross products scaled by ``numkernel.corr_from_cross``."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-2]
    if n < 3:
        raise InsufficientSamples(f"need at least 3 samples, got {n}")
    xc = samples - samples.mean(axis=-2, keepdims=True)
    return numkernel.corr_from_cross(np.swapaxes(xc, -1, -2) @ xc)


def two_pass_corr_matrices(samples):
    """Sample correlation matrix of each n-by-d block in a stack (..., n, d): the
    centred cross products scaled inline.  ``corr_matrices``, and with it
    ``numkernel.corr_from_cross``, must match it bit for bit."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-2]
    if n < 3:
        raise InsufficientSamples(f"need at least 3 samples, got {n}")
    xc = samples - samples.mean(axis=-2, keepdims=True)
    cross = np.swapaxes(xc, -1, -2) @ xc
    diag = np.diagonal(cross, axis1=-2, axis2=-1)
    bad = np.flatnonzero(np.any(diag <= 0.0, axis=tuple(range(diag.ndim - 1))))
    if bad.size:
        raise ZeroVariance(f"column {bad[0]} is constant", index=int(bad[0]))
    r = cross / np.sqrt(diag[..., :, None] * diag[..., None, :])
    d = np.arange(samples.shape[-1])
    r[..., d, d] = 1.0
    return np.clip(r, -1.0, 1.0)


def sample_mvn(sigma, n: int, seed) -> np.ndarray:
    """n draws from a centered multivariate normal with the given SPD covariance.

    ``seed`` is a Generator, or a seed for ``substream(seed)``, so a negative or
    non-integer one is rejected rather than truncated.
    """
    sigma = numkernel.require_symmetric(sigma, tol=1e-10)
    if n < 1:
        raise InsufficientSamples(f"need at least 1 draw, got {n}")
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("covariance is not positive-definite") from None
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    z = rng.standard_normal((n, sigma.shape[0]))
    return z @ lower.T


def equal_corr_blocks(k: int, r: float, rho: float, b: float):
    """Marginal and cross blocks for the equal-correlation model."""
    sigma_m = np.full((k, k), r)
    np.fill_diagonal(sigma_m, 1.0)
    sigma_c = np.full((k, k), b)
    np.fill_diagonal(sigma_c, rho)
    return sigma_m, sigma_c


def adjacency_sets(net) -> dict:
    """Each node id's set of neighbouring node ids."""
    adj = {v: set() for v in net.node_ids}
    for a, b in net.table.ends.tolist():
        adj[net.node_ids[a]].add(net.node_ids[b])
        adj[net.node_ids[b]].add(net.node_ids[a])
    return adj


def edge_pairs(net) -> frozenset:
    """The edges as a set of unordered node-id pairs."""
    return frozenset(frozenset((net.node_ids[a], net.node_ids[b]))
                     for a, b in net.table.ends.tolist())


def bartlett_from_roots(roots, n: int, k: int):
    """Bartlett's test of k canonical roots (or a stack (m, k) of them), from log
    Wilks' Lambda, the sum of log(1 - root^2); a root of 1 gives an infinite
    statistic."""
    roots = np.asarray(roots, dtype=float)
    with np.errstate(divide="ignore"):
        log_lambda = np.log1p(-(roots * roots)).sum(-1)
    return inference._bartlett_from_log_lambda(log_lambda, n, k)


def homogeneity_from_cov(sample_cov, n: int):
    """The homogeneity test of a stack (m, 2k, 2k) of maximum-likelihood covariances
    of the stacked pair vector: the test over the non-singular entries and the mask
    of singular ones."""
    k = sample_cov.shape[-1] // 2
    facts = [inference.covariance_block_facts(sample_cov[:, s, s])
             for s in (slice(None, k), slice(k, None))]
    return inference.homogeneity_test_from_blocks(*facts, sample_cov[:, :k, k:], n)[:2]
