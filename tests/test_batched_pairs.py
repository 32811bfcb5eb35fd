"""The batched all-pairs and replicate paths against per-pair reference loops.

Each reference below walks pairs (or replicates) one at a time through the
public functions, each called on a single pair, the way inference ran before
it was batched.
"""

import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import macnet
from _oracles import bartlett_from_roots, corr_matrices, csv_cell
from macnet import inference, io as io_mod, network, numkernel, similarity, simulation
from macnet.cli import main
from macnet.errors import DegenerateR
from macnet.network import AttributeDataset, infer_network
from test_inference import pair_homogeneity
from test_network import id_pairs, toy_network

REL = 1e-12


def planted_dataset(seed, n_nodes, k, n=60, planted=((0, 1), (2, 3)), rho=0.7):
    """Independent nodes except planted pairs, whose attributes share factors."""
    rng = simulation.substream(seed, 2024)
    samples = rng.standard_normal((n_nodes, k, n))
    for a, b in planted:
        shared = rng.standard_normal((k, n))
        samples[a] = rho * shared + np.sqrt(1 - rho**2) * rng.standard_normal((k, n))
        samples[b] = rho * shared + np.sqrt(1 - rho**2) * rng.standard_normal((k, n))
    ids = tuple(f"v{i}" for i in range(n_nodes))
    return AttributeDataset(ids, tuple(f"a{l}" for l in range(k)), samples)


def collinear_dataset(seed=0, n_nodes=8, n=60):
    """Node v1's first attribute is a linear mix of node v0's two attributes."""
    data = planted_dataset(seed, n_nodes, 2, n=n, planted=((2, 3),))
    samples = data.samples.copy()
    samples[1, 0] = 0.6 * samples[0, 0] + 0.8 * samples[0, 1]
    return AttributeDataset(data.node_ids, data.attribute_names, samples)


def collinear_copy_dataset(noise, n_nodes=8, n=30):
    """Node v1's attributes are 2 * v0's + 1, plus noise of the given scale."""
    rng = np.random.default_rng(7)
    samples = rng.standard_normal((2, n_nodes, n))
    samples[:, 1] = 2.0 * samples[:, 0] + 1.0 + noise * rng.standard_normal((2, n))
    ids = tuple(f"v{i}" for i in range(n_nodes))
    return AttributeDataset(ids, ("a", "b"), samples.transpose(1, 0, 2))


def singular_node_dataset(seed=1, n_nodes=7, n=50):
    """Node v2's second attribute is a rescaled copy of its first."""
    data = planted_dataset(seed, n_nodes, 2, n=n)
    samples = data.samples.copy()
    samples[2, 1] = -1.5 * samples[2, 0]
    return AttributeDataset(data.node_ids, data.attribute_names, samples)


def exactly_singular_node_dataset(seed=3, n_nodes=7, n=64):
    """Integer samples, with node v2's second attribute exactly 2 * first + 1.

    n is a power of two and the values small integers, so centring and the Gram sums
    are exact and v2's covariance block is exactly singular."""
    data = planted_dataset(seed, n_nodes, 2, n=n)
    samples = np.round(4.0 * data.samples)
    samples[2, 1] = 2.0 * samples[2, 0] + 1.0
    return AttributeDataset(data.node_ids, data.attribute_names, samples)


def qr_svd_canonical(block_i, block_j):
    """Canonical roots, clipped to [0, 1], and the leading pair's contributions of two
    sample blocks (n, k), from the singular value decomposition of Q_i'Q_j, Q the QR
    factor of each block's centred, unit-length columns (Bjorck & Golub 1973).  No
    correlation matrix is formed, so a collinear pair keeps its roots of 1."""
    def qr(block):
        centred = block - block.mean(axis=0)
        return np.linalg.qr(centred / np.linalg.norm(centred, axis=0))

    (q_i, r_i), (q_j, r_j) = qr(block_i), qr(block_j)
    u, roots, vt = np.linalg.svd(q_i.T @ q_j)
    squared = np.stack([np.linalg.solve(r_i, u[:, 0]), np.linalg.solve(r_j, vt[0])]) ** 2
    return np.clip(roots, 0.0, 1.0), (squared / squared.sum(axis=1, keepdims=True)).mean(axis=0)


def reference_network(data, method, gamma, exact=False):
    """Per-pair loop over the public functions, one pair per call.

    Returns (edges by pair, singular cca pairs, homogeneity reject fraction, singular
    homogeneity count).  cca raises ``DegenerateR`` on a node whose own correlation
    block fails the PD rule, and tests a pair that the homogeneity step finds
    singular on its QR/SVD roots.
    """
    n, k = data.n_samples, data.k
    if method == "cca":
        for v, node in enumerate(data.node_ids):
            if not numkernel.pd_mask(corr_matrices(data.samples[v].T)):
                raise DegenerateR(f"node {node!r}")
    rows, singular_pairs, flags, singular = [], [], [], 0
    for vi in range(data.n_nodes):
        for vj in range(vi + 1, data.n_nodes):
            block_i, block_j = data.samples[vi].T, data.samples[vj].T
            pair = (data.node_ids[vi], data.node_ids[vj])
            joint = corr_matrices(np.hstack([block_i, block_j]))
            if method == "pearson":
                rho = float(joint[0, 1])
                z = inference.fisher_z(rho, n)
                row = (rho, z, None, min(1.0, 2.0 * inference.normal_sf(abs(z))), None)
            elif method in ("max", "min"):
                rhos = [joint[0, 2], joint[1, 3]]
                zs = [inference.fisher_z(r, n) for r in rhos]
                rho_z = inference.fisher_z_correlation(joint[:2, :2], joint[2:, 2:], joint[:2, 2:])
                p = inference.extreme_corr_pvalue(zs[0], zs[1], rho_z, method, two_sided=True,
                                                  exact=exact)
                row = (similarity.aggregate_extreme(rhos, method),
                       similarity.aggregate_extreme(zs, method), None, p, None)
            elif pair_homogeneity(block_i, block_j) is None:
                singular_pairs.append(pair)
                roots, contrib = qr_svd_canonical(block_i, block_j)
                test = bartlett_from_roots(roots, n, k)
                row = (roots[0], test.statistic, test.df, test.p, tuple(contrib))
            else:
                solution = similarity.canonical_corr(joint[:k, :k], joint[k:, k:], joint[:k, k:])
                test = bartlett_from_roots(solution.roots, n, k)
                row = (solution.rho_c, test.statistic, test.df, test.p, tuple(solution.contrib))
            hom = pair_homogeneity(block_i, block_j)
            if hom is None:
                singular += 1
            else:
                flags.append(hom.p < network.HOMOGENEITY_ALPHA)
            rows.append((pair, row))
    rejected, q = inference.bh_fdr([row[3] for _, row in rows], gamma)
    rejected = set(rejected.tolist())
    edges = {pair: row + (float(q[idx]),)
             for idx, (pair, row) in enumerate(rows) if idx in rejected}
    fraction = float(np.mean(flags)) if flags else None
    return edges, singular_pairs, fraction, singular


def written_df_cells(net):
    """The df cells of the network's edge file, in row order."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "edges.csv"
        io_mod.write_edges_csv(net, path)
        with open(path, newline="", encoding="utf-8") as handle:
            return [row["df"] for row in csv.DictReader(handle)]


def assert_matches_reference(net, reference):
    """The batched network against ``reference_network``, its df as the edge file
    writes it.  A singular pair's roots come from its node blocks, rounded where the
    QR/SVD roots are not: its similarity must lie within 1e-9 and its statistic
    within 1e-3 relative, where the QR/SVD roots give a finite one."""
    edges, singular_pairs, fraction, singular = reference
    pairs, t = id_pairs(net), net.table
    assert set(pairs) == set(edges)
    assert list(net.singular_pairs) == singular_pairs
    assert net.homogeneity_reject_fraction == fraction
    assert net.homogeneity_singular_pairs == singular
    if net.method != "cca":
        assert t.contrib is None
    for r, (pair, df_cell) in enumerate(zip(pairs, written_df_cells(net), strict=True)):
        similarity_, statistic, df, p, contrib, q = edges[pair]
        assert df_cell == ("" if df is None else str(df))
        assert t.q[r] == pytest.approx(q, rel=REL, abs=0)
        if pair in singular_pairs:
            assert t.similarity[r] == pytest.approx(similarity_, rel=0, abs=1e-9)
            if np.isfinite(statistic):
                assert t.statistic[r] == pytest.approx(statistic, rel=1e-3, abs=0)
            assert t.p[r] == p == 0.0
            assert t.contrib[r] == pytest.approx(contrib, rel=1e-6, abs=0)
            continue
        assert t.similarity[r] == pytest.approx(similarity_, rel=REL, abs=0)
        assert t.statistic[r] == pytest.approx(statistic, rel=REL, abs=0)
        assert t.p[r] == pytest.approx(p, rel=REL, abs=0)
        if contrib is not None:
            assert t.contrib[r] == pytest.approx(contrib, rel=REL, abs=0)


def check_against_reference(data, method, gamma=0.05):
    """``infer_network`` against ``reference_network``, the reference's ``DegenerateR``
    included: the network, or None where both raise it for the same node."""
    try:
        reference = reference_network(data, method, gamma)
    except DegenerateR as expected:
        with pytest.raises(DegenerateR, match=re.escape(str(expected))):
            infer_network(data, method, gamma)
        return None
    net = infer_network(data, method, gamma)
    assert_matches_reference(net, reference)
    return net


CASES = [
    ("pearson", lambda: planted_dataset(1, 9, 1)),
    ("cca", lambda: planted_dataset(2, 9, 1)),
    ("max", lambda: planted_dataset(3, 10, 2)),
    ("min", lambda: planted_dataset(4, 10, 2)),
    ("cca", lambda: planted_dataset(6, 10, 2)),
    ("cca", lambda: planted_dataset(7, 8, 3, n=40)),
    ("pearson", lambda: collinear_dataset().select(["a0"])),
    ("max", collinear_dataset),
    ("min", collinear_dataset),
    ("cca", collinear_dataset),
    ("max", singular_node_dataset),
    ("cca", singular_node_dataset),
]


@pytest.mark.parametrize("method,make", CASES)
def test_batched_path_matches_per_pair_reference(method, make):
    check_against_reference(make(), method)


@pytest.mark.parametrize("make", [make for method, make in CASES
                                  if method == "cca" and make is not singular_node_dataset])
def test_cca_runs_no_per_pair_solver(make, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-pair canonical solver called on the batched path")

    monkeypatch.setattr(similarity, "canonical_corr", refuse)
    net = infer_network(make(), "cca", 0.05)
    assert net.n_edges and net.table.contrib.shape == (net.n_edges, len(net.attribute_names))
    assert not np.isnan(net.table.contrib).any()


@pytest.mark.parametrize("method", ["max", "min"])
def test_exact_mode_matches_per_pair_reference(method):
    data = planted_dataset(8, 5, 2)
    net = infer_network(data, method, 0.05, pvalue_mode="exact")
    assert_matches_reference(net, reference_network(data, method, 0.05, exact=True))


def test_exact_mode_makes_one_tail_call_per_tile(monkeypatch):
    calls = []
    owens_t = inference.owens_t

    def counting(h, a):
        calls.append(np.shape(h))
        return owens_t(h, a)

    monkeypatch.setattr(inference, "owens_t", counting)
    data = planted_dataset(8, 8, 2)
    assert network.PAIR_CHUNK >= data.n_nodes - 1  # the 28 pairs make one tile
    net = infer_network(data, "max", 0.05, pvalue_mode="exact")
    assert net.tested_pairs == 28
    # the two-sided tail: one same-sign and one opposite-sign quadrant call
    assert calls == [(28,), (28,)]


@pytest.mark.parametrize("method", ["max", "min", "cca"])
def test_exactly_singular_node_matches_per_pair_reference(method):
    data = exactly_singular_node_dataset()
    gram = data.samples[2] - data.samples[2].mean(axis=1, keepdims=True)
    gram = gram @ gram.T
    assert gram[0, 0] * gram[1, 1] == gram[0, 1] ** 2
    net = check_against_reference(data, method)
    if method == "cca":
        assert net is None  # node v2's own correlation block is singular
    else:
        assert net.homogeneity_singular_pairs == data.n_nodes - 1


@pytest.mark.parametrize("make", [singular_node_dataset, exactly_singular_node_dataset])
def test_cca_rejects_a_singular_node(make, tmp_path, capsys):
    inputs = write_attribute_csvs(tmp_path, make())
    assert main(["infer", *inputs, "--method", "cca", "--out", str(tmp_path / "cca")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "DegenerateR" and error["message"].startswith("node 'v2':")
    assert not (tmp_path / "cca").exists()
    assert main(["infer", *inputs, "--method", "max", "--out", str(tmp_path / "max")]) == 0


@pytest.mark.parametrize("make", [lambda: planted_dataset(6, 30, 2),
                                  lambda: planted_dataset(7, 20, 3, n=40)])
def test_schur_screen_clears_noise_pairs(make):
    net = infer_network(make(), "cca", 0.05)
    assert net.singular_pairs == () and net.homogeneity_singular_pairs == 0


def test_schur_screen_passes_the_collinear_pair_on(monkeypatch):
    """The collinear pair's joint matrix fails the PD rule, so the homogeneity step
    gives it no log Wilks' Lambda; its T, from the node facts, reaches the roots on its
    own, and its leading root is 1 within rounding."""
    data = collinear_dataset()
    seen = []
    squared_roots = similarity.squared_roots

    def recording(t):
        seen.append(t)
        return squared_roots(t)

    monkeypatch.setattr(similarity, "squared_roots", recording)
    net = infer_network(data, "cca", 0.05)
    joint = corr_matrices(np.hstack([data.samples[0].T, data.samples[1].T]))
    assert not numkernel.pd_mask(joint)
    assert net.singular_pairs == (("v0", "v1"),)
    assert len(seen[0]) == 1
    assert squared_roots(seen[0])[0, 0] == pytest.approx(1.0, rel=0, abs=1e-12)


def test_cca_forms_roots_only_for_edges_and_repaired_pairs(monkeypatch):
    """Bartlett's statistic comes from the homogeneity step's log Wilks' Lambda, and an
    edge's similarity and contributions are formed after BH, so only the declared edges
    and the singular pairs reach the roots, and only the edges the weights."""
    rows, weights, candidates = [], [], []
    squared_roots, leading_weights = similarity.squared_roots, similarity._leading_weights
    bh_fdr = inference.bh_fdr

    def recording_roots(t):
        rows.append(len(t))
        return squared_roots(t)

    def recording_weights(t, *args):
        weights.append(len(t))
        return leading_weights(t, *args)

    def recording_bh(pvalues, gamma, m):
        candidates.append(len(pvalues))
        return bh_fdr(pvalues, gamma, m)

    monkeypatch.setattr(similarity, "squared_roots", recording_roots)
    monkeypatch.setattr(similarity, "_leading_weights", recording_weights)
    monkeypatch.setattr(inference, "bh_fdr", recording_bh)
    net = infer_network(planted_dataset(6, 30, 2), "cca", 0.05)
    # more candidates than edges, so a bound on the candidates would not tell them apart
    assert net.tested_pairs == 435 and 0 < net.n_edges < candidates[0]
    assert sum(rows) <= net.n_edges + len(net.singular_pairs)
    assert weights == [net.n_edges]


@pytest.mark.parametrize("method,k,mode", [("pearson", 1, "formula"), ("cca", 2, "formula"),
                                           ("max", 2, "exact"), ("min", 2, "formula"),
                                           ("min", 2, "exact")])
def test_an_empty_network_keeps_its_column_shapes(method, k, mode, tmp_path):
    """Pure noise at gamma = 0.001 declares no edge, so the edges are described from an
    empty stack of blocks; the table keeps its shapes in process and through the CLI's
    header-only edge file.  (max under the formula tail declares every pair.)"""
    data = planted_dataset(3, 12, k, n=40, planted=())
    table = infer_network(data, method, 0.001, pvalue_mode=mode).table
    contrib_shape = (0, k) if method == "cca" else None
    assert table.ends.shape == (0, 2) and getattr(table.contrib, "shape", None) == contrib_shape
    assert all(getattr(table, name).shape == (0,)
               for name in ("similarity", "statistic", "p", "q"))
    inputs = write_attribute_csvs(tmp_path, data)
    out = tmp_path / "run"
    assert main(["infer", *inputs, "--method", method, "--fdr", "0.001",
                 "--pvalue-mode", mode, "--out", str(out)]) == 0
    assert len((out / "edges.csv").read_text(encoding="utf-8").splitlines()) == 1
    back = io_mod.read_network(out / "edges.csv").table
    assert back.ends.shape == (0, 2) and getattr(back.contrib, "shape", None) == contrib_shape


def random_blocks(rng, m, k):
    """Correlation blocks (m, k, k) with smallest eigenvalues down to about 1e-8 of the largest."""
    basis = np.linalg.qr(rng.normal(size=(m, k, k)))[0]
    values = np.exp(rng.uniform(np.log(1e-8), 0.0, size=(m, k)))
    cov = (basis * values[:, None, :]) @ np.swapaxes(basis, 1, 2)
    scale = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    sigma = cov / (scale[:, :, None] * scale[:, None, :])
    sigma[:, np.arange(k), np.arange(k)] = 1.0
    return (sigma + np.swapaxes(sigma, 1, 2)) / 2.0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("rho1", [None, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
def test_schur_screen_accepts_only_clean_pairs(k, rho1, monkeypatch):
    """The homogeneity step (``numkernel.schur_logdet``) calls a pair non-singular, and
    gives it a log Wilks' Lambda, exactly where ``pd_from_eigenvalues`` of its assembled
    joint matrix is clean; its determinant screen clears some pairs without assembling
    them exactly where the bound is reachable.  The pairs are as ``_test_cca`` reads them."""
    rng = np.random.default_rng(int(1e3 * k + (0 if rho1 is None else -np.log10(1 - rho1))))
    m = 4000
    blocks = random_blocks(rng, 2 * m, k)
    values, vectors = np.linalg.eigh(blocks)
    assert numkernel.pd_from_eigenvalues(values).all()
    root = (vectors * np.sqrt(values)[:, None, :]) @ np.swapaxes(vectors, 1, 2)
    roots = rng.uniform(0.0, 1.0, size=(m, k)) ** 0.2
    if rho1 is not None:
        roots[:, 0] = rho1
    # S_ij = S_ii^1/2 U diag(roots) V' S_jj^1/2 has exactly these canonical roots
    u = np.linalg.qr(rng.normal(size=(m, k, k)))[0]
    v = np.linalg.qr(rng.normal(size=(m, k, k)))[0]
    cross = root[:m] @ (u * roots[:, None, :]) @ np.swapaxes(v, 1, 2) @ root[m:]
    assembled = []
    pd_mask = numkernel.pd_mask

    def recording(a):
        assembled.append(len(a) if a.shape[-1] == 2 * k else 0)
        return pd_mask(a)

    monkeypatch.setattr(numkernel, "pd_mask", recording)
    _, singular, log_lambda = inference.homogeneity_test_from_blocks(
        inference.covariance_block_facts(blocks[:m]), inference.covariance_block_facts(blocks[m:]),
        cross, 50)
    joint = np.block([[blocks[:m], cross], [np.swapaxes(cross, 1, 2), blocks[m:]]])
    clean = numkernel.pd_from_eigenvalues(np.linalg.eigh(joint)[0])
    np.testing.assert_array_equal(singular, ~clean)
    np.testing.assert_array_equal(np.isnan(log_lambda), ~clean)
    # det R <= 1 - rho1^2 cannot clear the bound 2 PD_TOLERANCE (2k)^(2k) below it
    reachable = rho1 is None or 1 - rho1**2 > 2 * numkernel.PD_TOLERANCE * (2 * k) ** (2 * k)
    assert (sum(assembled) < m) == reachable
    assert (~clean).any() or rho1 is None


def test_collinear_pair_is_singular_not_fatal():
    net = infer_network(collinear_dataset(), "cca", 0.05)
    assert net.singular_pairs == (("v0", "v1"),)
    assert net.tested_pairs == 8 * 7 // 2
    assert net.homogeneity_singular_pairs == 1
    edge = id_pairs(net).index(("v0", "v1"))
    assert net.table.similarity[edge] == pytest.approx(1.0, rel=0, abs=1e-9)
    assert net.table.p[edge] == 0.0


@pytest.mark.parametrize("noise", [0.0, 1e-6, 1e-4, 1e-2])
def test_collinear_copy_matches_qr_svd_roots(noise, tmp_path):
    """The copy's joint matrix fails the PD rule up to noise 1e-6.  Its statistic lies
    within 1e-3 relative of the QR/SVD roots' wherever theirs is finite (at noise 0
    their leading root is exactly 1), and its p is 0."""
    data = collinear_copy_dataset(noise)
    inputs = write_attribute_csvs(tmp_path, data)
    assert main(["infer", *inputs, "--method", "cca", "--out", str(tmp_path / "run")]) == 0
    net = io_mod.read_network(tmp_path / "run" / "edges.csv")
    assert net.singular_pairs == ((("v0", "v1"),) if noise <= 1e-6 else ())
    edge = id_pairs(net).index(("v0", "v1"))
    roots, _ = qr_svd_canonical(data.samples[0].T, data.samples[1].T)
    expected = bartlett_from_roots(roots, data.n_samples, data.k)
    if np.isfinite(expected.statistic):
        assert net.table.statistic[edge] == pytest.approx(expected.statistic, rel=1e-3, abs=0)
    if net.singular_pairs:
        assert net.table.p[edge] == 0.0
    if noise == 0.0:
        assert roots[0] == 1.0 and np.isinf(expected.statistic)
        assert net.table.similarity[edge] == pytest.approx(1.0, rel=0, abs=1e-9)


@pytest.mark.parametrize("method", ["pearson", "max", "min", "cca"])
def test_results_do_not_depend_on_chunk_size(method, monkeypatch):
    data = collinear_dataset(n_nodes=12)
    if method == "pearson":
        data = data.select(["a1"])
    base = infer_network(data, method, 0.2)
    monkeypatch.setattr(network, "PAIR_CHUNK", 7)
    small = infer_network(data, method, 0.2)
    assert network_fields(small) == network_fields(base)


def network_fields(net):
    """Every output field of a network, floats as their bytes."""
    t = net.table
    return ([column.tobytes() for column in (t.ends, t.similarity, t.statistic, t.p, t.q)],
            None if t.contrib is None else t.contrib.tobytes(),
            net.tested_pairs, net.singular_pairs, net.homogeneity_reject_fraction,
            net.homogeneity_singular_pairs)


TILE_CASES = [
    (1, "pearson", lambda: planted_dataset(11, 23, 1, planted=((0, 1), (2, 3), (5, 9)), rho=0.8)),
    (1, "cca", lambda: planted_dataset(11, 23, 1, planted=((0, 1), (2, 3), (5, 9)), rho=0.8)),
    (2, "cca", lambda: collinear_dataset(n_nodes=23)),
    (2, "max", lambda: collinear_dataset(n_nodes=23)),
    (2, "min", lambda: planted_dataset(13, 23, 2, planted=((0, 1), (2, 3), (5, 9)), rho=0.8)),
    (3, "cca", lambda: planted_dataset(12, 23, 3, n=40, planted=((0, 1), (4, 7)), rho=0.8)),
]


@pytest.mark.parametrize("k,method,make", TILE_CASES)
def test_every_field_is_bit_identical_across_tile_shapes(k, method, make, monkeypatch):
    """Tiles of 1, 2 and 7 rows and one tile of all rows give the same bits: a BLAS
    product would sum in an order that depends on its operand shapes (a one-row
    operand takes gemv, and remainder kernels differ), so the row products must not."""
    data = make()
    assert data.k == k
    last = data.n_nodes - 1
    tiles = []
    tile = network._NodeFacts.tile

    def recording(self, rows):
        tiles.append(len(rows))
        return tile(self, rows)

    monkeypatch.setattr(network._NodeFacts, "tile", recording)
    fields = []
    for rows in (1, 2, 7, last):
        monkeypatch.setattr(network, "PAIR_CHUNK", rows * last)
        tiles.clear()
        net = infer_network(data, method, 0.2)
        assert tiles == [rows] * (last // rows) + ([last % rows] if last % rows else [])
        fields.append(network_fields(net))
    assert len(net.table) > 0
    assert all(f == fields[0] for f in fields[1:])


def reference_power_counts(spec):
    """Per-replicate loop over the public functions, one replicate per call, each grid
    point's Bartlett factors drawn in turn from its two generators: rejections by grid
    point, then scenario."""
    counts = []
    shapes = (spec.n - 1 - np.arange(4)) / 2.0
    for grid_index, (r, b) in enumerate(spec.grid):
        lower = np.linalg.cholesky(simulation.build_sigma(spec.params(r, b)))
        z1, z2, bartlett = [], [], []
        normals = simulation.substream(spec.seed, grid_index, 0)
        gammas = simulation.substream(spec.seed, grid_index, 1)
        for _ in range(spec.reps):
            factor = np.zeros((4, 4))
            factor[np.tril_indices(4, -1)] = normals.standard_normal(6)
            factor[np.diag_indices(4)] = np.sqrt(2.0 * gammas.standard_gamma(shapes))
            x = lower @ factor
            scatter = x @ x.T
            joint = scatter / np.sqrt(np.outer(np.diag(scatter), np.diag(scatter)))
            z1.append(inference.fisher_z(joint[0, 2], spec.n))
            z2.append(inference.fisher_z(joint[1, 3], spec.n))
            roots = similarity.canonical_corr(joint[:2, :2], joint[2:, 2:], joint[:2, 2:]).roots
            bartlett.append(bartlett_from_roots(roots, spec.n, 2).p)
        rho_z = min(1.0, max(-1.0, float(np.corrcoef(z1, z2)[0, 1])))
        for scenario in spec.scenarios:
            if scenario in (1, 2):
                zs = z1 if scenario == 1 else z2
                p = [inference.normal_sf(v) if spec.one_sided
                     else min(1.0, 2.0 * inference.normal_sf(abs(v))) for v in zs]
            elif scenario in (3, 4):
                mode = "max" if scenario == 3 else "min"
                p = [inference.extreme_corr_pvalue(a, c, rho_z, mode, two_sided=not spec.one_sided,
                                                   exact=spec.pvalue_mode == "exact")
                     for a, c in zip(z1, z2)]
            else:
                p = bartlett
            counts.append(sum(value < spec.alpha for value in p))
    return counts


@pytest.mark.parametrize("one_sided,mode,reps", [
    (True, "formula", 300),
    (False, "formula", 300),
    (True, "exact", 300),
    (False, "exact", 300),
])
def test_power_study_matches_per_replicate_reference(one_sided, mode, reps):
    spec = simulation.PowerStudySpec(grid=((0.0, 0.0), (0.2, 0.04)), reps=reps, seed=9,
                                     one_sided=one_sided, pvalue_mode=mode)
    rejections = simulation.power_study(spec).rejections
    assert rejections.ravel().tolist() == reference_power_counts(spec)


def test_power_study_does_not_depend_on_chunk_size(monkeypatch):
    spec = simulation.PowerStudySpec(grid=((0.1, 0.02),), reps=50, seed=3)
    base = simulation.power_study(spec).rejections
    monkeypatch.setattr(simulation, "REPLICATE_CHUNK", 7)
    np.testing.assert_array_equal(simulation.power_study(spec).rejections, base)


def iterative_homogeneity_statistic(samples_i, samples_j):
    """The block-swap-constrained fit by alternating projection and flooring."""
    n, k = samples_i.shape
    stacked = np.hstack([samples_i, samples_j])
    centered = stacked - stacked.mean(axis=0)
    sample_cov = centered.T @ centered / n

    def loglik(model):
        _, logdet = np.linalg.slogdet(model)
        return -0.5 * n * (logdet + np.trace(np.linalg.solve(model, sample_cov)))

    current, previous = sample_cov, None
    for _ in range(100):
        marginal = (current[:k, :k] + current[k:, k:]) / 2.0
        cross = (current[:k, k:] + current[:k, k:].T) / 2.0
        candidate = np.block([[marginal, cross], [cross, marginal]])
        values, vectors = np.linalg.eigh(candidate)
        if values[0] < 1e-8:
            candidate = (vectors * np.maximum(values, 1e-8)) @ vectors.T
        value = loglik(candidate)
        if previous is not None and abs(value - previous) < 1e-10:
            break
        previous, current = value, candidate
    free = -0.5 * n * (np.linalg.slogdet(sample_cov)[1] + 2 * k)
    return max(0.0, 2.0 * (free - loglik(candidate)))


def test_homogeneity_closed_form_matches_iterative_fit():
    rng = np.random.default_rng(17)
    for case in range(200):
        k = 1 + case % 3
        n = int(rng.integers(2 * k + 2, 80))
        mix = rng.normal(size=(2 * k, 2 * k))
        draws = rng.normal(size=(n, 2 * k)) @ mix
        out = pair_homogeneity(draws[:, :k], draws[:, k:])
        expected = iterative_homogeneity_statistic(draws[:, :k], draws[:, k:])
        assert out.statistic == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert out.p == pytest.approx(inference.chi2_sf(expected, k * k), rel=1e-8, abs=1e-12)


def test_homogeneity_singular_covariance_is_masked():
    rng = np.random.default_rng(2)
    samples_i = rng.normal(size=(30, 2))
    samples_j = np.column_stack([samples_i @ [0.6, 0.8], rng.normal(size=30)])
    assert pair_homogeneity(samples_i, samples_j) is None


def rescaled(data, factors, every_third=1.0):
    """``data`` with attribute a scaled by factors[a], and every third node's a0 by
    ``every_third`` on top."""
    samples = data.samples * np.asarray(factors)[None, :, None]
    samples[::3, 0] *= every_third
    return AttributeDataset(data.node_ids, data.attribute_names, samples)


@pytest.mark.parametrize("method", ["max", "min", "cca"])
def test_homogeneity_verdict_does_not_depend_on_attribute_units(method, monkeypatch):
    assembled = []
    pd_mask = numkernel.pd_mask

    def recording(a):
        assembled.append(int(np.prod(a.shape[:-2])) if a.shape[-1] == 4 else 0)
        return pd_mask(a)

    monkeypatch.setattr(numkernel, "pd_mask", recording)
    data = planted_dataset(5, 40, 2)
    plain = infer_network(data, method, 0.05)
    plain_assembled, assembled[:] = sum(assembled), []
    assert plain.homogeneity_singular_pairs == 0
    # one unit per attribute across all nodes leaves the statistic as it is, so the
    # singular count and the reject fraction must not move either (the PD rule on the
    # raw covariance called all 780 pairs singular), and the determinant screen must
    # clear the same pairs without assembling them
    same = infer_network(rescaled(data, [1e-3, 1e4]), method, 0.05)
    assert same.homogeneity_singular_pairs == plain.homogeneity_singular_pairs
    # cca's log Wilks' Lambda comes from covariance-scale determinants, which must not
    # move the edges or their tests either
    assert id_pairs(same) == id_pairs(plain)
    np.testing.assert_allclose(same.table.statistic, plain.table.statistic, rtol=REL, atol=0)
    np.testing.assert_allclose(same.table.p, plain.table.p, rtol=REL, atol=0)
    assert same.homogeneity_reject_fraction == plain.homogeneity_reject_fraction
    assert sum(assembled) == plain_assembled
    # a1 x 1e4 and every third node's a0 x 1e-3: those nodes' marginal blocks no longer
    # match their partners', so the statistic and the reject fraction change, but no
    # pair is singular (the raw rule called 455 of 780 singular)
    mixed = infer_network(rescaled(data, [1.0, 1e4], every_third=1e-3), method, 0.05)
    assert mixed.homogeneity_singular_pairs == 0
    assert mixed.homogeneity_reject_fraction > plain.homogeneity_reject_fraction


def write_attribute_csvs(directory, data):
    paths = []
    for a, name in enumerate(data.attribute_names):
        path = Path(directory) / f"{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["node_id"] + [f"s{t + 1}" for t in range(data.n_samples)])
            for v, node in enumerate(data.node_ids):
                writer.writerow([node] + [csv_cell(x) for x in data.samples[v, a]])
        paths.append(str(path))
    return paths


def test_cli_infer_survives_collinear_pair(tmp_path):
    inputs = write_attribute_csvs(tmp_path, collinear_dataset())
    assert main(["infer", *inputs, "--method", "cca", "--out", str(tmp_path / "run")]) == 0
    meta = json.loads((tmp_path / "run" / "meta.json").read_text())
    assert meta["singular_pairs"] == [["v0", "v1"]]
    assert meta["floored_pairs"] == []
    assert meta["homogeneity"]["singular_pairs"] >= 1
    assert meta["homogeneity"]["reject_fraction"] is not None


def test_netstat_output_independent_of_hash_seed(tmp_path):
    rng = np.random.default_rng(12)
    ids = [f"node{i}" for i in range(60)]
    pairs = {tuple(sorted(rng.choice(60, size=2, replace=False))) for _ in range(260)}
    net = toy_network(ids, [(ids[a], ids[b]) for a, b in sorted(pairs)])
    io_mod.write_edges_csv(net, tmp_path / "graph" / "edges.csv")
    io_mod.write_meta_json(net, tmp_path / "graph" / "meta.json")
    src = str(Path(macnet.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2", "3"):
        out = tmp_path / f"out{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "macnet.cli", "netstat",
                        str(tmp_path / "graph" / "edges.csv"), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append(((out / "edges_distributions.csv").read_bytes(),
                        (out / "summary.json").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_read_network_without_meta_keeps_first_seen_order(tmp_path):
    net = toy_network(["a", "b", "c", "d"], [("c", "a"), ("a", "d"), ("b", "c")])
    io_mod.write_edges_csv(net, tmp_path / "edges.csv")
    assert io_mod.read_network(tmp_path / "edges.csv").node_ids == ("c", "a", "d", "b")
