"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single CRITERION line on success (visible with -s or in
the captured output); a failed assertion marks the criterion red.  Run with

    pytest tests/test_acceptance.py -v
"""

import csv
import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2 as scipy_chi2
from scipy.stats import kstest

from _oracles import (
    adjacency_sets,
    brute_force_betweenness,
    brute_force_clustering,
    brute_force_lcc,
    corr_matrices,
    edge_pairs,
    exact_hypergeom_upper,
    naive_step_up,
    sample_mvn,
)
from macnet import inference, numkernel, simulation
from macnet.cli import main
from macnet.enrichment import _upper_tails
from macnet.inference import bh_fdr, fisher_z, normal_sf
from macnet.network import (
    AttributeDataset,
    betweenness_values,
    clustering_values,
    degree_values,
    infer_network,
    jaccard,
    largest_connected_component,
    summary,
)
from macnet.similarity import (
    K2Params,
    canonical_corr,
    canonical_corr_homogeneous,
    k2_closed_form,
    k2_domain,
)
from macnet.simulation import PowerStudySpec, build_sigma, power_study, substream

from test_network import toy_network


def report(number, text):
    print(f"\nCRITERION {number:02d} PASS: {text}")


def random_valid_structure(rng, homogeneous=False, min_eig=0.05):
    """(sigma_ii, sigma_jj, sigma_ij) of a random two-attribute pair with a PD joint matrix."""
    while True:
        r_i = rng.uniform(-0.8, 0.8)
        r_j = r_i if homogeneous else rng.uniform(-0.8, 0.8)
        sigma_ii = np.array([[1.0, r_i], [r_i, 1.0]])
        sigma_jj = np.array([[1.0, r_j], [r_j, 1.0]])
        cross = rng.uniform(-0.6, 0.6, size=(2, 2))
        if homogeneous:
            cross = (cross + cross.T) / 2.0
        if np.linalg.eigvalsh(np.block([[sigma_ii, cross], [cross.T, sigma_jj]]))[0] > min_eig:
            return sigma_ii, sigma_jj, cross


def test_criterion_01_closed_form_equivalence():
    started = time.perf_counter()
    rho1, rho2 = 0.3, 0.1
    axis = np.linspace(-0.98, 0.98, 161)
    checked = 0
    worst = 0.0
    for r in axis:
        for b in axis:
            params = K2Params(float(r), float(b), rho1, rho2)
            if not params.valid():
                continue
            checked += 1
            numeric = canonical_corr_homogeneous(params.sigma_m, params.sigma_c).rho_c
            worst = max(worst, abs(k2_closed_form(params) - numeric))
    elapsed = time.perf_counter() - started
    assert checked >= 10_000, f"only {checked} valid grid points"
    assert worst < 1e-10, f"max disagreement {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"closed form vs eigensolver on {checked} grid points, "
              f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_domain_equivalence():
    rho1, rho2 = 0.3, 0.1
    axis = np.linspace(-0.9, 0.9, 181)
    disagreements = 0
    checked = 0
    for r in axis:
        for b in axis:
            params = K2Params(float(r), float(b), rho1, rho2)
            margin = min(abs(abs(params.b - params.r) - params.a1),
                         abs(abs(params.b + params.r) - params.a2))
            if margin <= 1e-9:
                continue
            checked += 1
            direct = numkernel.pd_mask(
                np.block([[params.sigma_m, params.sigma_c],
                          [params.sigma_c, params.sigma_m]])
            )
            disagreements += k2_domain(params) != direct
    assert disagreements == 0, f"{disagreements} grid disagreements"
    report(2, f"domain conditions match direct positive-definiteness on "
              f"{checked} of 32761 grid points (boundary band excluded)")


def test_criterion_03_cca_optimality():
    rng = np.random.default_rng(20_260_811)
    theta = np.linspace(0.0, np.pi, 720, endpoint=False)
    w = np.column_stack([np.cos(theta), np.sin(theta)])
    worst = 0.0
    for _ in range(200):
        sigma_ii, sigma_jj, sigma_ij = random_valid_structure(rng)
        solution = canonical_corr(sigma_ii, sigma_jj, sigma_ij)
        num = w @ sigma_ij @ w.T
        scale_i = np.sqrt(np.einsum("ij,jk,ik->i", w, sigma_ii, w))
        scale_j = np.sqrt(np.einsum("ij,jk,ik->i", w, sigma_jj, w))
        grid_best = float(np.max(np.abs(num / np.outer(scale_i, scale_j))))
        worst = max(worst, abs(solution.rho_c - grid_best))
    assert worst < 1e-4, f"max grid-search gap {worst:.3e}"
    report(3, f"top root matches 720x720 weight-angle search on 200 structures, "
              f"max gap {worst:.2e}")


def test_criterion_04_homogeneous_reduction():
    rng = np.random.default_rng(41)
    produced = 0
    worst_w = 0.0
    worst_rho = 0.0
    while produced < 200:
        structure = random_valid_structure(rng, homogeneous=True)
        hom = canonical_corr_homogeneous(structure[0], structure[2])
        # a repeated leading root leaves the weight direction underdetermined
        if hom.degenerate or abs(hom.roots[0] ** 2 - hom.roots[1] ** 2) < 1e-3:
            continue
        produced += 1
        gen = canonical_corr(*structure)
        worst_rho = max(worst_rho, abs(hom.rho_c - gen.rho_c))
        pair_gap = min(np.max(np.abs(gen.w_i - gen.w_j)), np.max(np.abs(gen.w_i + gen.w_j)))
        path_gap = min(np.max(np.abs(gen.w_i - hom.w_i)), np.max(np.abs(gen.w_i + hom.w_i)))
        worst_w = max(worst_w, pair_gap, path_gap)
    assert worst_w < 1e-9, f"weight-vector gap {worst_w:.3e}"
    assert worst_rho < 1e-9, f"leading-root gap {worst_rho:.3e}"
    report(4, f"general solver reproduces the single-weight reduction on 200 "
              f"structures (max weight gap {worst_w:.2e}, root gap {worst_rho:.2e})")


def test_criterion_05_bartlett_null_calibration():
    started = time.perf_counter()
    n, reps = 200, 5000
    sigma_m = np.array([[1.0, 0.2], [0.2, 1.0]])
    sigma = np.block([[sigma_m, np.zeros((2, 2))], [np.zeros((2, 2)), sigma_m]])
    draws = np.stack([sample_mvn(sigma, n, substream(505, rep)) for rep in range(reps)])
    # the statistic simulate's scenario 5 computes, from log Wilks' Lambda
    log_lambda = simulation._log_wilks_lambda(corr_matrices(draws))
    statistics = inference._bartlett_from_log_lambda(log_lambda, n, 2).statistic
    ks = kstest(statistics, scipy_chi2(4).cdf)
    elapsed = time.perf_counter() - started
    assert ks.pvalue > 0.01, f"KS p-value {ks.pvalue:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(5, f"null statistic vs chi2(4): KS p={ks.pvalue:.3f} over {reps} "
              f"replicates, {elapsed:.1f}s")


def test_criterion_06_fisher_null_calibration():
    alpha, reps, n = 0.05, 5000, 50
    rejections = 0
    for rep in range(reps):
        rng = substream(606, rep)
        draws = rng.standard_normal((n, 2))
        rho = corr_matrices(draws)[0, 1]
        z = fisher_z(rho, n)
        rejections += 2.0 * normal_sf(abs(z)) < alpha
    rate = rejections / reps
    band = 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
    assert abs(rate - alpha) <= band, f"rate {rate:.4f} outside {alpha}+-{band:.4f}"
    report(6, f"null rejection rate {rate:.4f} within {alpha} +- {band:.4f}")


def test_criterion_07_bh_step_up_enumeration():
    rng = np.random.default_rng(707)
    grid = np.round(np.arange(0.0, 1.0001, 0.01), 2)
    cases = 0
    for _ in range(10_000):
        m = int(rng.integers(1, 7))
        p = [float(rng.choice(grid)) for _ in range(m)]
        gamma = float(rng.choice([0.01, 0.05, 0.1, 0.25]))
        cases += 1
        assert bh_fdr(p, gamma).rejected == naive_step_up(p, gamma)
    report(7, f"step-up rule matches naive enumeration on {cases} random lists")


def test_criterion_08_power_study_reproduction():
    started = time.perf_counter()
    b_values = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    grid = tuple((0.2 * b, b) for b in b_values)
    spec = PowerStudySpec(grid=grid, rho1=0.3, rho2=0.1, n=50, reps=1000,
                          alpha=0.05, seed=808, scenarios=(1, 2, 5))
    result = power_study(spec)
    # rows follow b_values, columns the scenarios (1, 2, 5)
    power, mc_se = result.power, result.mc_se

    s1_origin = power[0, 0]
    assert s1_origin == pytest.approx(0.683, abs=0.045), f"scenario 1 power {s1_origin}"

    for row in range(1, len(b_values)):
        slack = 2.0 * math.hypot(mc_se[row - 1, 2], mc_se[row, 2])
        assert power[row, 2] >= power[row - 1, 2] - slack, (
            f"scenario 5 power dropped: {power[row - 1, 2]} -> {power[row, 2]} "
            f"at b={b_values[row]}"
        )
    assert power[:, 2].max() >= 0.99, "scenario 5 never reached 0.99"

    for row, b in enumerate(b_values):
        if b < 0.5:
            continue
        for col, scenario in ((0, 1), (1, 2)):
            slack = 2.0 * math.hypot(mc_se[row, 2], mc_se[row, col])
            assert power[row, 2] >= power[row, col] - slack, (
                f"scenario 5 below scenario {scenario} at b={b}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0, f"took {elapsed:.1f}s"
    report(8, f"power curves reproduce: s1(0,0)={s1_origin:.3f} (~0.683), "
              f"s5 monotone to {power[:, 2].max():.3f}, "
              f"s5 dominates s1/s2 for b>=0.5; {elapsed:.1f}s")


def test_criterion_09_graph_statistics_oracles():
    rng = np.random.default_rng(909)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        ids = [f"n{i}" for i in range(n)]
        pairs = [
            (ids[a], ids[b])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < float(rng.uniform(0.2, 0.8))
        ]
        net = toy_network(ids, pairs)
        adjacency = adjacency_sets(net)
        np.testing.assert_array_equal(
            degree_values(net), [len(adjacency[v]) for v in ids]
        )
        np.testing.assert_allclose(
            clustering_values(net), brute_force_clustering(ids, adjacency), atol=1e-12
        )
        np.testing.assert_allclose(
            betweenness_values(net), brute_force_betweenness(ids, adjacency), atol=1e-12
        )
        assert largest_connected_component(net) == brute_force_lcc(ids, pairs)

    ids = [f"g{i}" for i in range(91)]
    all_pairs = list(itertools.combinations(ids, 2))
    chosen = [all_pairs[i] for i in
              np.random.default_rng(1).choice(len(all_pairs), 791, replace=False)]
    stats = summary(toy_network(ids, chosen))
    assert stats.density == 2 * 791 / (91 * 90)
    assert stats.density == 791 / 4095
    assert round(stats.density, 2) == 0.19
    assert stats.avg_degree == 2 * 791 / 91
    assert round(stats.avg_degree, 2) == 17.38
    report(9, "degree/clustering/betweenness/LCC match brute force on 500 graphs; "
              "density 791/4095 -> 0.19 and mean degree 17.38 exact")


def test_criterion_10_jaccard_arithmetic():
    ids = [f"n{i}" for i in range(60)]
    all_pairs = list(itertools.combinations(ids, 2))
    shared = all_pairs[:329]
    net_a = toy_network(ids, shared + all_pairs[329:426])
    net_b = toy_network(ids, shared + all_pairs[426 : 426 + 462])
    value, count = jaccard(net_a, net_b)
    assert count == 329
    assert round(value, 2) == 0.37
    report(10, f"edge sets of sizes 426/791 sharing 329 give Jaccard {value:.4f} -> 0.37")


def test_criterion_11_hypergeometric_enumeration():
    rng = np.random.default_rng(1111)
    configs = []
    for _ in range(1000):
        universe = int(rng.integers(2, 31))
        set_size = int(rng.integers(1, universe + 1))
        class_size = int(rng.integers(1, universe + 1))
        overlap = int(rng.integers(0, min(set_size, class_size) + 1))
        configs.append((universe, overlap, class_size, set_size))
    # one batched call per universe, as enrich makes it
    universes = sorted({config[0] for config in configs})
    worst = 0.0
    for universe in universes:
        overlap, class_size, set_size = zip(*(c[1:] for c in configs if c[0] == universe))
        computed = _upper_tails(overlap, class_size, set_size, universe)
        exact = [float(exact_hypergeom_upper(*args, universe))
                 for args in zip(overlap, class_size, set_size)]
        for value, reference in zip(computed.tolist(), exact):
            if reference > 0:
                worst = max(worst, abs(value - reference) / reference)
            else:
                assert value == 0.0
    assert worst < 1e-10, f"max relative error {worst:.3e}"
    assert _upper_tails([4], [5], [4], 10)[0] == pytest.approx(6 / 252, rel=1e-12)
    report(11, f"log-space tail matches exact enumeration on 1000 configurations in "
               f"{len(universes)} batched calls (max rel err {worst:.2e}); "
               f"6/252 worked example exact")


def test_criterion_12_w_formula_calibration_table(tmp_path):
    rows = inference.w_formula_calibration_table(draws=1_000_000, seed=1905)
    path = tmp_path / "w_formula_calibration.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        if row["mode"] == "max" and row["rho_z"] == 0.0:
            closed_form = 1.0 - (1.0 - normal_sf(row["c"])) ** 2
            assert abs(row["montecarlo"] - closed_form) <= 3.0 * row["mc_se"], (
                f"MC tail off at c={row['c']}: {row['montecarlo']} vs {closed_form}"
            )
    printable = ", ".join(
        f"(max, rho={r['rho_z']}, c={r['c']}): formula {r['formula']:.4f} vs MC {r['montecarlo']:.4f}"
        for r in rows
        if r["mode"] == "max"
    )
    report(12, f"calibration table emitted ({path.name}); Monte Carlo matches the "
               f"independence tail within 3 SE. {printable}")


def test_criterion_13_byte_identical_reruns(tmp_path):
    sim_args = ["simulate", "--slice", "b=0.2r", "--points", "4", "--reps", "150",
                "--n", "50", "--seed", "7"]
    for name in ("a", "b"):
        assert main(sim_args + ["--out", str(tmp_path / f"sim_{name}")]) == 0
    sim_a = (tmp_path / "sim_a" / "power.csv").read_bytes()
    sim_b = (tmp_path / "sim_b" / "power.csv").read_bytes()
    assert sim_a == sim_b

    from test_cli import make_dataset_files

    protein, gene, *_ = make_dataset_files(tmp_path, seed=13)
    infer_args = ["infer", str(protein), str(gene), "--method", "cca", "--fdr", "0.05"]
    for name in ("a", "b"):
        assert main(infer_args + ["--out", str(tmp_path / f"net_{name}")]) == 0
    net_a = (tmp_path / "net_a" / "edges.csv").read_bytes()
    net_b = (tmp_path / "net_b" / "edges.csv").read_bytes()
    assert net_a == net_b
    report(13, "simulate and infer reruns under one seed/config are byte-identical")


def test_criterion_14_end_to_end_smoke():
    planted = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))
    planted_ids = frozenset(frozenset((f"v{a}", f"v{b}")) for a, b in planted)
    params = K2Params(r=0.0, b=0.0, rho1=0.9, rho2=0.9)
    sigma = build_sigma(params)
    exact = 0
    runs = 100
    for run in range(runs):
        rng = substream(1414, run)
        samples = rng.standard_normal((20, 2, 60))
        for a, b in planted:
            draws = sample_mvn(sigma, 60, substream(1414, run, a))
            samples[a, 0], samples[a, 1] = draws[:, 0], draws[:, 1]
            samples[b, 0], samples[b, 1] = draws[:, 2], draws[:, 3]
        data = AttributeDataset(tuple(f"v{i}" for i in range(20)), ("x", "y"), samples)
        net = infer_network(data, "min", 0.05)
        if edge_pairs(net) == planted_ids:
            exact += 1
    assert exact >= 95, f"exact recovery in only {exact} of {runs} runs"
    report(14, f"planted edges recovered exactly in {exact}/{runs} seeded runs "
               f"(min-aggregation network at FDR 0.05)")
