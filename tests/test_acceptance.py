"""Acceptance gate: ten end-to-end criteria, one test (and one printed
pass line) per criterion. Run with -v for the per-criterion verdict lines
and -s for the numeric detail.

Monte Carlo criteria use fixed seeds; tolerances are stated inline next to
each assertion. Exact-identity criteria reuse the independent quadrature
and brute-force oracles from tests/oracles.py.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from oracles import (chi2_fourier_identity, cvm_population_quadrature,
                     kernel_smoothed_field_sq, seminorm_grid_oracle)
from uniconsist.alternatives import (combine, decompose, kernel_family,
                                     make_consistent, make_spike_tail,
                                     smoothness_of)
from uniconsist.chi2 import Chi2Config, chi2_population, chi2_predicted_beta
from uniconsist.cvm import build_cvm_null_table, cvm_population
from uniconsist.funclasses import besov_seminorm, tail_bound_check
from uniconsist.kernel import (KernelObservations, KernelTestConfig,
                               box_kernel, epanechnikov_kernel,
                               kernel_statistic_fourier)
from uniconsist.mclab import (MCConfig, chi2_rejections, cvm_rejections,
                              estimate_columns, kernel_rejections,
                              quad_rejections, wilson_interval)
from uniconsist.quad import (QuadTestConfig, build_profile, noncentrality,
                             predict_beta)
from uniconsist.signals import Basis, DensitySpec, SignalSpec
from uniconsist.suites import run_suite, write_result

REPLICATES = 10000


def _random_density_signal(rng, basis: Basis, J: int) -> SignalSpec:
    """Band-limited signal scaled so 1 + f stays strictly positive."""
    if basis is Basis.TRIG_FULL:
        coeffs = rng.uniform(-1.0, 1.0, (J, 2))
        budget = math.sqrt(2.0) * np.abs(coeffs).sum()
    else:
        coeffs = rng.uniform(-1.0, 1.0, J)
        budget = math.sqrt(2.0) * np.abs(coeffs).sum()
    return SignalSpec(basis, coeffs * (0.9 / budget))


def test_criterion_01_exact_identities():
    start = time.monotonic()
    rng = np.random.default_rng(1001)

    worst_chi2 = 0.0
    for _ in range(50):
        sig = _random_density_signal(rng, Basis.TRIG_FULL,
                                     int(rng.integers(3, 21)))
        m = int(rng.integers(2, 17))
        s_pop = chi2_population(sig, m)
        s_fourier = chi2_fourier_identity(sig, m)
        assert s_pop > 0.0
        worst_chi2 = max(worst_chi2, abs(s_fourier - s_pop) / s_pop)
    assert worst_chi2 <= 1e-8

    worst_cvm = 0.0
    for _ in range(12):
        sig = _random_density_signal(rng, Basis.COSINE_PI,
                                     int(rng.integers(2, 7)))
        diff = abs(cvm_population(sig) - cvm_population_quadrature(sig))
        worst_cvm = max(worst_cvm, diff)
    assert worst_cvm <= 1e-8

    worst_ker = 0.0
    for i in range(8):
        kernel = box_kernel() if i % 2 else epanechnikov_kernel()
        J = 12
        h = float(rng.uniform(0.1, 0.3))
        n = 200
        cfg = KernelTestConfig(kernel=kernel, alpha=0.05, h=h)
        pairs = 0.3 * rng.standard_normal((J, 2))
        y0 = float(rng.normal(scale=0.3))
        core = kernel_smoothed_field_sq(y0, pairs, kernel.khat, h)
        w = np.square(kernel.khat(np.arange(J + 1) * h))
        center = (w[0] + 2.0 * w[1:].sum()) / n
        want = n * math.sqrt(h) / math.sqrt(kernel.gamma_sq) * (core - center)
        got = kernel_statistic_fourier(KernelObservations(y0=y0, pairs=pairs),
                                       cfg, n)
        worst_ker = max(worst_ker, abs(got - want) / abs(want))
    assert worst_ker <= 1e-6

    worst_pyth = 0.0
    for _ in range(25):
        coeffs = rng.uniform(-1.0, 1.0, 48)
        sig = SignalSpec(Basis.COSINE_PI, coeffs / np.linalg.norm(coeffs))
        head, tail = decompose(sig, float(rng.uniform(1.0, 49.0)))
        worst_pyth = max(worst_pyth,
                         abs(head.norm_sq + tail.norm_sq - sig.norm_sq))
    assert worst_pyth <= 1e-15

    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    print(f"criterion 1: PASS (chi2 rel {worst_chi2:.2e}, cvm abs "
          f"{worst_cvm:.2e}, kernel rel {worst_ker:.2e}, pythagoras "
          f"{worst_pyth:.2e}, {elapsed:.1f}s)")


def test_criterion_02_size_calibration():
    start = time.monotonic()
    mc = MCConfig(replicates=REPLICATES, seed=101)

    profile = build_profile(0.3, 2.0, 1.0, 8192, [4096])
    quad_size = estimate_columns(quad_rejections(
        mc, QuadTestConfig(profile, 0.05), 4096, [None]))[0].estimate
    assert 0.03 <= quad_size <= 0.07

    kcfg = KernelTestConfig(kernel=box_kernel(), alpha=0.05, h_rule=(0.3, 2.0))
    kernel_size = estimate_columns(kernel_rejections(
        mc, kcfg, 2048, [None], 4096))[0].estimate
    assert 0.03 <= kernel_size <= 0.07

    ccfg = Chi2Config(alpha=0.05, m_rule=(0.375, 1.0))
    chi2_size = estimate_columns(chi2_rejections(
        mc, ccfg, 2048, [None]))[0].estimate
    assert 0.03 <= chi2_size <= 0.07

    table = build_cvm_null_table([0.05], replicates=200000, seed=77,
                                 J_null=1024)
    rej = cvm_rejections(MCConfig(replicates=REPLICATES, seed=102), table,
                         0.05, 2048, [None])
    successes = int(rej[:, 0].sum())
    lo, hi = wilson_interval(successes, REPLICATES)
    assert lo <= 0.05 <= hi

    elapsed = time.monotonic() - start
    assert elapsed <= 300.0
    print(f"criterion 2: PASS (quad {quad_size:.4f}, kernel "
          f"{kernel_size:.4f}, chi2 {chi2_size:.4f}, cvm "
          f"{successes / REPLICATES:.4f} in ({lo:.4f}, {hi:.4f}), "
          f"{elapsed:.1f}s)")


BETA_TARGETS = (0.3, 0.5, 0.7)


def test_criterion_03_power_formula_agreement():
    n = 4096
    mc = MCConfig(replicates=REPLICATES, seed=202)

    profile = build_profile(0.3, 2.0, 1.0, 8192, [n])
    qcfg = QuadTestConfig(profile, 0.05)
    a_n = profile.A[n]
    pattern = np.zeros(profile.J)
    pattern[:512] = 1.0
    r_base = noncentrality(pattern, profile, n)
    variants = [None]
    for beta in BETA_TARGETS:
        r_target = (qcfg.x_alpha - stats.norm.ppf(beta)) * math.sqrt(2.0 * a_n)
        theta = pattern * math.sqrt(r_target / r_base)
        assert predict_beta(noncentrality(theta, profile, n), a_n,
                            qcfg.x_alpha) == pytest.approx(beta, abs=1e-12)
        variants.append(theta)
    ests = estimate_columns(quad_rejections(mc, qcfg, n, variants))
    quad_gaps = [abs((1.0 - est.estimate) - beta)
                 for beta, est in zip(BETA_TARGETS, ests[1:])]
    assert max(quad_gaps) <= 0.05

    m = 256
    ccfg = Chi2Config(alpha=0.05, m=m)
    s_unit = chi2_population(SignalSpec(Basis.COSINE_PI, np.array([1.0])), m)
    variants = [None]
    for beta in BETA_TARGETS:
        t_target = (ccfg.x_alpha - stats.norm.ppf(beta)) * math.sqrt(2.0 * m)
        amp = math.sqrt(t_target / (n * m * s_unit))
        sig = SignalSpec(Basis.COSINE_PI, np.array([amp]))
        assert chi2_predicted_beta(sig, ccfg, n) == pytest.approx(beta,
                                                                  abs=1e-12)
        variants.append(DensitySpec(sig))
    ests = estimate_columns(chi2_rejections(mc, ccfg, n, variants))
    chi2_gaps = [abs((1.0 - est.estimate) - beta)
                 for beta, est in zip(BETA_TARGETS, ests[1:])]
    assert max(chi2_gaps) <= 0.05

    print(f"criterion 3: PASS (quad gaps {[f'{g:.4f}' for g in quad_gaps]}, "
          f"chi2 gaps {[f'{g:.4f}' for g in chi2_gaps]})")


def test_criterion_04_consistency_contrast():
    con = run_suite("consistency")
    assert con.passed
    beta_req = con.summary["beta_requirement"]
    assert con.summary["empirical_beta_largest_n"] <= beta_req
    assert con.summary["verdict"] in ("consistent-witness",
                                      "purely-consistent-witness")

    inc = run_suite("inconsistency")
    assert inc.passed
    assert inc.summary["quad_power_excess_largest_n"] <= 0.05
    r_vals = inc.summary["quad_noncentralities"]
    assert all(b < a for a, b in zip(r_vals, r_vals[1:]))
    idx = inc.summary["cvm_indices"]
    assert all(b < a for a, b in zip(idx, idx[1:]))
    assert inc.summary["verdict"] == "inconsistent-witness"

    print(f"criterion 4: PASS (consistent beta "
          f"{con.summary['empirical_beta_largest_n']:.4f} <= {beta_req:.2f}; "
          f"inconsistent excess "
          f"{inc.summary['quad_power_excess_largest_n']:.4f})")


def test_criterion_05_interaction_gap():
    res = run_suite("interaction")
    assert res.passed
    for family in ("quad", "chi2"):
        gaps = res.summary[family]["gaps"]
        assert gaps[-1] <= 0.06
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
    print(f"criterion 5: PASS (quad gaps {res.summary['quad']['gaps'][-1]:.4f},"
          f" chi2 gaps {res.summary['chi2']['gaps'][-1]:.4f} at largest n)")


def test_criterion_06_head_information():
    res = run_suite("purity")
    assert res.passed
    columns, rows = res.tables["purity_power"]
    i_delta = columns.index("delta")
    i_gap = columns.index("empirical_gap")
    checked = 0
    for row in rows:
        if row[i_delta] <= 0.1:
            assert row[i_gap] <= 0.06
            checked += 1
    assert checked > 0
    print(f"criterion 6: PASS ({checked} rows with delta <= 0.1, max gap "
          f"{max(r[i_gap] for r in rows):.4f})")


def test_criterion_07_compactness():
    res = run_suite("compactness")
    assert res.passed
    assert res.summary["final_excess"] <= 0.05
    assert res.summary["monotone_within_noise"]
    assert res.summary["widths_max_error"] <= 1e-9
    print(f"criterion 7: PASS (final excess "
          f"{res.summary['final_excess']:.4f}, widths error "
          f"{res.summary['widths_max_error']:.2e})")


def test_criterion_08_unbiasedness():
    res = run_suite("unbiasedness")
    assert res.passed
    columns, rows = res.tables["unbiasedness_shifts"]
    assert len(rows) == 20
    i_ok = columns.index("ok")
    assert all(row[i_ok] for row in rows)
    worst = min(row[columns.index("excess")] for row in rows)
    print(f"criterion 8: PASS (20 shifts, worst excess {worst:.4f})")


def test_criterion_09_smoothness_machinery():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        J = int(rng.integers(1, 200))
        energy = rng.random(J) * rng.random(J)
        s = float(rng.uniform(0.1, 2.0))
        got = besov_seminorm(SignalSpec(Basis.COSINE_PI, np.sqrt(energy)), s)
        want = seminorm_grid_oracle(energy, s)
        worst = max(worst, abs(got - want) / max(1.0, want))
    assert worst <= 1e-12

    # truncation tail bound on constructed smoothness-body members
    family = kernel_family(0.25)
    s = smoothness_of(family)
    seq = make_spike_tail(family, [16, 64, 256, 1024],
                          [1.0, 1.5, 2.25, 3.375], 1.0)
    for n in seq.n_list:
        sig = seq.signals[n]
        p0 = besov_seminorm(sig, s) * (1.0 + 1e-12)
        rep = tail_bound_check(sig, s, p0, family.r, n, C1=1.0)
        assert rep.ok

    # head-band members stay uniformly inside the calibrated body
    family = kernel_family(0.3)
    s = smoothness_of(family)
    c2, norm_const = 2.0, 1.2
    seq = make_consistent(family, c2, "spread", [256, 1024, 4096], norm_const)
    bound = c2 ** (2.0 * s) * norm_const ** 2
    for n in seq.n_list:
        sig = seq.signals[n]
        sem = besov_seminorm(sig, s)
        assert sem <= bound * (1.0 + 1e-9)
        rep = tail_bound_check(sig, s, bound, family.r, n, C1=4.0)
        assert rep.ok

    print(f"criterion 9: PASS (seminorm worst rel {worst:.2e}, tail and "
          f"head-band checks on two constructed sequences)")


def test_criterion_10_determinism(tmp_path):
    for name, cfg in (("consistency", {"replicates": 400}),
                      ("compactness", {"replicates": 2000,
                                       "table_replicates": 20000})):
        res_a = run_suite(name, cfg, threads=1)
        res_b = run_suite(name, cfg, threads=4)
        dir_a, dir_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        write_result(res_a, dir_a)
        write_result(res_b, dir_b)
        for table in res_a.tables:
            a = (dir_a / f"{table}.csv").read_bytes()
            b = (dir_b / f"{table}.csv").read_bytes()
            assert a == b
    print("criterion 10: PASS (thread counts 1 and 4 give byte-identical "
          "CSVs for two suites)")
