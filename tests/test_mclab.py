"""Monte Carlo engine: substream determinism, pairing, estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniconsist import chi2, cvm
from uniconsist.chi2 import Chi2Config, chi2_statistic
from uniconsist.cvm import build_cvm_null_table, cvm_statistic
from uniconsist.errors import ValidationError
from uniconsist.kernel import (KernelObservations, KernelTestConfig,
                               box_kernel, kernel_statistic_fourier)
from uniconsist.mclab import (MCConfig, MCEstimate, chi2_rejections,
                              cvm_rejections, estimate_columns, estimate_power,
                              estimate_size, fixed_rejections,
                              kernel_rejections, paired_excess, power_row,
                              quad_rejections, wilson_interval)
from uniconsist.quad import (FixedKappa, QuadTestConfig, build_profile,
                             decide_and_predict, fixed_kappa_statistic)
from uniconsist.rng import (STREAM_IID, STREAM_SEQUENCE_MODEL, substream)
from uniconsist.signals import (Basis, DensitySpec, SignalSpec, invert_cdf,
                                sample_iid)

PROFILE = build_profile(r=0.3, gamma=2.0, c=1.0, J=256, n_list=[64])
QCFG = QuadTestConfig(profile=PROFILE, alpha=0.05)
MC = MCConfig(replicates=600, seed=42)


def test_mcconfig_validations():
    with pytest.raises(ValidationError):
        MCConfig(replicates=50)
    with pytest.raises(ValidationError):
        MCConfig(replicates=100, threads=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 500), st.integers(1, 500))
def test_wilson_contains_point_estimate(successes, trials):
    successes = min(successes, trials)
    lo, hi = wilson_interval(successes, trials)
    p = successes / trials
    assert lo - 1e-12 <= p <= hi + 1e-12
    assert -1e-12 <= lo and hi <= 1.0 + 1e-12


def test_wilson_validation():
    with pytest.raises(ValidationError):
        wilson_interval(0, 0)


def test_mcestimate_from_successes():
    est = MCEstimate.from_successes(30, 600)
    assert est.estimate == pytest.approx(0.05)
    assert est.std_error == pytest.approx(math.sqrt(0.05 * 0.95 / 600))
    assert est.ci_lo < 0.05 < est.ci_hi
    assert est.replicates == 600


def test_substreams_are_stable_keys():
    a = substream(7, STREAM_IID, 3).random(5)
    b = substream(7, STREAM_IID, 3).random(5)
    c = substream(7, STREAM_IID, 4).random(5)
    d = substream(8, STREAM_IID, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_quad_rejections_thread_invariance():
    theta = np.zeros(PROFILE.J)
    theta[0] = 0.5
    rej1 = quad_rejections(MCConfig(600, seed=1, threads=1), QCFG, 64,
                           [None, theta])
    rej4 = quad_rejections(MCConfig(600, seed=1, threads=4), QCFG, 64,
                           [None, theta])
    assert np.array_equal(rej1, rej4)
    assert rej1.shape == (600, 2)


def _kernel_run(mc):
    cfg = KernelTestConfig(kernel=box_kernel(), alpha=0.05, h=0.1)
    sig = SignalSpec(Basis.TRIG_FULL, np.array([[0.3, 0.1]]))
    return kernel_rejections(mc, cfg, 64, [None, sig], 32)


def _chi2_run(mc):
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.4])))
    return chi2_rejections(mc, Chi2Config(alpha=0.05, m=8), 100, [None, dens])


def _cvm_run(mc):
    table = build_cvm_null_table([0.05], replicates=4000, seed=9, J_null=256)
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.5])))
    return cvm_rejections(mc, table, 0.05, 50, [None, dens])


def _fixed_run(mc):
    j = np.arange(1, 65, dtype=float)
    fk = FixedKappa(1.0 / (math.pi ** 2 * j ** 2), np.linspace(0.5, 1.5, 64))
    eta = np.zeros(64)
    eta[0] = 1.0
    return fixed_rejections(mc, fk, 0.3, [None, eta])


@pytest.mark.parametrize("run", [_kernel_run, _chi2_run, _cvm_run, _fixed_run],
                         ids=["kernel", "chi2", "cvm", "fixed"])
def test_rejections_thread_invariance(run):
    """Every family's matrix is the same at 1 and 4 threads (two blocks)."""
    rej1 = run(MCConfig(600, seed=1, threads=1))
    rej4 = run(MCConfig(600, seed=1, threads=4))
    assert np.array_equal(rej1, rej4)
    assert rej1.shape == (600, 2)
    assert 0 < rej1.sum() < rej1.size


def test_quad_rejections_match_single_decision():
    """Replicate i of a run equals a fresh decision on the same substream draw."""
    theta = np.zeros(PROFILE.J)
    theta[1] = 0.4
    rej = quad_rejections(MC, QCFG, 64, [theta])
    for i in (0, 17, 599):
        xi = substream(MC.seed, STREAM_SEQUENCE_MODEL, i).standard_normal(PROFILE.J)
        y = theta + xi / math.sqrt(64)
        rep = decide_and_predict(y, QCFG, 64)
        assert rej[i, 0] == rep.reject


def _three_thetas():
    thetas = np.zeros((3, PROFILE.J))
    thetas[0, 0] = 0.5
    thetas[1, 1] = 0.4
    thetas[2, :8] = 0.15
    return list(thetas)


def test_quad_rejections_three_variants_match_decisions():
    """Every column of a 3-variant run equals decide_and_predict on the
    replicate's own draw, so the shared cross-term GEMM decides as the
    per-observation statistic does."""
    thetas = _three_thetas()
    rej = quad_rejections(MC, QCFG, 64, thetas)
    assert rej.shape == (MC.replicates, 3)
    for i in range(MC.replicates):
        xi = substream(MC.seed, STREAM_SEQUENCE_MODEL, i).standard_normal(PROFILE.J)
        for v, theta in enumerate(thetas):
            rep = decide_and_predict(theta + xi / math.sqrt(64), QCFG, 64)
            assert rej[i, v] == rep.reject
    assert 0 < rej.sum() < rej.size


def test_gemm_engines_thread_invariance_many_variants():
    """quad at V = 3 and fixed at V = 4: same matrix at 1 and 4 threads."""
    j = np.arange(1, 65, dtype=float)
    fk = FixedKappa(1.0 / (math.pi ** 2 * j ** 2), np.linspace(0.5, 1.5, 64))
    etas = [None] + [np.eye(64)[k] * (0.5 + k) for k in range(3)]
    runs = [(quad_rejections, QCFG, 64, _three_thetas()),
            (fixed_rejections, fk, 0.3, etas)]
    for fn, cfg, arg, variants in runs:
        rej1 = fn(MCConfig(600, seed=1, threads=1), cfg, arg, variants)
        rej4 = fn(MCConfig(600, seed=1, threads=4), cfg, arg, variants)
        assert rej1.shape == (600, len(variants))
        assert np.array_equal(rej1, rej4)
        assert 0 < rej1.sum() < rej1.size


def test_quad_pairing_shares_noise():
    """Columns differ only through theta: the null column rejects whenever
    a dominating signal column would accept less often."""
    theta = np.zeros(PROFILE.J)
    theta[0] = 1.0
    rej = quad_rejections(MC, QCFG, 64, [None, theta])
    # strong signal: signal column dominates the null column on shared noise
    assert rej[:, 1].sum() > rej[:, 0].sum()


def test_theta_rows_validations():
    with pytest.raises(ValidationError):
        quad_rejections(MC, QCFG, 64,
                        [np.ones(PROFILE.J + 1)])
    ok = np.zeros(PROFILE.J + 5)
    ok[0] = 0.1
    rej = quad_rejections(MCConfig(100, seed=0), QCFG, 64, [ok])
    assert rej.shape == (100, 1)
    with pytest.raises(ValidationError):
        quad_rejections(MC, QCFG, 64,
                        [SignalSpec(Basis.TRIG_FULL, np.zeros((2, 2)))])


def test_kernel_rejections_match_statistic():
    cfg = KernelTestConfig(kernel=box_kernel(), alpha=0.05, h=0.1)
    J = 32
    sig = SignalSpec(Basis.TRIG_FULL, np.array([[0.3, 0.1]]))
    rej = kernel_rejections(MC, cfg, 64, [None, sig], J)
    pair_sig = np.zeros((J, 2))
    pair_sig[0] = [0.3, 0.1]
    for i in (0, 5, 311):
        z = substream(MC.seed, STREAM_SEQUENCE_MODEL, i).standard_normal(1 + 2 * J)
        y0 = z[0] / math.sqrt(64)
        noise = z[1:].reshape(J, 2) / math.sqrt(64)
        stat0 = kernel_statistic_fourier(
            KernelObservations(y0=y0, pairs=noise), cfg, 64)
        stat1 = kernel_statistic_fourier(
            KernelObservations(y0=y0, pairs=pair_sig + noise), cfg, 64)
        assert rej[i, 0] == (stat0 >= cfg.x_alpha)
        assert rej[i, 1] == (stat1 >= cfg.x_alpha)
    with pytest.raises(ValidationError):
        kernel_rejections(MC, cfg, 64, [np.zeros(3)], J)


def test_chi2_rejections_match_statistic():
    cfg = Chi2Config(alpha=0.05, m=8)
    n = 100
    sig = SignalSpec(Basis.COSINE_PI, np.array([0.4]))
    dens = DensitySpec(sig)
    rej = chi2_rejections(MC, cfg, n, [None, dens])
    for i in (0, 99, 420):
        u = substream(MC.seed, STREAM_IID, i).random(n)
        stat_null = chi2_statistic(u, 8)
        x = invert_cdf(dens, u)
        stat_alt = chi2_statistic(x, 8)
        crit = cfg.x_alpha * math.sqrt(16.0) + 7.0
        assert rej[i, 0] == (stat_null > crit)
        assert rej[i, 1] == (stat_alt > crit)
    with pytest.raises(ValidationError):
        chi2_rejections(MC, cfg, n, [sig])  # signals must be wrapped


def test_cvm_rejections_match_statistic():
    table = build_cvm_null_table([0.05], replicates=4000, seed=9, J_null=256)
    n = 50
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.5])))
    rej = cvm_rejections(MC, table, 0.05, n, [None, dens])
    crit = table.critical(0.05)
    for i in (0, 3, 577):
        u = substream(MC.seed, STREAM_IID, i).random(n)
        assert rej[i, 0] == (cvm_statistic(u) > crit)
        assert rej[i, 1] == (cvm_statistic(invert_cdf(dens, u)) > crit)


def test_fixed_rejections_match_statistic():
    j = np.arange(1, 65, dtype=float)
    fk = FixedKappa(1.0 / (math.pi ** 2 * j ** 2))
    eta = np.zeros(64)
    eta[0] = 1.0
    critical = 0.46
    rej = fixed_rejections(MC, fk, critical, [None, eta])
    for i in (0, 40, 599):
        xi = substream(MC.seed, STREAM_SEQUENCE_MODEL, i).standard_normal(64)
        assert rej[i, 0] == (fixed_kappa_statistic(xi, fk) > critical)
        assert rej[i, 1] == (fixed_kappa_statistic(eta + xi, fk) > critical)
    with pytest.raises(ValidationError):
        fixed_rejections(MC, fk, critical, [np.zeros(3)])


def test_iid_pairing_shares_uniforms():
    """chi2 and cvm variants are driven by the same uniforms per replicate."""
    cfg = Chi2Config(alpha=0.05, m=8)
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.0])))
    rej = chi2_rejections(MCConfig(400, seed=3), cfg, 64, [None, dens])
    # the flat density equals the null: identical columns, not just close
    assert np.array_equal(rej[:, 0], rej[:, 1])


def test_estimate_size_and_power_dispatch():
    est = estimate_size(QCFG, 64, MCConfig(2000, seed=11))
    assert 0.02 <= est.estimate <= 0.09
    theta = np.zeros(PROFILE.J)
    theta[0] = 0.8
    pow_est = estimate_power(QCFG, theta, 64, MCConfig(2000, seed=11))
    assert pow_est.estimate > est.estimate
    table = build_cvm_null_table([0.05], replicates=4000, seed=5, J_null=256)
    with pytest.raises(ValidationError):
        estimate_size(table, 50, MCConfig(200, seed=0))
    est_cvm = estimate_size(table, 50, MCConfig(400, seed=0), alpha=0.05)
    assert 0.0 <= est_cvm.estimate <= 0.2
    sig = SignalSpec(Basis.COSINE_PI, np.array([0.4]))
    pow_cvm = estimate_power(table, sig, 50, MCConfig(400, seed=0), alpha=0.05)
    assert pow_cvm.estimate >= 0.0
    fk = FixedKappa(np.array([0.5, 0.25]))
    with pytest.raises(ValidationError):
        estimate_size(fk, 10, MCConfig(200, seed=0))
    est_fk = estimate_size(fk, 10, MCConfig(200, seed=0), critical=2.0)
    assert 0.0 <= est_fk.estimate <= 1.0
    with pytest.raises(ValidationError):
        estimate_size(object(), 64, MCConfig(200, seed=0))
    with pytest.raises(ValidationError):
        estimate_power(table, object(), 50, MCConfig(200, seed=0), alpha=0.05)


def test_estimate_columns_and_paired_excess():
    rej = np.array([[True, False], [True, True], [False, False],
                    [True, False]])
    ests = estimate_columns(rej)
    assert ests[0].estimate == 0.75
    assert ests[1].estimate == 0.25
    pe = paired_excess(rej, 0, 1)
    d = np.array([1.0, 0.0, 0.0, 1.0])
    assert pe["difference"] == pytest.approx(d.mean())
    assert pe["std_error"] == pytest.approx(d.std(ddof=1) / 2.0)


def test_power_report_row():
    row = power_row(64, 0.05, 0.52, 0.5, band=0.05)
    assert row["within_band"]
    assert row["abs_gap"] == pytest.approx(0.02)
    assert row["n"] == 64
    assert not power_row(64, 0.05, 0.6, 0.5, band=0.05)["within_band"]


@st.composite
def engine_densities(draw):
    """Low-frequency densities on all three bases (SinePi at even j, where
    the terms integrate to zero), with 1 + f >= 0 by the coefficient sum."""
    basis = draw(st.sampled_from(list(Basis)))
    step = 2 if basis is Basis.SINE_PI else 1
    J = step * draw(st.integers(1, 3))
    coeffs = np.zeros((J, 2) if basis is Basis.TRIG_FULL else J)
    terms = slice(step - 1, None, step)
    size = coeffs[terms].size
    coeffs[terms] = np.reshape(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)),
        coeffs[terms].shape)
    total = math.sqrt(2.0) * np.abs(coeffs).sum()
    if total > 1.0:
        coeffs /= total
    return DensitySpec(SignalSpec(basis, coeffs))


CVM_TABLE = build_cvm_null_table([0.05], replicates=2000, seed=5, J_null=128)


@settings(max_examples=15, deadline=None)
@given(engine_densities(), st.integers(10, 150), st.integers(2, 12),
       st.integers(0, 2 ** 31))
def test_iid_rejections_equal_public_path(dens, n, m, seed):
    """Each engine row equals the per-replicate public path on the same
    substream: sample_iid, then chi2.decide_and_predict or cvm.decide."""
    mc = MCConfig(100, seed=seed)
    cfg = Chi2Config(alpha=0.05, m=m)
    rej_chi2 = chi2_rejections(mc, cfg, n, [None, dens])
    rej_cvm = cvm_rejections(mc, CVM_TABLE, 0.05, n, [None, dens])
    for i in range(mc.replicates):
        for v, variant in enumerate([None, dens]):
            gen = substream(seed, STREAM_IID, i)
            points = gen.random(n) if variant is None else sample_iid(variant, n, gen)
            assert rej_chi2[i, v] == chi2.decide_and_predict(points, cfg, n).reject
            assert rej_cvm[i, v] == cvm.decide(points, CVM_TABLE, 0.05).reject
