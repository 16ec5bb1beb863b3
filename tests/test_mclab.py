"""Monte Carlo engine: substream determinism, pairing, estimates."""

import hashlib
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import exact_power, wilson_interval_at
from uniconsist import chi2, cvm, mclab
from uniconsist.alternatives import make_consistent, quad_family
from uniconsist.chi2 import Chi2Config, chi2_statistic
from uniconsist.cvm import build_cvm_null_table, cvm_statistic
from uniconsist.errors import ValidationError
from uniconsist.kernel import (KernelObservations, KernelTestConfig,
                               box_kernel, decide_and_predict as kernel_decide,
                               kernel_form, kernel_statistic_fourier,
                               sample_kernel_observations)
from uniconsist.mclab import (MCConfig, MCEstimate, chi2_rejections,
                              cvm_rejections, estimate_columns, estimate_power,
                              estimate_size, fixed_rejections,
                              kernel_rejections, paired_excess, power_row,
                              quad_rejections, quad_sweep, wilson_interval)
from uniconsist.quad import (FixedKappa, QuadraticForm, QuadTestConfig,
                             build_profile, decide_and_predict,
                             fixed_kappa_statistic, weighted_square_sums)
from uniconsist.rng import (STREAM_IID, STREAM_SEQUENCE_MODEL, substream,
                            substreams)
from uniconsist.signals import (Basis, DensitySpec, NoiseModel, SignalSpec,
                                invert_cdf, sample_iid)
from uniconsist.suites import CONSISTENCY_DEFAULT

PROFILE = build_profile(r=0.3, gamma=2.0, c=1.0, J=256, n_list=[64])
QCFG = QuadTestConfig(profile=PROFILE, alpha=0.05)
MC = MCConfig(replicates=600, seed=42)


def test_mcconfig_validations():
    with pytest.raises(ValidationError):
        MCConfig(replicates=50)
    with pytest.raises(ValidationError):
        MCConfig(replicates=100, threads=0)


@pytest.mark.parametrize("replicates", [100.5, 200.0, True, "200", None])
def test_mcconfig_replicates_must_be_an_int(replicates):
    with pytest.raises(ValidationError, match="replicates must be an integer"):
        MCConfig(replicates=replicates)


@pytest.mark.parametrize("threads", [2.5, 1.0, True, "2"])
def test_mcconfig_threads_must_be_an_int(threads):
    with pytest.raises(ValidationError, match="threads must be an integer"):
        MCConfig(replicates=100, threads=threads)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, "7", None])
def test_mcconfig_seed_checked_at_construction(seed):
    """A bad seed fails when the config is built, before any draw."""
    with pytest.raises(ValidationError, match="seed must be an integer"):
        MCConfig(replicates=100, seed=seed)


def test_mcconfig_takes_numpy_integers():
    mc = MCConfig(np.int64(200), seed=np.uint64(2 ** 63), threads=np.int32(2))
    assert mc.replicates == 200 and mc.threads == 2


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


KCFG = KernelTestConfig(kernel=box_kernel(), alpha=0.05, h=0.1)
KERNEL_J = 16


def _kernel_variants():
    """The zero signal, a sine coefficient, and support at the truncation J."""
    sine = np.zeros((KERNEL_J, 2))
    sine[2, 1] = 0.3
    edge = np.zeros((KERNEL_J, 2))
    edge[KERNEL_J - 1] = [0.2, -0.25]
    return [SignalSpec(Basis.TRIG_FULL, np.zeros((KERNEL_J, 2))),
            SignalSpec(Basis.TRIG_FULL, sine), SignalSpec(Basis.TRIG_FULL, edge)]


def test_gemm_engines_thread_invariance_many_variants():
    """quad and kernel at V = 3, fixed at V = 4: same matrix at 1 and 4 threads."""
    j = np.arange(1, 65, dtype=float)
    fk = FixedKappa(1.0 / (math.pi ** 2 * j ** 2), np.linspace(0.5, 1.5, 64))
    etas = [None] + [np.eye(64)[k] * (0.5 + k) for k in range(3)]
    runs = [(quad_rejections, QCFG, 64, _three_thetas()),
            (fixed_rejections, fk, 0.3, etas),
            (partial(kernel_rejections, J=KERNEL_J), KCFG, 64, _kernel_variants())]
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


def test_kernel_rejections_every_cell_matches_statistic():
    """Each cell of a 600 x 3 run is the library decision on that replicate's draw."""
    variants = _kernel_variants()
    rej = kernel_rejections(MC, KCFG, 64, variants, KERNEL_J)
    assert rej.shape == (600, 3)
    noise = NoiseModel(KCFG.noise_sigma, 64)
    for i in range(600):
        for v, sig in enumerate(variants):
            obs = sample_kernel_observations(
                sig, noise, substream(MC.seed, STREAM_SEQUENCE_MODEL, i))
            stat = kernel_statistic_fourier(obs, KCFG, 64)
            assert rej[i, v] == (stat >= KCFG.x_alpha), (i, v)
    assert 0 < rej[:, 0].sum() < rej[:, 1].sum() and rej[:, 2].sum() < 600


def test_kernel_block_allocates_no_per_variant_copies():
    """One 512-row block at V = 3 peaks below 1.5 noise blocks of traced memory."""
    J = 2048
    cfg = KernelTestConfig(kernel=box_kernel(), alpha=0.05, h=1.0 / 1024)
    sig = np.zeros((J, 2))
    sig[J - 1] = [0.1, 0.1]
    variants = [None, SignalSpec(Basis.TRIG_FULL, sig),
                SignalSpec(Basis.TRIG_FULL, sig[::-1].copy())]
    block_bytes = 512 * (1 + 2 * J) * 8
    tracemalloc.start()
    try:
        kernel_rejections(MCConfig(512, seed=3, threads=1), cfg, 4096, variants, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block_bytes, peak / block_bytes


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


def _pinned_quad(mc):
    profile = build_profile(r=0.3, gamma=2.0, c=1.0, J=256, n_list=[64],
                            sigma=1.5)
    thetas = [None] + [1.5 * t for t in _three_thetas()]
    return quad_rejections(mc, QuadTestConfig(profile, 0.05), 64, thetas)


def _pinned_kernel(mc):
    cfg = KernelTestConfig(kernel=box_kernel(), alpha=0.05, noise_sigma=0.7,
                           h_rule=(0.3, 2.0))
    variants = [None] + [SignalSpec(Basis.TRIG_FULL, 0.7 * sig.coeffs)
                         for sig in _kernel_variants()[1:]]
    return kernel_rejections(mc, cfg, 64, variants, KERNEL_J)


def _pinned_fixed(mc):
    j = np.arange(1, 65, dtype=float)
    fk = FixedKappa(1.0 / (math.pi ** 2 * j ** 2), np.linspace(0.5, 1.5, 64))
    return fixed_rejections(mc, fk, 0.12,
                            [None] + [np.eye(64)[k] * (0.5 + k) for k in range(3)])


# SHA-256 of np.packbits of each family's (600 x V) rejection matrix at seed
# 2024, recorded before the quadratic-form refactor of quad, kernel and
# fixed. Decisions are booleans, so BLAS rounding moves them only at ties.
PINNED_DECISIONS = {
    "quad": (_pinned_quad,
             "2a25ab44b9bef0a24eabf4764b9f34af1b5dc5c799b0fab6aa6c4fbd9b99ed2c"),
    "kernel": (_pinned_kernel,
               "197ad6f6c2ea1ede00408d59312c66213ef2289cbbf4cfe18580f9437105b66c"),
    "fixed": (_pinned_fixed,
              "416a0517b65c5127b71f5f19c71339d0574f39fad6932f98d66a07d1fa0d9b9e"),
    "chi2": (_chi2_run,
             "4c651ed63dbac3b57d4c74d541f7dabd4fc6310f54bf508f44f2cce53268152a"),
    "cvm": (_cvm_run,
            "bc663a73d44d7005f91d6f9308fe043a3ed326fc7b9e077df3454c7dbc054857"),
}


@pytest.mark.parametrize("family", sorted(PINNED_DECISIONS))
def test_engine_decisions_pinned(family):
    """Each family's rejection matrix at a small config keeps its recorded
    bytes, so a rewrite of the statistic or of the engine changes no
    decision."""
    run, digest = PINNED_DECISIONS[family]
    rej = run(MCConfig(600, seed=2024))
    assert rej.dtype == bool and 0 < rej.sum() < rej.size
    got = hashlib.sha256(repr(rej.shape).encode()
                         + np.packbits(rej).tobytes()).hexdigest()
    assert got == digest


def _consistency_quad(n: int):
    """The ``consistency`` suite's quad test and its alternative at n."""
    q = CONSISTENCY_DEFAULT["quad"]
    profile = build_profile(q["r"], q["gamma"], q["c"], q["J"], [n])
    sig = make_consistent(quad_family(profile), q["c2"], q["mass_profile"],
                          [n], q["norm_const"]).signals[n]
    row = np.zeros(profile.J)
    row[:sig.coeffs.size] = sig.coeffs
    return QuadTestConfig(profile, CONSISTENCY_DEFAULT["alpha"]), sig, row


def test_quad_exact_size_and_beta_at_consistency_config():
    """The Gaussian-calibrated quad test of ``consistency`` at n = 512 has
    exact size 0.05523 and exact type II error 0.50919 (its Gaussian
    prediction is 0.4952)."""
    test, _, row = _consistency_quad(512)
    form = test.profile.form(512)
    assert exact_power(form, test.x_alpha) == pytest.approx(0.05523, abs=1e-4)
    assert 1.0 - exact_power(form, test.x_alpha, row) == pytest.approx(
        0.50919, abs=1e-4)


def _assert_within_exact_law(rej, form, critical, rows):
    """Each column's rejection rate lies within its Wilson interval of the
    exact power. The intervals have level 1 - 0.001 / len(rows) each
    (Bonferroni), so on correct code this fails with probability <= 0.001."""
    z = stats.norm.isf(0.001 / (2 * len(rows)))
    for v, row in enumerate(rows):
        exact = exact_power(form, critical, row)
        lo, hi = wilson_interval_at(int(rej[:, v].sum()), rej.shape[0], z)
        assert lo <= exact <= hi, (v, exact, lo, hi)


def test_quad_rejections_match_exact_law():
    """Size and power of the quad engine at the ``consistency`` config,
    n = 512, against Imhof's exact law of the profile's form."""
    test, sig, row = _consistency_quad(512)
    rej = quad_rejections(MCConfig(10000, seed=2024), test, 512, [None, sig])
    _assert_within_exact_law(rej, test.profile.form(512), test.x_alpha,
                             [None, row])


def test_kernel_rejections_match_exact_law():
    """Size and power of the kernel engine (box, h = 0.1, n = 64, J = 128)
    against Imhof's exact law of ``kernel_form``; the exact size is 0.0688."""
    coeffs = np.zeros((128, 2))
    coeffs[0, 0] = 0.3
    coeffs[1, 1] = 0.15
    rej = kernel_rejections(MCConfig(20000, seed=2024), KCFG, 64,
                            [None, SignalSpec(Basis.TRIG_FULL, coeffs)], 128)
    # coordinates (y0, a_1, b_1, a_2, b_2, ...): no signal at frequency 0
    _assert_within_exact_law(rej, kernel_form(KCFG, 64, 128), KCFG.x_alpha,
                             [None, np.r_[0.0, coeffs.ravel()]])


@pytest.mark.parametrize("n, J", [(0, 8), (-3, 8), (64, 0), (64, -1)])
@pytest.mark.parametrize("cfg", [KCFG, KernelTestConfig(
    kernel=box_kernel(), alpha=0.05, h_rule=(0.3, 2.0))], ids=["h", "h_rule"])
def test_kernel_nonpositive_n_or_J_rejected(cfg, n, J):
    """A sample size or truncation below 1 is a ValidationError on the
    engine, the estimate and the library paths, whatever the bandwidth."""
    with pytest.raises(ValidationError, match="n >= 1 and J >= 1"):
        kernel_rejections(MC, cfg, n, [None], J)
    with pytest.raises(ValidationError, match="n >= 1 and J >= 1"):
        estimate_size(cfg, n, MCConfig(100), J=J)
    obs = KernelObservations(y0=0.0, pairs=np.zeros((max(J, 0), 2)))
    with pytest.raises(ValidationError, match="n >= 1 and J >= 1"):
        kernel_decide(obs, cfg, n)


_FK = FixedKappa(np.array([0.5, 0.25]))


def _theta_with(value):
    theta = np.zeros(PROFILE.J)
    theta[3] = value
    return theta


@pytest.mark.parametrize("run", [
    lambda mc: fixed_rejections(mc, _FK, math.nan, [None]),
    lambda mc: fixed_rejections(mc, _FK, -math.inf, [None]),
    lambda mc: estimate_power(_FK, None, 10, mc, critical=math.inf),
    lambda mc: fixed_rejections(mc, _FK, 2.0, [np.array([math.inf, 0.0])]),
    lambda mc: quad_rejections(mc, QCFG, 64, [_theta_with(math.inf)]),
    lambda mc: quad_rejections(mc, QCFG, 64, [None, _theta_with(math.nan)]),
], ids=["fixed-critical-nan", "fixed-critical-minus-inf",
        "estimate-power-critical-inf", "fixed-shift-inf", "quad-theta-inf",
        "quad-theta-nan"])
def test_non_finite_inputs_rejected(run):
    """A non-finite critical value or coefficient row is a ValidationError,
    not a rejection rate."""
    with pytest.raises(ValidationError, match="finite"):
        run(MCConfig(100, seed=0))


@pytest.mark.parametrize("run, why", [
    (lambda mc: kernel_rejections(mc, KCFG, 64, [None, SignalSpec(
        Basis.COSINE_PI, np.array([0.3]))], KERNEL_J), "TrigFull"),
    (lambda mc: kernel_rejections(mc, KCFG, 64, [None, SignalSpec(
        Basis.TRIG_FULL, np.full((KERNEL_J + 1, 2), 0.1))], KERNEL_J),
     f"beyond the {2 * KERNEL_J + 1} of the test"),
    (lambda mc: fixed_rejections(mc, _FK, 2.0, [None, np.zeros(3)]),
     r"shape \(2,\)"),
    (lambda mc: quad_rejections(mc, QCFG, 64, [None, SignalSpec(
        Basis.TRIG_FULL, np.array([[0.3, 0.4]]))]), "1-D-basis signal"),
], ids=["kernel-1-d-signal", "kernel-past-J", "fixed-wrong-length",
        "quad-trigfull"])
def test_variant_errors_name_the_variant(run, why):
    """Each family's coordinate map refuses the variant; the engine names
    its index."""
    with pytest.raises(ValidationError, match=f"variant 1: .*{why}"):
        run(MCConfig(100, seed=0))


SWEEP_PROFILE = build_profile(r=0.3, gamma=2.0, c=1.0, J=256,
                              n_list=[32, 64, 128, 256])
SWEEP_CFG = QuadTestConfig(SWEEP_PROFILE, 0.05)


def _sweep_variants():
    """A different number of variants at each n; None at three of the four."""
    thetas = _three_thetas()
    return {32: [None], 64: [None, thetas[0]], 128: thetas,
            256: [None, thetas[2], thetas[1], 2.0 * thetas[0]]}


@pytest.mark.parametrize("threads", [1, 3])
def test_quad_sweep_equals_quad_rejections_at_every_n(threads):
    """Each n's matrix is exactly the one a separate quad_rejections call
    gives at that n, across two blocks and any thread count."""
    mc = MCConfig(600, seed=5, threads=threads)
    variants = _sweep_variants()
    got = quad_sweep(mc, SWEEP_CFG, variants)
    assert list(got) == list(variants)
    for n, thetas in variants.items():
        want = quad_rejections(mc, SWEEP_CFG, n, thetas)
        assert got[n].shape == (600, len(thetas))
        assert np.array_equal(got[n], want), n
    assert 0 < got[256].sum() < got[256].size


def test_quad_sweep_of_one_n_is_quad_rejections():
    mc = MCConfig(600, seed=6)
    thetas = _three_thetas()
    got = quad_sweep(mc, SWEEP_CFG, {128: thetas})
    assert list(got) == [128]
    assert np.array_equal(got[128], quad_rejections(mc, SWEEP_CFG, 128, thetas))


def test_quad_sweep_draws_each_replicate_once(monkeypatch):
    """Four n of R replicates cost R substreams, not 4R."""
    calls = []

    def counted(seed, stream, ids):
        ids = list(ids)
        calls.extend((seed, stream, i) for i in ids)
        return substreams(seed, stream, ids)

    monkeypatch.setattr(mclab, "substreams", counted)
    mc = MCConfig(600, seed=8, threads=2)
    quad_sweep(mc, SWEEP_CFG, _sweep_variants())
    assert sorted(calls) == [(8, STREAM_SEQUENCE_MODEL, i) for i in range(600)]


def test_quad_sweep_block_holds_no_scaled_copy():
    """A four-n sweep's 512-row block peaks below 1.5 noise blocks of
    traced memory: the scales are folded into the weights, not the block."""
    J = 4096
    profile = build_profile(r=0.3, gamma=2.0, c=1.0, J=J,
                            n_list=[512, 1024, 2048, 4096])
    theta = np.zeros(J)
    theta[:16] = 0.05
    variants = {n: [None, theta, 2.0 * theta] for n in profile.n_list}
    tracemalloc.start()
    try:
        quad_sweep(MCConfig(512, seed=3), QuadTestConfig(profile, 0.05), variants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 512 * J * 8, peak / (512 * J * 8)


@pytest.mark.parametrize("variants, why", [
    ({}, "at least one n"),
    ({64: [None], 128: [None, np.full(SWEEP_PROFILE.J + 1, 0.1)]},
     "n = 128: variant 1: .*beyond the 256"),
    ({64: [None], 128: [_theta_with(math.nan)]}, "n = 128: variant 0: .*finite"),
], ids=["empty", "past-J", "non-finite"])
def test_quad_sweep_errors_name_the_n(variants, why):
    with pytest.raises(ValidationError, match=why):
        quad_sweep(MCConfig(100, seed=0), SWEEP_CFG, variants)


def test_quad_sweep_refuses_n_outside_the_profile():
    with pytest.raises(ValidationError, match="n = 100 not in profile"):
        quad_sweep(MCConfig(100, seed=0), SWEEP_CFG, {64: [None], 100: [None]})


def test_forms_of_different_lengths_are_not_scored_together():
    a = QuadraticForm(np.ones(8), 1.0)
    b = QuadraticForm(np.ones(6), 1.0)
    with pytest.raises(ValidationError, match="form 1 has 6, form 0 has 8"):
        mclab._form_rejections(MCConfig(100, seed=0),
                               [(a, 1.0, np.zeros((1, 8))),
                                (b, 1.0, np.zeros((1, 6)))])


@st.composite
def folded_forms(draw):
    """One to three forms on J coordinates, each with scalar or vector
    (FixedKappa sigmas) noise scale, and one to three variant rows each."""
    J = draw(st.integers(1, 40))
    forms = []
    for seed in draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                              max_size=3)):
        gen = np.random.default_rng(seed)
        w = np.sort(gen.uniform(0.01, 2.0, J))[::-1]
        if draw(st.booleans()):
            form = FixedKappa(w, gen.uniform(0.2, 3.0, J)).form()
        else:
            form = QuadraticForm(w, float(gen.uniform(1e-3, 10.0)),
                                 center=float(gen.uniform(0.0, 5.0)))
        rows = draw(st.sampled_from([0.0, 1.0, 1e3])) * gen.standard_normal(
            (draw(st.integers(1, 3)), J))
        forms.append((form, 0.0, rows))
    return forms, draw(st.integers(1, 5)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(folded_forms())
def test_folded_scorer_matches_direct_statistic(case):
    """weighted_square_sums on unscaled xi with the scales folded in, less
    the centre, equals form.statistic(row + scale xi) within float64
    rounding, for scalar and per-coordinate scales."""
    tests, rows_n, seed = case
    xi = np.random.default_rng(seed).standard_normal(
        (rows_n, tests[0][0].weights.size))
    got = weighted_square_sums(xi.copy(), *mclab._fold(tests))
    col = 0
    for form, _, rows in tests:
        for row in rows:
            direct = form.statistic(row + form.scale * xi)
            size = (np.square(form.scale * xi) @ form.weights
                    + np.square(row) @ form.weights + form.center)
            bound = 16.0 * (xi.shape[1] + 2) * np.finfo(float).eps * size
            assert np.all(np.abs(got[:, col] - form.center - direct) <= bound)
            col += 1
    assert col == got.shape[1]
