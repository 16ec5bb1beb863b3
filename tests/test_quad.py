"""Quadratic weighted tests: profiles, statistic, noncentrality, power."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import cvm_null_sample, null_variance, two_term_chisq_sf
from uniconsist.cvm import bridge_weights
from uniconsist.errors import AssumptionError, ValidationError
from uniconsist.kernel import KernelTestConfig, box_kernel, kernel_form
from uniconsist.mclab import MCConfig, quad_rejections
from uniconsist.quad import (FixedKappa, QuadraticForm, QuadTestConfig,
                             build_profile, cumulative_k, decide_and_predict,
                             fixed_kappa_statistic, gaussian_upper_quantile,
                             noncentrality, predict_beta, quad_statistic,
                             weighted_square_sums)
from uniconsist.signals import Basis, SignalSpec


def small_profile(J=512, n_list=(64, 256), r=0.3, gamma=2.0, c=1.0):
    return build_profile(r=r, gamma=gamma, c=c, J=J, n_list=n_list)


def test_gaussian_upper_quantile_identity():
    for alpha in (0.01, 0.05, 0.5, 0.9):
        x = gaussian_upper_quantile(alpha)
        assert abs((1.0 - stats.norm.cdf(x)) - alpha) < 1e-12
    assert gaussian_upper_quantile(0.5) == 0.0
    with pytest.raises(ValidationError):
        gaussian_upper_quantile(0.0)
    with pytest.raises(ValidationError):
        gaussian_upper_quantile(1.0)


def test_build_profile_validations():
    with pytest.raises(AssumptionError):
        build_profile(r=0.25, gamma=0.5, c=1.0, J=64, n_list=[16])
    with pytest.raises(ValidationError):
        build_profile(r=0.5, gamma=2.0, c=1.0, J=64, n_list=[16])
    with pytest.raises(ValidationError):
        build_profile(r=0.0, gamma=2.0, c=1.0, J=64, n_list=[16])
    with pytest.raises(ValidationError):
        build_profile(r=0.25, gamma=2.0, c=-1.0, J=64, n_list=[16])
    with pytest.raises(ValidationError):
        build_profile(r=0.25, gamma=2.0, c=1.0, J=64, n_list=[])
    with pytest.raises(ValidationError):
        build_profile(r=0.25, gamma=2.0, c=1.0, J=64, n_list=[1])
    with pytest.raises(ValidationError, match="n_list repeats n = 16"):
        build_profile(r=0.25, gamma=2.0, c=1.0, J=64, n_list=[16, 16])
    with pytest.raises(ValidationError):
        build_profile(r=0.25, gamma=2.0, c=1.0, J=1, n_list=[16])
    with pytest.raises(ValidationError):
        build_profile(r=0.25, gamma=2.0, c=1.0, J=64, n_list=[16], sigma=0.0)


def test_profile_exponent_relations():
    prof = small_profile(r=0.3, gamma=2.0)
    assert prof.beta_exponent == pytest.approx((2 - 4 * 0.3) * 2.0)
    assert prof.lambda_exponent == pytest.approx(2 - 2 * 0.3 - prof.beta_exponent)
    # weight formula reproduced directly
    n = 64
    j = np.arange(1, prof.J + 1, dtype=float)
    w = n ** (-prof.lambda_exponent) / (j ** 2.0 + 1.0 * n ** prof.beta_exponent)
    assert np.allclose(prof.kappa_sq[n], w, rtol=1e-14)


def test_cumulative_k_boundary_property():
    """Exact definition: prefix below k_n stays within rho/2, adding kappa_{k_n}^2 crosses."""
    prof = small_profile()
    for n in prof.n_list:
        w = prof.kappa_sq[n]
        rho = prof.rho[n]
        kn = prof.k[n]
        assert kn == cumulative_k(w, rho)
        assert float(np.sum(w[:kn - 1])) <= rho / 2.0
        assert float(np.sum(w[:kn])) > rho / 2.0
        assert prof.kappa_n_sq[n] == float(w[kn - 1])


def test_k_n_log_slope_matches_rate():
    # k_n grows like n^{2-4r}; at r = 1/4 the log-log slope is 1
    n_list = [256, 512, 1024, 2048]
    prof = build_profile(r=0.25, gamma=2.0, c=1.0, J=32768, n_list=n_list)
    ks = np.array([prof.k[n] for n in n_list], dtype=float)
    slope = np.polyfit(np.log(n_list), np.log(ks), 1)[0]
    assert abs(slope - 1.0) <= 0.05
    prof2 = build_profile(r=0.3, gamma=2.0, c=1.0, J=32768, n_list=n_list)
    ks2 = np.array([prof2.k[n] for n in n_list], dtype=float)
    slope2 = np.polyfit(np.log(n_list), np.log(ks2), 1)[0]
    assert abs(slope2 - (2 - 4 * 0.3)) <= 0.05


def test_A_n_limit_pi_over_four():
    # gamma = 2, c = 1: A_n -> pi/4 as the Riemann sums converge
    n_list = [64, 256, 1024, 4096]
    prof = build_profile(r=0.3, gamma=2.0, c=1.0, J=65536, n_list=n_list)
    a_vals = np.array([prof.A[n] for n in n_list])
    errs = np.abs(a_vals - math.pi / 4.0)
    assert np.all(np.diff(errs) < 0.0)
    assert errs[-1] < 0.01


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_non_finite_gamma_fails_a1(gamma):
    # refused as weight decay (A1), before the overflow guard could name it
    with pytest.raises(AssumptionError, match="A1: .*finite gamma > 1") as err:
        build_profile(0.3, gamma, 1.0, 64, [16])
    assert err.value.assumption == "A1"


def test_quad_statistic_zero_observation():
    prof = small_profile()
    n = 64
    assert quad_statistic(np.zeros(prof.J), prof, n) == pytest.approx(
        -prof.rho[n] / n)


def test_quad_statistic_hand_value_J3():
    prof = build_profile(r=0.3, gamma=2.0, c=1.0, J=3, n_list=[4])
    y = np.array([0.5, -1.0, 2.0])
    lam = prof.lambda_exponent
    beta = prof.beta_exponent
    w = [4.0 ** (-lam) / (j ** 2 + 4.0 ** beta) for j in (1, 2, 3)]
    want = (w[0] * 0.25 + w[1] * 1.0 + w[2] * 4.0) - sum(w) / 4.0
    assert quad_statistic(y, prof, 4) == pytest.approx(want, rel=1e-14)


def test_quad_statistic_validations():
    prof = small_profile()
    with pytest.raises(ValidationError):
        quad_statistic(np.zeros(prof.J + 1), prof, 64)
    with pytest.raises(ValidationError):
        quad_statistic(np.zeros(prof.J), prof, 65)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(1, 64), st.sampled_from([1, 2, 1023, 8191, 8192])),
       st.integers(1, 6), st.integers(1, 4), st.sampled_from([0.0, 1.0, 1e3, 1e8]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_weighted_square_sums_match_direct_squares(J, rows_n, V, theta_scale,
                                                   banded, seed):
    """The expanded form Sum w xi^2 + 2 xi.(w theta) + Sum w theta^2 equals
    the direct Sum w (theta + xi)^2 within float64 rounding of the terms."""
    gen = np.random.default_rng(seed)
    noise = gen.standard_normal((rows_n, J))
    rows = theta_scale * gen.standard_normal((V, J))
    rows[0] = 0.0                                  # the null variant
    w = 1.0 / np.arange(1, J + 1) ** 2
    if banded:
        w[gen.integers(0, J + 1):] = 0.0           # zero tail, possibly all
    direct = np.stack([np.square(row + noise) @ w for row in rows], axis=1)
    scale = (np.square(noise) @ w)[:, None] + np.square(rows) @ w
    got = weighted_square_sums(rows, w)(noise.copy())
    assert got.shape == (rows_n, V)
    bound = 8.0 * (J + 2) * np.finfo(float).eps * scale
    assert np.all(np.abs(got - direct) <= bound)
    # the zero row is the plain weighted sum of squares, bit for bit
    assert np.array_equal(got[:, 0], np.square(noise) @ w)


def test_weighted_square_sums_consume_noise():
    noise = np.array([[1.0, -2.0], [0.5, 3.0]])
    w = np.array([1.0, 0.25])
    rows = np.array([[0.0, 0.0], [1.0, -1.0]])
    got = weighted_square_sums(rows, w)(noise)
    assert np.array_equal(noise, [[1.0, 4.0], [0.25, 9.0]])
    assert got.tolist() == [[2.0, 6.25], [2.5, 3.25]]


def test_noncentrality_single_spike():
    prof = small_profile()
    n = 256
    theta = np.zeros(prof.J)
    theta[6] = 0.3
    want = n ** 2 * prof.kappa_sq[n][6] * 0.09
    assert noncentrality(theta, prof, n) == pytest.approx(want, rel=1e-14)
    spec = SignalSpec(Basis.COSINE_PI, theta)
    assert noncentrality(spec, prof, n) == pytest.approx(want, rel=1e-14)


def test_noncentrality_additive_over_disjoint_support():
    prof = small_profile()
    a = np.zeros(16); a[2] = 0.5
    b = np.zeros(16); b[9] = 0.7
    r_ab = noncentrality(a + b, prof, 64)
    assert r_ab == pytest.approx(noncentrality(a, prof, 64)
                                 + noncentrality(b, prof, 64), rel=1e-14)


def test_noncentrality_support_beyond_J():
    prof = build_profile(r=0.3, gamma=2.0, c=1.0, J=8, n_list=[16])
    theta = np.zeros(10)
    theta[9] = 0.1
    with pytest.raises(ValidationError):
        noncentrality(theta, prof, 16)
    theta[9] = 0.0
    assert noncentrality(theta, prof, 16) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=12),
       st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=12))
def test_noncentrality_cauchy_perturbation_bound(ta, tb):
    """|R(theta+eta) - R(theta)| <= 2 sqrt(R(theta) R(eta)) + R(eta)."""
    prof = small_profile(J=16)
    L = max(len(ta), len(tb))
    theta = np.zeros(L); theta[:len(ta)] = ta
    eta = np.zeros(L); eta[:len(tb)] = tb
    r_t = noncentrality(theta, prof, 64)
    r_e = noncentrality(eta, prof, 64)
    r_sum = noncentrality(theta + eta, prof, 64)
    assert abs(r_sum - r_t) <= 2.0 * math.sqrt(r_t * r_e) + r_e + 1e-9


def test_noncentrality_monotone_in_energy():
    prof = small_profile(J=16)
    theta = np.full(16, 0.2)
    bigger = theta.copy()
    bigger[4] = 0.5
    assert noncentrality(bigger, prof, 64) > noncentrality(theta, prof, 64)


def test_null_variance_formula():
    prof = small_profile()
    n = 64
    want = 2.0 * np.sum(prof.kappa_sq[n] ** 2) / n ** 2
    assert null_variance(prof, n) == pytest.approx(want, rel=1e-14)


def test_predict_beta_anchors():
    x = gaussian_upper_quantile(0.05)
    A = 0.7
    assert predict_beta(0.0, A, x) == pytest.approx(0.95)
    r_mid = x * math.sqrt(2 * A)
    assert predict_beta(r_mid, A, x) == pytest.approx(0.5)


def test_decide_and_predict_report():
    prof = small_profile()
    cfg = QuadTestConfig(profile=prof, alpha=0.05)
    n = 64
    theta = np.zeros(prof.J)
    theta[0] = 0.4
    y = theta + np.random.default_rng(5).standard_normal(prof.J) / math.sqrt(n)
    rep = decide_and_predict(y, cfg, n, theta=theta)
    assert rep.family == "quad"
    A_n = prof.A[n]
    assert rep.standardized == pytest.approx(
        n ** 2 * rep.statistic / math.sqrt(2 * A_n), rel=1e-12)
    assert rep.reject == (rep.standardized > cfg.x_alpha)
    assert rep.predicted_beta == pytest.approx(
        predict_beta(rep.ingredients["R_n"], A_n, cfg.x_alpha))
    assert rep.ingredients["k_n"] == prof.k[n]
    null_rep = decide_and_predict(np.zeros(prof.J), cfg, n, theta=np.zeros(prof.J))
    # R = 0: predicted type-II error equals 1 - alpha
    assert null_rep.predicted_beta == pytest.approx(0.95)


def test_null_monte_carlo_centering_and_variance():
    prof = small_profile(J=256, n_list=(64,))
    n = 64
    rng = np.random.default_rng(17)
    reps = 4000
    xi = rng.standard_normal((reps, prof.J))
    y = xi / math.sqrt(n)
    w = prof.kappa_sq[n]
    stats_ = np.square(y) @ w - prof.rho[n] / n
    var = null_variance(prof, n)
    se_mean = math.sqrt(var / reps)
    assert abs(float(stats_.mean())) <= 3.0 * se_mean
    assert float(stats_.var()) == pytest.approx(var, rel=0.15)


def test_fixed_kappa_validations():
    with pytest.raises(AssumptionError):
        FixedKappa(np.array([0.0, 0.1]))
    with pytest.raises(AssumptionError):
        FixedKappa(np.array([0.1, 0.2]))
    with pytest.raises(AssumptionError):
        FixedKappa(np.array([0.1, -0.05]))
    with pytest.raises(ValidationError):
        FixedKappa(np.array([0.2, 0.1]), sigmas=np.array([1.0]))
    with pytest.raises(AssumptionError):
        FixedKappa(np.array([0.2, 0.1]), sigmas=np.array([1.0, 0.0]))
    fk = FixedKappa(np.array([0.2, 0.1]))
    assert fk.L == 2
    assert np.array_equal(fk.scales(), np.ones(2))


@pytest.mark.parametrize("kappa_sq", [[1.0, math.nan, 0.5], [math.inf, 1.0],
                                      [1.0, -math.inf], [math.nan]])
def test_fixed_kappa_refuses_non_finite_weights(kappa_sq):
    # Refused as input, before the D1 checks: nan passes every comparison
    # they make, and an infinite weight is no summable profile.
    with pytest.raises(ValidationError, match="finite") as err:
        FixedKappa(np.array(kappa_sq))
    assert type(err.value) is ValidationError


def test_fixed_kappa_statistic_hand_value():
    fk = FixedKappa(np.array([0.5, 0.25, 0.125]))
    z = np.array([2.0, -1.0, 3.0])
    assert fixed_kappa_statistic(z, fk) == pytest.approx(
        0.5 * 4 + 0.25 * 1 + 0.125 * 9)
    with pytest.raises(ValidationError):
        fixed_kappa_statistic(np.zeros(2), fk)


def test_fixed_bridge_weights_match_cvm_null_law():
    """kappa_j^2 = 1/(pi^2 j^2) reproduces the Brownian-bridge series law."""
    J = 512
    draws = 4000
    j = np.arange(1, J + 1, dtype=float)
    fk = FixedKappa(1.0 / (math.pi ** 2 * j ** 2))
    rng = np.random.default_rng(314)
    z = rng.standard_normal((draws, J))
    sample_fixed = np.square(z) @ fk.kappa_sq
    sample_cvm = cvm_null_sample(J, np.random.default_rng(2718), size=draws)
    ks = stats.ks_2samp(sample_fixed, sample_cvm)
    assert ks.pvalue > 0.01, ks


@pytest.mark.parametrize("theta", [
    SignalSpec(Basis.TRIG_FULL, np.array([[0.3, 0.4]])),
    np.array([[0.3, 0.4]]),
    np.array([0.3, math.nan]),
], ids=["trigfull-signal", "2-d-array", "nan-entry"])
def test_prediction_refuses_what_the_engine_refuses(theta):
    """noncentrality, decide_and_predict and quad_rejections read one
    coordinate map, so each refuses the same alternatives."""
    prof = small_profile(J=64, n_list=(64,))
    cfg = QuadTestConfig(profile=prof, alpha=0.05)
    with pytest.raises(ValidationError):
        noncentrality(theta, prof, 64)
    with pytest.raises(ValidationError):
        decide_and_predict(np.zeros(64), cfg, 64, theta=theta)
    with pytest.raises(ValidationError, match="variant 1"):
        quad_rejections(MCConfig(100), cfg, 64, [None, theta])


@pytest.mark.parametrize("kwargs", [
    {"weights": [1.0, math.nan]}, {"weights": [1.0, math.inf]},
    {"weights": [1.0, -0.5]}, {"weights": [0.0, 0.0]}, {"weights": []},
    {"weights": [[1.0, 0.5]]}, {"scale": 0.0}, {"scale": -1.0},
    {"scale": math.nan}, {"scale": math.inf}, {"scale": [0.5, 0.0]},
    {"scale": [0.5, math.nan]}, {"scale": [0.5, 1.0, 2.0]},
    {"center": math.nan}, {"center": math.inf}, {"unit": 0.0},
    {"unit": -1.0}, {"unit": math.nan}, {"unit": math.inf}])
def test_form_refuses_inputs_it_cannot_score(kwargs):
    args = {"weights": [1.0, 0.5], "scale": 1.0, "center": 0.0, "unit": 1.0}
    with pytest.raises(ValidationError):
        QuadraticForm(**{**args, **kwargs})


def test_form_takes_weight_lists_and_per_weight_scales():
    form = QuadraticForm([1.0, 0.5], [0.5, 2.0], center=0.25, unit=2.0)
    assert form.statistic(np.array([1.0, 2.0])) == 2.75
    assert QuadraticForm(np.array([1.0, 0.0]), 0.5).weights.dtype == float


def test_form_exact_power_matches_two_term_oracle():
    """Two coordinates with scales (0.5, 2), a centre and a unit: the event
    2.5 (Sum w (row + s xi)^2 - 0.4) > t is 0.2 (xi_1 + 1.4)^2
    + 1.2 (xi_2 - 0.55)^2 > 0.4 + t / 2.5, and under the null the same with
    no offsets."""
    form = QuadraticForm(np.array([0.8, 0.3]), np.array([0.5, 2.0]),
                         center=0.4, unit=2.5)
    row = np.array([0.7, -1.1])
    for t in (-0.5, 0.3, 2.0, 6.0):
        x = 0.4 + t / 2.5
        assert abs(form.exact_power(t, row)
                   - two_term_chisq_sf(x, 0.2, 1.2, 1.4, -0.55)) <= 1e-10
        assert abs(form.exact_power(t)
                   - two_term_chisq_sf(x, 0.2, 1.2, 0.0, 0.0)) <= 1e-10


@pytest.mark.parametrize("which", ["quad", "kernel", "fixed-sigmas"])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5])
def test_form_exact_critical_has_exact_size_alpha(which, alpha):
    form = {
        "quad": lambda: small_profile().form(256),
        "kernel": lambda: kernel_form(KernelTestConfig(
            kernel=box_kernel(), alpha=0.05, h=0.1), 64, 64),
        "fixed-sigmas": lambda: FixedKappa(
            bridge_weights(16), np.linspace(0.5, 2.0, 16)).form(),
    }[which]()
    assert abs(form.exact_power(form.exact_critical(alpha)) - alpha) <= 1e-9


def test_fixed_exact_critical_pinned():
    """The compactness and unbiasedness critical value at L = 1024."""
    form = FixedKappa(bridge_weights(1024)).form()
    assert form.exact_critical(0.05) == 0.46126239541541825
