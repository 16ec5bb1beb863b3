"""Cramer-von Mises: exact statistic, population series, null tables."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import (cvm_population_quadrature, cvm_statistic_quadrature,
                     two_term_chisq_sf)
from uniconsist.cvm import (CvmNullTable, bridge_weights, build_cvm_null_table,
                            cvm_consistency_index, cvm_null_sample,
                            cvm_population, cvm_statistic, decide,
                            series_shift, truncation_tail_bound,
                            weighted_chisq_quantile, weighted_chisq_sf,
                            weighted_null_quantiles)
from uniconsist.errors import ValidationError
from uniconsist.rng import STREAM_NULL_TABLE, substream
from uniconsist.signals import Basis, SignalSpec

RNG = np.random.default_rng(515)


def test_statistic_single_midpoint():
    # u = 0.5, grid value 1/2: squared gap 0 plus 1/12
    assert cvm_statistic(np.array([0.5])) == pytest.approx(1.0 / 12.0)


def test_statistic_ideal_spacings():
    for n in (2, 5, 32):
        u = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        assert cvm_statistic(u) == pytest.approx(1.0 / (12.0 * n))


def test_statistic_empty_sample():
    with pytest.raises(ValidationError):
        cvm_statistic(np.array([]))


def test_statistic_matches_exact_quadrature():
    """Order-statistic formula equals n int (F_n - t)^2 dt, 50 random samples."""
    for _ in range(50):
        n = int(RNG.integers(1, 60))
        pts = RNG.random(n)
        got = cvm_statistic(pts)
        want = cvm_statistic_quadrature(pts)
        assert abs(got - want) <= 1e-10


def test_population_single_frequencies():
    one = SignalSpec(Basis.COSINE_PI, np.array([1.0]))
    assert cvm_population(one) == pytest.approx(1.0 / math.pi ** 2, rel=1e-14)
    two = SignalSpec(Basis.COSINE_PI, np.array([0.0, 1.0]))
    assert cvm_population(two) == pytest.approx(1.0 / (4.0 * math.pi ** 2), rel=1e-14)
    with pytest.raises(ValidationError):
        cvm_population(SignalSpec(Basis.TRIG_FULL, np.array([[1.0, 0.0]])))


def test_population_matches_double_integral():
    """Series value equals int int (min(s,t) - s t) f(s) f(t), random signals."""
    for _ in range(10):
        J = int(RNG.integers(1, 7))
        sig = SignalSpec(Basis.COSINE_PI, 0.8 * RNG.standard_normal(J))
        got = cvm_population(sig)
        want = cvm_population_quadrature(sig)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_consistency_index_examples():
    # theta_1 = n^{-1/4}: index n * n^{-1/2} / pi^2 grows like sqrt(n)/pi^2
    for n in (16, 256, 4096):
        sig = SignalSpec(Basis.COSINE_PI, np.array([n ** -0.25]))
        assert cvm_consistency_index(sig, n) == pytest.approx(
            math.sqrt(n) / math.pi ** 2, rel=1e-12)
    vals = [cvm_consistency_index(
        SignalSpec(Basis.COSINE_PI, np.array([n ** -0.25])), n)
        for n in (16, 256, 4096)]
    assert vals[0] < vals[1] < vals[2]


def test_consistency_index_bounded_for_far_spikes():
    """Norm-calibrated spikes at k_n = n^{(1-2r)/2}, r = 1/4, keep the index flat."""
    vals = []
    for n in (256, 4096, 65536):
        k = round(n ** 0.25)  # exact fourth powers below
        coeffs = np.zeros(k)
        coeffs[-1] = n ** -0.25
        vals.append(cvm_consistency_index(SignalSpec(Basis.COSINE_PI, coeffs), n))
    # index = n * n^{-1/2} / (pi^2 k_n^2) = 1/pi^2 at this calibration
    for v in vals:
        assert v == pytest.approx(1.0 / math.pi ** 2, rel=1e-12)


def test_series_shift():
    sig = SignalSpec(Basis.COSINE_PI, np.array([0.5, -0.3]))
    s = series_shift(sig, n=100, J_null=4)
    want = np.array([10 * 0.5 / math.pi, 10 * -0.3 / (2 * math.pi), 0.0, 0.0])
    assert np.allclose(s, want, atol=1e-14)
    with pytest.raises(ValidationError):
        series_shift(SignalSpec(Basis.TRIG_FULL, np.array([[1.0, 0.0]])), 10, 4)


def test_truncation_tail_bound():
    J = 50
    exact_tail = sum(1.0 / (math.pi ** 2 * j ** 2) for j in range(J + 1, 200000))
    bound = truncation_tail_bound(J)
    assert exact_tail <= bound
    assert bound == pytest.approx(1.0 / (math.pi ** 2 * J))
    with pytest.raises(ValidationError):
        truncation_tail_bound(0)


def test_bridge_weights():
    w = bridge_weights(3)
    assert np.allclose(w, [1 / math.pi ** 2, 1 / (4 * math.pi ** 2),
                           1 / (9 * math.pi ** 2)])


def test_weighted_chisq_draw_order_fixed():
    """Block b of a null table draws from substream (seed, null table, b),
    row-major by (replicate, j); the last block may be partial."""
    w = bridge_weights(16)
    draws = np.concatenate([
        np.square(substream(9, STREAM_NULL_TABLE, b).standard_normal(
            (rows, w.size))) @ w
        for b, rows in enumerate((4096, 904))])
    alphas, crit = weighted_null_quantiles(w, [0.1, 0.05], 5000, seed=9)
    assert np.array_equal(crit, np.quantile(draws, 1.0 - alphas))


def test_null_table_reuses_one_block_buffer():
    """Five blocks of J = 1024 peak below 1.5 blocks of traced memory: one
    buffer, squared in place, holds every block's draws."""
    block = 4096 * 1024 * 8
    tracemalloc.start()
    try:
        weighted_null_quantiles(bridge_weights(1024), [0.05], 20_000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block, peak / block


@pytest.mark.parametrize("weights", [[], [[0.1, 0.2]], [0.1, -0.2]],
                         ids=["empty", "2-D", "negative"])
def test_weighted_null_quantiles_rejects_bad_weights(weights):
    with pytest.raises(ValidationError, match="weights"):
        weighted_null_quantiles(np.array(weights), [0.05], 200, seed=0)


def test_null_sample_mean_matches_series():
    J = 256
    draws = cvm_null_sample(J, np.random.default_rng(8), size=20000)
    # E = sum 1/(pi^2 j^2) = 1/6 - tail, tail <= 1/(pi^2 J)
    expected = float(np.sum(bridge_weights(J)))
    assert 1.0 / 6.0 - truncation_tail_bound(J) <= expected <= 1.0 / 6.0
    se = float(draws.std(ddof=1)) / math.sqrt(draws.size)
    assert abs(float(draws.mean()) - expected) <= 4.0 * se


def test_null_sample_shift_changes_law():
    J = 64
    shift = np.zeros(J)
    shift[0] = 0.5
    base = cvm_null_sample(J, np.random.default_rng(4), size=5000)
    moved = cvm_null_sample(J, np.random.default_rng(4), size=5000, shift=shift)
    # noncentral mean exceeds central mean by shift^2
    assert float(moved.mean()) - float(base.mean()) == pytest.approx(0.25, abs=0.02)
    with pytest.raises(ValidationError):
        cvm_null_sample(J, np.random.default_rng(0), shift=np.zeros(J - 1))


def test_weighted_null_quantiles_reproducible_and_blocked():
    w = bridge_weights(64)
    a1, c1 = weighted_null_quantiles(w, [0.1, 0.05], 5000, seed=7)
    a2, c2 = weighted_null_quantiles(w, [0.05, 0.1], 5000, seed=7)
    assert np.array_equal(a1, a2)
    assert np.array_equal(c1, c2)
    assert np.all(a1 == np.array([0.05, 0.1]))
    assert c1[0] > c1[1]
    _, c3 = weighted_null_quantiles(w, [0.05], 5000, seed=8)
    assert c3[0] != c1[0]
    with pytest.raises(ValidationError):
        weighted_null_quantiles(w, [0.0], 5000, seed=7)
    with pytest.raises(ValidationError):
        weighted_null_quantiles(w, [0.05], 50, seed=7)


def test_null_quantiles_against_asymptotic_percentiles():
    """Large-table criticals sit near the classical limiting percentiles."""
    table = build_cvm_null_table([0.05, 0.1], replicates=200000, seed=3,
                                 J_null=1024)
    # classical limiting upper percentiles of the bridge norm
    assert table.critical(0.05) == pytest.approx(0.46136, abs=0.01)
    assert table.critical(0.1) == pytest.approx(0.34730, abs=0.01)


def test_table_round_trip_and_validation():
    table = build_cvm_null_table([0.05, 0.1], replicates=2000, seed=1, J_null=64)
    back = CvmNullTable.from_json(table.to_json())
    assert back == table
    assert back.critical(0.05) == table.criticals[0]
    with pytest.raises(ValidationError):
        back.critical(0.025)
    with pytest.raises(ValidationError):
        CvmNullTable(alphas=(0.05, 0.1), criticals=(0.2, 0.5),
                     J_null=64, replicates=2000, seed=1)
    with pytest.raises(ValidationError):
        CvmNullTable(alphas=(0.05,), criticals=(0.2, 0.1),
                     J_null=64, replicates=2000, seed=1)
    with pytest.raises(ValidationError):
        CvmNullTable.from_json("{}")
    with pytest.raises(ValidationError):
        CvmNullTable.from_json("not json")


def test_decide_report():
    table = build_cvm_null_table([0.05], replicates=2000, seed=2, J_null=64)
    pts = np.random.default_rng(10).random(50)
    rep = decide(pts, table, 0.05)
    assert rep.family == "cvm"
    assert rep.n == 50
    assert rep.statistic == pytest.approx(cvm_statistic(pts))
    assert rep.reject == (rep.statistic > table.critical(0.05))
    assert rep.ingredients["J_null"] == 64


def test_table_with_int_past_digit_limit_is_validation_error():
    with pytest.raises(ValidationError, match="malformed null table"):
        CvmNullTable.from_json('{"J_null": 1' + "0" * 5000 + "}")


@pytest.mark.parametrize("k", [1, 2, 5, 16])
@pytest.mark.parametrize("c", [0.01, 1.0, 37.0])
def test_weighted_chisq_sf_equal_weights_is_scaled_chi2(k, c):
    """k equal weights c: c chi2_k, and with offsets d, c ncx2_k(|d|^2)."""
    x = c * np.array([1e-3, 0.1, 0.5, 1.0, k, 3.0 * k, 10.0 * k + 5.0])
    got = weighted_chisq_sf(x, np.full(k, c))
    assert np.max(np.abs(got - stats.chi2.sf(x / c, k))) <= 1e-10
    # at scale 30 and k > 1, exp(-|d|^2 / 2) underflows: the sum runs in logs
    for scale in (0.7, 30.0):
        d = scale * np.linspace(-1.0, 2.0, k)
        x = c * (k + d @ d) * np.array([0.5, 1.0, 1.5])
        got = weighted_chisq_sf(x, np.full(k, c), d)
        assert np.max(np.abs(got - stats.ncx2.sf(x / c, k, d @ d))) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 3.0),
       st.floats(0.0, 3.0), st.floats(-2.0, 1.5))
def test_weighted_chisq_sf_two_unequal_weights(log_ratio, log_b, da, db, log_x):
    """Unequal weights with offsets against conditioning on one coordinate."""
    a, b = 10.0 ** (log_b + log_ratio), 10.0 ** log_b
    x = (a * (1.0 + da * da) + b * (1.0 + db * db)) * 10.0 ** log_x
    got = weighted_chisq_sf(x, [a, b], [da, db])
    assert abs(got - two_term_chisq_sf(x, a, b, da, db)) <= 1e-10


def test_weighted_chisq_sf_edges_and_validation():
    w = bridge_weights(8)
    assert weighted_chisq_sf(0.0, w) == 1.0
    assert list(weighted_chisq_sf([-1.0, 0.0], w)) == [1.0, 1.0]
    # zero weights drop out, and so do offsets on them
    padded = np.concatenate([w, np.zeros(3)])
    assert weighted_chisq_sf(0.2, padded, np.r_[np.zeros(8), 5.0, 5.0, 5.0]) \
        == pytest.approx(weighted_chisq_sf(0.2, w), abs=1e-13)
    for weights, offsets in (([], None), ([0.0, 0.0], None), ([1.0, -1.0], None),
                             ([1.0, np.inf], None), ([1.0, 2.0], [1.0]),
                             ([1.0, 2.0], [1.0, np.nan])):
        with pytest.raises(ValidationError):
            weighted_chisq_sf(1.0, weights, offsets)
    with pytest.raises(ValidationError):
        weighted_chisq_sf(np.nan, w)
    for alpha in (0.0, 1.0, -0.5):
        with pytest.raises(ValidationError):
            weighted_chisq_quantile(alpha, w)


@pytest.mark.parametrize("alpha", [0.001, 0.05, 0.5])
@pytest.mark.parametrize("J_null", [1, 1024, 16384])
def test_weighted_chisq_quantile_inverts_sf(J_null, alpha):
    w = bridge_weights(J_null)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = weighted_chisq_quantile(alpha, w)
        p = weighted_chisq_sf(t, w)
    assert not caught
    assert abs(p - alpha) <= 1e-9
    if J_null == 1:
        assert t == pytest.approx(w[0] * stats.chi2.isf(alpha, 1), rel=1e-10)


@pytest.mark.parametrize("seed", [23, 29])
def test_null_table_quantile_within_binomial_ci_of_exact(seed):
    """A 200 000-row table's upper 5% point has exact size within the
    binomial 99.9% interval of 0.05: the count of draws above the exact
    critical value is Binomial(n, alpha)."""
    w, alpha, n = bridge_weights(1024), 0.05, 200000
    _, crit = weighted_null_quantiles(w, [alpha], n, seed)
    z = stats.norm.isf(0.0005)
    size = weighted_chisq_sf(crit[0], w)
    assert abs(size - alpha) <= z * math.sqrt(alpha * (1.0 - alpha) / n)


@pytest.mark.parametrize("critical", [math.nan, math.inf, -math.inf])
def test_null_table_refuses_non_finite_critical(critical):
    with pytest.raises(ValidationError, match="criticals must be finite"):
        CvmNullTable(alphas=(0.05,), criticals=(critical,),
                     J_null=64, replicates=2000, seed=1)
    with pytest.raises(ValidationError, match="criticals must be finite"):
        CvmNullTable(alphas=(0.05, 0.1), criticals=(critical, 0.1),
                     J_null=64, replicates=2000, seed=1)


def test_weighted_null_quantiles_refuses_nan_alpha_and_infinite_weight():
    with pytest.raises(ValidationError, match="alphas"):
        weighted_null_quantiles(np.array([0.1, 0.2]), [math.nan], 200, seed=0)
    with pytest.raises(ValidationError, match="alphas"):
        weighted_null_quantiles(np.array([0.1, 0.2]), [0.05, math.nan], 200,
                                seed=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="weights"):
            weighted_null_quantiles(np.array([0.1, bad]), [0.05], 200, seed=0)
