"""Chi-square tests with growing cells: statistic, population, projections."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (chi2_fourier_identity, chi2_population_bruteforce,
                     eval_signal, gauss01, modulus_projection_report,
                     projection_l2n, projection_norm_sq,
                     tail_projection_report)
from uniconsist.chi2 import (Chi2Config, cell_counts, cell_integrals,
                             chi2_population, chi2_predicted_beta,
                             chi2_statistic, decide_and_predict)
from uniconsist.errors import ValidationError
from uniconsist.signals import Basis, SignalSpec

RNG = np.random.default_rng(88)


def test_cell_counts_and_boundary_rule():
    pts = np.array([0.0, 0.25, 0.4999, 0.5, 0.75, 0.999])
    counts = cell_counts(pts, 2)
    # 0.5 sits on the boundary and goes right
    assert np.array_equal(counts, np.array([3, 3]))
    counts4 = cell_counts(pts, 4)
    assert np.array_equal(counts4, np.array([1, 2, 1, 2]))
    with pytest.raises(ValidationError):
        cell_counts(pts, 1)
    with pytest.raises(ValidationError):
        cell_counts(np.array([]), 4)


def test_statistic_one_point_per_cell():
    m = 8
    pts = (np.arange(m) + 0.5) / m
    assert chi2_statistic(pts, m) == 0.0


def test_statistic_all_points_one_cell():
    n, m = 12, 6
    pts = np.full(n, 0.51)
    # p_hat = e_l: T = n m ((1-1/m)^2 + (m-1)/m^2) = n (m-1)
    assert chi2_statistic(pts, m) == pytest.approx(n * (m - 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 0.999999, allow_nan=False), min_size=2,
                max_size=40),
       st.integers(2, 12))
def test_statistic_equals_pearson(pts, m):
    pts = np.array(pts)
    counts = cell_counts(pts, m)
    n = pts.size
    expected = n / m
    pearson = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2_statistic(pts, m) == pytest.approx(pearson, rel=1e-12, abs=1e-12)


def test_null_moments_monte_carlo():
    rng = np.random.default_rng(31)
    m, n, reps = 10, 400, 2000
    stats_ = np.array([chi2_statistic(rng.random(n), m) for _ in range(reps)])
    mean = float(stats_.mean())
    # E T = m - 1 exactly under the null; SE from the sample
    se = float(stats_.std(ddof=1)) / math.sqrt(reps)
    assert abs(mean - (m - 1)) <= 3.0 * se


def test_cells_rule_values_and_guard():
    cfg = Chi2Config(alpha=0.05, m_rule=(0.375, 1.0))
    # s = r/(2-4r) = 0.75, 2/(1+4s) = 0.5: m = round(sqrt(n))
    assert cfg.cells(1024) == 32
    assert cfg.cells(2048) == 45
    assert cfg.cells(4096) == 64
    with pytest.raises(ValidationError):
        cfg.cells(None)
    with pytest.raises(ValidationError):
        Chi2Config(alpha=0.05, m=4096).cells(8)
    with pytest.raises(ValidationError):
        Chi2Config(alpha=0.05)
    with pytest.raises(ValidationError):
        Chi2Config(alpha=0.05, m=3, m_rule=(0.3, 1.0))
    with pytest.raises(ValidationError):
        Chi2Config(alpha=0.05, m=1)
    with pytest.raises(ValidationError):
        Chi2Config(alpha=0.05, m_rule=(0.5, 1.0))


@pytest.mark.parametrize("m", [3.5, 4.0, True, "4", np.float64(4.0)])
def test_config_refuses_a_cell_count_that_is_not_an_integer(m):
    with pytest.raises(ValidationError, match="m must be an integer"):
        Chi2Config(alpha=0.05, m=m)


def test_config_takes_numpy_integer_cell_counts():
    assert Chi2Config(alpha=0.05, m=np.int64(4)).cells(16) == 4


@pytest.mark.parametrize("const", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_rule_constant_that_is_not_positive_and_finite(const):
    with pytest.raises(ValidationError, match="m_rule const"):
        Chi2Config(alpha=0.05, m_rule=(0.375, const))


def test_cell_integrals_sum_to_zero():
    sig = SignalSpec(Basis.TRIG_FULL, RNG.standard_normal((6, 2)))
    ints = cell_integrals(sig, 7)
    assert ints.shape == (7,)
    assert abs(ints.sum()) < 1e-14


def test_population_vs_bruteforce_quadrature():
    for basis in (Basis.COSINE_PI, Basis.TRIG_FULL):
        if basis is Basis.TRIG_FULL:
            sig = SignalSpec(basis, 0.4 * RNG.standard_normal((5, 2)))
        else:
            sig = SignalSpec(basis, 0.4 * RNG.standard_normal(5))
        for m in (2, 3, 8):
            got = chi2_population(sig, m)
            want = chi2_population_bruteforce(sig, m)
            assert got == pytest.approx(want, abs=1e-12)


def test_population_zero_when_frequency_multiple_of_m():
    # exp(2 pi i j t) integrates to zero over every cell when m divides j
    m = 4
    coeffs = np.zeros((8, 2))
    coeffs[3] = [0.7, -0.2]   # j = 4 = m
    coeffs[7] = [0.1, 0.5]    # j = 8 = 2m
    sig = SignalSpec(Basis.TRIG_FULL, coeffs)
    assert chi2_population(sig, m) == pytest.approx(0.0, abs=1e-15)
    assert chi2_fourier_identity(sig, m) == pytest.approx(0.0, abs=1e-15)


def test_fourier_identity_matches_population():
    for _ in range(12):
        J = int(RNG.integers(2, 24))
        sig = SignalSpec(Basis.TRIG_FULL, 0.5 * RNG.standard_normal((J, 2)))
        for m in (2, 5, 16):
            got = chi2_fourier_identity(sig, m)
            want = chi2_population(sig, m)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_fourier_identity_default_K_max_exact():
    sig = SignalSpec(Basis.TRIG_FULL, 0.5 * RNG.standard_normal((17, 2)))
    m = 5
    exect = chi2_fourier_identity(sig, m)
    padded = chi2_fourier_identity(sig, m, K_max=2 * 17 // m + 40)
    assert exect == pytest.approx(padded, rel=1e-14)
    with pytest.raises(ValidationError):
        chi2_fourier_identity(SignalSpec(Basis.COSINE_PI, np.array([1.0])), m)
    with pytest.raises(ValidationError):
        chi2_fourier_identity(sig, 1)


def test_projection_geometry():
    """T_n(F) = n ||Pi f||^2 and the projection is the cell average of f."""
    sig = SignalSpec(Basis.TRIG_FULL, 0.3 * RNG.standard_normal((4, 2)))
    m, n = 6, 100
    cells_vals = projection_l2n(sig, m)
    # cell value = m * int_cell f = average of f over the cell
    for l in (0, 3, 5):
        avg = gauss01(lambda t: eval_signal(sig, (l + t) / m), pieces=32)
        assert cells_vals[l] == pytest.approx(avg, abs=1e-12)
    norm_sq = projection_norm_sq(sig, m)
    assert norm_sq == pytest.approx(m * chi2_population(sig, m), rel=1e-12)
    t_pop = n * m * chi2_population(sig, m)
    assert t_pop == pytest.approx(n * norm_sq, rel=1e-12)
    # piecewise-constant norm computed directly
    assert norm_sq == pytest.approx(float(np.sum(cells_vals ** 2)) / m, rel=1e-14)


def test_projection_contraction():
    sig = SignalSpec(Basis.TRIG_FULL, 0.3 * RNG.standard_normal((9, 2)))
    for m in (2, 4, 32):
        assert projection_norm_sq(sig, m) <= sig.norm_sq + 1e-12


def test_tail_projection_constant_stable():
    """Far-tail signals: measured C stays bounded across cell counts."""
    measured = []
    for m in (16, 32, 64, 128, 256):
        i_n = 4 * m
        coeffs = np.zeros((i_n + 8, 2))
        coeffs[i_n:, 0] = 1.0 / math.sqrt(8.0)
        sig = SignalSpec(Basis.TRIG_FULL, coeffs)
        rep = tail_projection_report(sig, m, i_n)
        assert rep["value"] <= rep["envelope"] * max(rep["measured_C"], 1.0)
        measured.append(rep["measured_C"])
    assert max(measured) < 10.0
    with pytest.raises(ValidationError):
        tail_projection_report(
            SignalSpec(Basis.TRIG_FULL, np.ones((2, 2))), 4, 0)


def test_modulus_projection_bound():
    for _ in range(10):
        k = int(RNG.integers(1, 12))
        m = int(RNG.integers(k, 24))
        sig = SignalSpec(Basis.TRIG_FULL, 0.5 * RNG.standard_normal((k, 2)))
        rep = modulus_projection_report(sig, m, k)
        assert rep["ok"]
        assert rep["error"] <= rep["bound"]
    with pytest.raises(ValidationError):
        modulus_projection_report(
            SignalSpec(Basis.TRIG_FULL, np.ones((3, 2))), 2, 3)


def test_predicted_beta_anchors():
    cfg = Chi2Config(alpha=0.05, m=16)
    flat = SignalSpec(Basis.TRIG_FULL, np.zeros((2, 2)))
    assert chi2_predicted_beta(flat, cfg, 100) == pytest.approx(0.95)
    # scale a single-frequency signal so T_pop = x_alpha sqrt(2m): beta = 1/2
    base = SignalSpec(Basis.TRIG_FULL, np.array([[1.0, 0.0]]))
    n = 100
    t_base = n * 16 * chi2_population(base, 16)
    scale = math.sqrt(cfg.x_alpha * math.sqrt(32.0) / t_base)
    mid = SignalSpec(Basis.TRIG_FULL, np.array([[scale, 0.0]]))
    assert chi2_predicted_beta(mid, cfg, n) == pytest.approx(0.5, abs=1e-12)


def test_decide_and_predict_report():
    rng = np.random.default_rng(3)
    n = 200
    pts = rng.random(n)
    cfg = Chi2Config(alpha=0.05, m=8)
    sig = SignalSpec(Basis.TRIG_FULL, np.array([[0.3, 0.1]]))
    rep = decide_and_predict(pts, cfg, n, signal=sig)
    assert rep.family == "chi2"
    assert rep.statistic == pytest.approx(chi2_statistic(pts, 8))
    assert rep.standardized == pytest.approx((rep.statistic - 7.0) / math.sqrt(16.0))
    assert rep.reject == (rep.standardized > cfg.x_alpha)
    assert rep.ingredients["m"] == 8
    assert rep.ingredients["population_T"] == pytest.approx(
        n * 8 * chi2_population(sig, 8))
    with pytest.raises(ValidationError):
        decide_and_predict(pts, cfg, n + 1)


@pytest.mark.parametrize("bad", [1.5, -0.7, math.nan, math.inf, -math.inf])
def test_decide_and_predict_refuses_points_outside_unit_interval(bad):
    """A point outside [0, 1] would be clipped into an end cell; it is
    refused instead, and the error names it."""
    cfg = Chi2Config(alpha=0.05, m=4)
    with pytest.raises(ValidationError,
                       match=re.escape(f"points outside [0,1]: {[bad]}")):
        decide_and_predict(np.array([0.2, 0.5, bad, 0.7]), cfg, 4)


def test_decide_and_predict_takes_both_endpoints():
    rep = decide_and_predict(np.array([0.0, 0.5, 1.0, 0.7]),
                             Chi2Config(alpha=0.05, m=4), 4)
    assert rep.statistic == chi2_statistic(np.array([0.0, 0.5, 1.0, 0.7]), 4)
