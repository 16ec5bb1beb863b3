"""Kernel smoothing tests: transforms, statistic routes, bandwidth rules."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from oracles import kernel_smoothed_field_sq
from uniconsist.errors import ValidationError
from uniconsist.kernel import (Kernel, KernelObservations, KernelTestConfig,
                               box_kernel, builtin_kernel, decide_and_predict,
                               epanechnikov_kernel, half_level_radius,
                               inconsistency_bandwidths,
                               kernel_coordinates, kernel_form,
                               kernel_power_prediction,
                               kernel_statistic_fourier, kernel_unit,
                               sample_kernel_observations, t1n)
from uniconsist.signals import Basis, NoiseModel, SignalSpec

BOX = box_kernel()
EPA = epanechnikov_kernel()


@pytest.mark.parametrize("kernel", [BOX, EPA], ids=["box", "epanechnikov"])
def test_kernel_invariants(kernel):
    t = np.linspace(-1.5, 1.5, 401)
    assert np.allclose(kernel.func(t), kernel.func(-t), atol=1e-14)
    mass, err = integrate.quad(lambda x: float(kernel.func(np.array([x]))[0]),
                               -1.0, 1.0, limit=200)
    assert abs(mass - 1.0) <= max(1e-10, 10 * err)
    assert float(kernel.khat(0.0)) == pytest.approx(1.0, abs=1e-12)
    w = np.linspace(0.0, 32.0, 4001)
    assert np.max(np.abs(kernel.khat(w))) <= 1.0 + 1e-10


def test_box_gamma_sq_exact():
    # K*K is the triangle (2-|t|)/4; 2 int (K*K)^2 = 2/3
    assert BOX.gamma_sq == pytest.approx(2.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("kernel", [BOX, EPA], ids=["box", "epanechnikov"])
def test_gamma_sq_discrete_convolution_oracle(kernel):
    """Independent route: grid convolution of K with itself, then Simpson."""
    N = 8192
    dx = 2.0 / N
    # midpoint grid sidesteps the support-edge discontinuity of the box
    t = -1.0 + dx * (np.arange(N) + 0.5)
    k = kernel.func(t)
    conv = np.convolve(k, k) * dx
    s = np.linspace(-2.0 + dx, 2.0 - dx, conv.size)
    gamma_sq = 2.0 * integrate.simpson(conv ** 2, x=s)
    assert kernel.gamma_sq == pytest.approx(gamma_sq, rel=1e-5)


@pytest.mark.parametrize("kernel", [BOX, EPA], ids=["box", "epanechnikov"])
def test_gamma_sq_time_vs_fourier(kernel):
    assert abs(kernel.gamma_sq - kernel._gamma_sq_fourier()) <= 1e-8


def test_kernel_constructor_rejects_bad_kernels():
    with pytest.raises(ValidationError):
        Kernel(name="flat2",
               func=lambda t: np.where(np.abs(np.asarray(t)) <= 1.0, 1.0, 0.0),
               fourier=lambda w: np.sinc(4.0 * np.asarray(w)))
    with pytest.raises(ValidationError):
        Kernel(name="skew",
               func=lambda t: np.where((np.asarray(t) >= 0) & (np.asarray(t) <= 1), 1.0, 0.0),
               fourier=lambda w: np.ones_like(np.asarray(w, dtype=float)))


def test_builtin_lookup():
    assert builtin_kernel("box").name == "box"
    assert builtin_kernel("epanechnikov").name == "epanechnikov"
    with pytest.raises(ValidationError):
        builtin_kernel("triangle")


def test_builtin_kernel_built_once_per_name():
    assert builtin_kernel("box") is builtin_kernel("box")
    assert builtin_kernel("box") is not builtin_kernel("epanechnikov")
    for _ in range(2):  # a failed lookup is not cached
        with pytest.raises(ValidationError, match="unknown kernel 'triangle'"):
            builtin_kernel("triangle")
    assert builtin_kernel.cache_info().currsize <= 2


@pytest.mark.parametrize("name, gamma_sq", [
    ("box", 0.6666666666666659), ("epanechnikov", 0.8675324675324733)])
def test_builtin_gamma_sq_pinned(name, gamma_sq):
    """gamma^2 by overlap quadrature, pinned to the last bit: the
    Gauss-Legendre rule is built once per module, with the same nodes."""
    assert builtin_kernel(name).gamma_sq == gamma_sq


def test_half_level_radius_box():
    b = half_level_radius(BOX)
    # frozen value: sinc(2w) = 1/2 near w = 0.30168
    assert b == pytest.approx(0.30168, abs=5e-5)
    assert abs(float(BOX.khat(b))) == pytest.approx(0.5, abs=1e-10)
    # independent bisection on |Khat| - 1/2
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(float(BOX.khat(mid))) >= 0.5:
            lo = mid
        else:
            hi = mid
    assert b == pytest.approx(lo, abs=1e-9)


def test_inconsistency_bandwidths_scale():
    b = half_level_radius(BOX)
    m_list = [4, 8, 32]
    hs = inconsistency_bandwidths(BOX, m_list)
    for m, h in zip(m_list, hs):
        assert m * h == pytest.approx(1.0 / (2.0 * b), rel=1e-12)
    assert all(h2 < h1 for h1, h2 in zip(hs, hs[1:]))


def test_observations_validation():
    with pytest.raises(ValidationError):
        KernelObservations(y0=0.0, pairs=np.zeros((3, 3)))
    obs = KernelObservations(y0=0.1, pairs=np.zeros((4, 2)))
    assert obs.J == 4


def test_sample_kernel_observations_order():
    sig = SignalSpec(Basis.TRIG_FULL, np.array([[0.2, -0.1], [0.0, 0.3]]))
    noise = NoiseModel(sigma=2.0, n=400)
    obs = sample_kernel_observations(sig, noise, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    y0 = 0.1 * float(rng.standard_normal())
    pairs = sig.coeffs + 0.1 * rng.standard_normal((2, 2))
    assert obs.y0 == y0
    assert np.array_equal(obs.pairs, pairs)
    with pytest.raises(ValidationError):
        sample_kernel_observations(
            SignalSpec(Basis.COSINE_PI, np.array([0.1])), noise,
            np.random.default_rng(0))


def test_config_bandwidth_rules():
    with pytest.raises(ValidationError):
        KernelTestConfig(kernel=BOX, alpha=0.05)
    with pytest.raises(ValidationError):
        KernelTestConfig(kernel=BOX, alpha=0.05, h=0.1, h_rule=(0.3, 1.0))
    with pytest.raises(ValidationError):
        KernelTestConfig(kernel=BOX, alpha=0.05, h_rule=(0.6, 1.0))
    cfg = KernelTestConfig(kernel=BOX, alpha=0.05, h_rule=(0.3, 2.0))
    n = 1024
    assert cfg.bandwidth(n) == pytest.approx(2.0 * n ** (4 * 0.3 - 2.0))
    with pytest.raises(ValidationError):
        cfg.bandwidth(None)
    fixed = KernelTestConfig(kernel=BOX, alpha=0.05, h=0.25)
    assert fixed.bandwidth() == 0.25
    with pytest.raises(ValidationError):
        KernelTestConfig(kernel=BOX, alpha=0.05, h=1.5).bandwidth()


def test_statistic_zero_observation_centering():
    cfg = KernelTestConfig(kernel=BOX, alpha=0.05, h=0.05)
    n = 500
    J = 64
    obs = KernelObservations(y0=0.0, pairs=np.zeros((J, 2)))
    w = np.square(BOX.khat(np.arange(J + 1) * 0.05))
    center = (w[0] + 2.0 * w[1:].sum()) / n
    want = -n * math.sqrt(0.05) / math.sqrt(BOX.gamma_sq) * center
    assert kernel_statistic_fourier(obs, cfg, n) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kernel", [BOX, EPA], ids=["box", "epanechnikov"])
def test_statistic_fourier_vs_time_domain(kernel):
    """Core energy agrees with quadrature of the smoothed field."""
    rng = np.random.default_rng(12)
    J = 12
    pairs = 0.3 * rng.standard_normal((J, 2))
    y0 = 0.2
    h = 0.11
    n = 200
    cfg = KernelTestConfig(kernel=kernel, alpha=0.05, h=h)
    core_quad = kernel_smoothed_field_sq(y0, pairs, kernel.khat, h)
    w = np.square(kernel.khat(np.arange(J + 1) * h))
    center = (w[0] + 2.0 * w[1:].sum()) / n
    want = n * math.sqrt(h) / math.sqrt(kernel.gamma_sq) * (core_quad - center)
    obs = KernelObservations(y0=y0, pairs=pairs)
    got = kernel_statistic_fourier(obs, cfg, n)
    assert got == pytest.approx(want, rel=1e-6)


def test_truncation_warning():
    cfg = KernelTestConfig(kernel=BOX, alpha=0.05, h=0.05)
    obs = KernelObservations(y0=0.0, pairs=np.zeros((8, 2)))
    with pytest.warns(UserWarning, match="truncation"):
        kernel_statistic_fourier(obs, cfg, 100)


def test_t1n_single_pair_and_bounds():
    cfg = KernelTestConfig(kernel=BOX, alpha=0.05, h=0.2)
    coeffs = np.zeros((3, 2))
    coeffs[2] = [0.3, -0.4]
    sig = SignalSpec(Basis.TRIG_FULL, coeffs)
    want = float(BOX.khat(3 * 0.2)) ** 2 * 0.25
    assert t1n(sig, cfg) == pytest.approx(want, rel=1e-12)
    assert t1n(SignalSpec(Basis.TRIG_FULL, np.zeros((4, 2))), cfg) == 0.0
    assert t1n(sig, cfg) <= sig.norm_sq
    with pytest.raises(ValidationError):
        t1n(SignalSpec(Basis.COSINE_PI, np.array([0.1])), cfg)


def test_t1n_monotone_as_h_shrinks():
    sig = SignalSpec(Basis.TRIG_FULL, np.array([[0.5, 0.2]]))
    vals = []
    for h in (0.3, 0.2, 0.1, 0.05, 0.02):
        cfg = KernelTestConfig(kernel=BOX, alpha=0.05, h=h)
        vals.append(t1n(sig, cfg))
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(sig.norm_sq, rel=0.01)
    assert all(v <= sig.norm_sq for v in vals)


def test_power_prediction_anchors():
    n = 400
    h = 0.1
    cfg = KernelTestConfig(kernel=BOX, alpha=0.05, h=h)
    flat = SignalSpec(Basis.TRIG_FULL, np.zeros((2, 2)))
    assert kernel_power_prediction(flat, cfg, n) == pytest.approx(0.95)
    # choose the pair amplitude so the shift equals x_alpha: beta = 1/2
    target = cfg.x_alpha * math.sqrt(BOX.gamma_sq) / (n * math.sqrt(h))
    a = math.sqrt(target / float(BOX.khat(h)) ** 2)
    mid = SignalSpec(Basis.TRIG_FULL, np.array([[a, 0.0]]))
    assert kernel_power_prediction(mid, cfg, n) == pytest.approx(0.5, abs=1e-12)


def test_spike_shift_vanishes_along_bandwidth_schedule():
    """Paired spike/bandwidth schedules send the predicted shift to zero."""
    m_list = [4, 8, 16, 32]
    hs = inconsistency_bandwidths(BOX, m_list)
    n = 2048
    shifts = []
    for m, h in zip(m_list, hs):
        coeffs = np.zeros((m, 2))
        coeffs[m - 1, 0] = 0.5
        sig = SignalSpec(Basis.TRIG_FULL, coeffs)
        cfg = KernelTestConfig(kernel=BOX, alpha=0.05, h=h)
        shift = n * math.sqrt(h) / math.sqrt(BOX.gamma_sq) * t1n(sig, cfg)
        shifts.append(shift)
    assert all(b < a for a, b in zip(shifts, shifts[1:]))


def test_decide_and_predict_report():
    rng = np.random.default_rng(77)
    sig = SignalSpec(Basis.TRIG_FULL, 0.2 * rng.standard_normal((8, 2)))
    n = 512
    obs = sample_kernel_observations(sig, NoiseModel(1.0, n), rng)
    cfg = KernelTestConfig(kernel=EPA, alpha=0.1, h=0.15)
    rep = decide_and_predict(obs, cfg, n, theta=sig)
    assert rep.family == "kernel"
    assert rep.reject == (rep.statistic >= cfg.x_alpha)
    assert rep.ingredients["h"] == 0.15
    assert rep.ingredients["T1n"] == pytest.approx(t1n(sig, cfg, n))
    assert rep.predicted_beta == pytest.approx(kernel_power_prediction(sig, cfg, n))


_SIGNAL = SignalSpec(Basis.TRIG_FULL, np.array([[0.3, -0.1], [0.0, 0.2],
                                                [0.05, 0.0]]))


@pytest.mark.parametrize("cfg, n", [
    (KernelTestConfig(kernel=BOX, alpha=0.05, h=0.1), 64),
    (KernelTestConfig(kernel=EPA, alpha=0.05, noise_sigma=0.7, h=0.25), 100),
    (KernelTestConfig(kernel=BOX, alpha=0.01, noise_sigma=1.3,
                      h_rule=(0.3, 0.5)), 256),
], ids=["box", "epanechnikov-sigma", "box-h-rule-sigma"])
def test_unit_and_weights_are_shared(cfg, n):
    """The form, the power prediction and T1n read one unit n h^{1/2}
    sigma^{-2} gamma^{-1} and one set of weights |Khat(j h)|^2."""
    h = cfg.bandwidth(n)
    unit = kernel_unit(cfg, n)
    assert unit == pytest.approx(
        n * math.sqrt(h) / (cfg.noise_sigma ** 2 * math.sqrt(cfg.kernel.gamma_sq)),
        rel=1e-15)
    form = kernel_form(cfg, n, 512)
    assert form.unit == unit
    shift = unit * t1n(_SIGNAL, cfg, n)
    assert kernel_power_prediction(_SIGNAL, cfg, n) == float(
        ndtr(cfg.x_alpha - shift))
    # T1n is the form's weighted energy of the signal's coordinates.
    theta = np.zeros(form.weights.size)
    coords = kernel_coordinates(_SIGNAL)
    theta[:coords.size] = coords
    assert coords[0] == 0.0
    assert form.unit * (form.weights @ np.square(theta)) == pytest.approx(
        shift, rel=1e-13)


def test_coordinates_refuse_one_dimensional_signals():
    with pytest.raises(ValidationError, match="TrigFull"):
        kernel_coordinates(SignalSpec(Basis.COSINE_PI, np.array([0.3])))
    with pytest.raises(ValidationError, match="TrigFull"):
        kernel_coordinates(np.array([0.0, 0.3, 0.4]))
