"""Kernel-smoothing tests in the sequence model over the full trigonometric basis.

For a symmetric density kernel K on [-1, 1] with transform
Khat(omega) = int exp(2 pi i omega t) K(t) dt, bandwidth h, and complex
exponential observations y_j (j in Z, carried as the real TrigFull pairs
plus the zero-frequency coordinate), the centered and standardized statistic
is

    T_n = n h^{1/2} sigma^{-2} gamma^{-1}
          ( Sum_j |Khat(j h)|^2 |y_j|^2  -  n^{-1} sigma^2 Sum_j |Khat(j h)|^2 ),

where gamma^2 = 2 int (K*K)^2 = 2 int |Khat|^4. T_n is a
:class:`~uniconsist.quad.QuadraticForm` (``kernel_form``) on the coordinates
(y_0, a_1, b_1, ..., a_J, b_J) (``kernel_coordinates``), with weight
|Khat(j h)|^2 (``_khat_sq``) on both coordinates of pair j, so the library
and the engine score it as they score the quad and fixed tests. The test
rejects when T_n > x_alpha; against a signal theta the Gaussian power
prediction is Phi(x_alpha - u T1n(theta)), with the unit
u = n h^{1/2} sigma^{-2} gamma^{-1} (``kernel_unit``) and
T1n(theta) = Sum_j |Khat(j h)|^2 |theta_j|^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy import optimize
from scipy.special import ndtr

from .errors import ValidationError
from .quad import QuadraticForm, dimension_exponent, gaussian_upper_quantile
from .reports import TestReport
from .signals import Basis, NoiseModel, SignalSpec

_GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(96)

# The statistic divides by noise_sigma^2: this range keeps sigma^2 and its
# inverse far inside the float range.
_SIGMA_BOUNDS = (1e-100, 1e100)


def _gauss_integral(f, a: float, b: float, pieces) -> float:
    """Gauss-Legendre integration split at the given interior knots."""
    knots = [a] + [p for p in pieces if a < p < b] + [b]
    x, w = _GAUSS_LEGENDRE
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(np.sum(w * f(mid + half * x)))
    return total


@dataclass(frozen=True)
class Kernel:
    """Symmetric probability kernel supported on [-1, 1].

    ``func`` evaluates K (vectorized, zero outside the support), ``fourier``
    its transform at real frequencies. Construction verifies unit mass,
    symmetry, and that the two routes to gamma^2 agree to 1e-8.
    """

    name: str
    func: object
    fourier: object

    def __post_init__(self):
        mass = _gauss_integral(self.func, -1.0, 1.0, (0.0,))
        if abs(mass - 1.0) > 1e-10:
            raise ValidationError(f"kernel mass {mass!r} != 1")
        t = np.linspace(0.0, 1.0, 257)
        if not np.allclose(self.func(t), self.func(-t), atol=1e-12, rtol=0.0):
            raise ValidationError("kernel must be symmetric")
        if abs(float(np.asarray(self.fourier(np.array([0.0])))[0]) - 1.0) > 1e-10:
            raise ValidationError("Khat(0) must equal 1")
        if abs(self.gamma_sq - self._gamma_sq_fourier()) > 1e-8:
            raise ValidationError("gamma^2 cross-check failed between time and Fourier routes")

    def khat(self, omega) -> np.ndarray:
        return np.asarray(self.fourier(np.asarray(omega, dtype=float)))

    @cached_property
    def autoconv(self):
        """t -> (K*K)(t), exact overlap integration, support [-2, 2]."""
        x, w = _GAUSS_LEGENDRE

        def conv(ts):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            out = np.zeros_like(ts)
            for i, t in enumerate(ts):
                lo, hi = max(-1.0, t - 1.0), min(1.0, t + 1.0)
                if hi <= lo:
                    continue
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                s = mid + half * x
                out[i] = half * float(np.sum(w * self.func(t - s) * self.func(s)))
            return out

        return conv

    @cached_property
    def gamma_sq(self) -> float:
        """gamma^2 = 2 int (K*K)^2, by overlap quadrature."""
        conv = self.autoconv
        return 2.0 * _gauss_integral(lambda t: np.square(conv(t)), -2.0, 2.0,
                                     (-1.0, 0.0, 1.0))

    def _gamma_sq_fourier(self) -> float:
        """gamma^2 = 2 int |Khat|^4 over |w| <= 64, piecewise to tame oscillation."""
        edges = np.arange(0.0, 64.25, 0.5)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += _gauss_integral(lambda w: np.power(self.khat(w), 4), lo, hi, ())
        return 4.0 * total


def _box_fourier(omega: np.ndarray) -> np.ndarray:
    return np.sinc(2.0 * omega)


def _epanechnikov_fourier(omega: np.ndarray) -> np.ndarray:
    a = 2.0 * math.pi * np.asarray(omega, dtype=float)
    small = np.abs(a) < 1e-2
    a_safe = np.where(small, 1.0, a)
    exact = 3.0 * (np.sin(a_safe) - a_safe * np.cos(a_safe)) / a_safe ** 3
    a2 = np.square(a)
    series = 1.0 - a2 / 10.0 + np.square(a2) / 280.0
    return np.where(small, series, exact)


def box_kernel() -> Kernel:
    return Kernel(
        name="box",
        func=lambda t: np.where(np.abs(np.asarray(t, dtype=float)) <= 1.0, 0.5, 0.0),
        fourier=_box_fourier)


def epanechnikov_kernel() -> Kernel:
    return Kernel(
        name="epanechnikov",
        func=lambda t: np.where(np.abs(np.asarray(t, dtype=float)) <= 1.0,
                                0.75 * (1.0 - np.square(np.asarray(t, dtype=float))), 0.0),
        fourier=_epanechnikov_fourier)


_BUILTINS = {"box": box_kernel, "epanechnikov": epanechnikov_kernel}


@cache
def builtin_kernel(name: str) -> Kernel:
    """The named built-in kernel, built (and self-checked) once per name."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValidationError(f"unknown kernel {name!r}; choose from {sorted(_BUILTINS)}")


def half_level_radius(kernel: Kernel) -> float:
    """Largest omega such that |Khat| stays >= 1/2 on [0, omega] (numeric)."""
    grid = np.linspace(0.0, 4.0, 4097)
    vals = np.abs(kernel.khat(grid))
    below = np.flatnonzero(vals < 0.5)
    if below.size == 0:
        return float(grid[-1])
    i = int(below[0])
    if i == 0:
        raise ValidationError("|Khat(0)| < 1/2; not a unit-mass kernel")
    return float(optimize.brentq(
        lambda w: abs(float(kernel.khat(np.array([w]))[0])) - 0.5,
        grid[i - 1], grid[i], xtol=1e-12))


def inconsistency_bandwidths(kernel: Kernel, m_list) -> list[float]:
    """Bandwidths h_l = 1/(2 b m_l) pairing a spike schedule with the kernel.

    b is the half-level radius, so each spike frequency m_l lands at
    m_l h_l = 1/(2b), outside the kernel's half-level pass-band whenever
    b < 1/sqrt(2); the smoothed energy of the spike is then uniformly small.
    """
    b = half_level_radius(kernel)
    return [1.0 / (2.0 * b * int(m)) for m in m_list]


@dataclass(frozen=True)
class KernelObservations:
    """Sequence-model data for the kernel statistic.

    ``y0`` observes the zero frequency (signal part always 0 for densities),
    ``pairs`` row j-1 observes the cos/sin pair at frequency j.
    """

    y0: float
    pairs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError("pairs must have shape (J, 2)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pairs", arr)

    @property
    def J(self) -> int:
        return int(self.pairs.shape[0])


def sample_kernel_observations(signal: SignalSpec, noise: NoiseModel,
                               rng: np.random.Generator) -> KernelObservations:
    """Draw (y0, pairs): one normal for the zero frequency, then the pairs."""
    if signal.basis is not Basis.TRIG_FULL:
        raise ValidationError("kernel observations require a TrigFull signal")
    scale = noise.noise_scale
    y0 = scale * float(rng.standard_normal())
    pairs = signal.coeffs + scale * rng.standard_normal(signal.coeffs.shape)
    return KernelObservations(y0=y0, pairs=pairs)


@dataclass(frozen=True)
class KernelTestConfig:
    """Kernel, bandwidth rule, and level.

    Exactly one of ``h`` (explicit bandwidth) or ``h_rule = (r, const)``
    (bandwidth const * n^{-(2-4r)}) must be given.
    """

    kernel: Kernel
    alpha: float
    noise_sigma: float = 1.0
    h: float | None = None
    h_rule: tuple[float, float] | None = None
    x_alpha: float = field(init=False)

    def __post_init__(self):
        if (self.h is None) == (self.h_rule is None):
            raise ValidationError("give exactly one of h or h_rule")
        if self.h_rule is not None:
            r, const = self.h_rule
            dimension_exponent(r)
            if not const > 0.0:
                raise ValidationError(f"h_rule const must be positive, got {const!r}")
        lo, hi = _SIGMA_BOUNDS
        if not lo <= self.noise_sigma <= hi:
            raise ValidationError(f"noise_sigma must lie in [{lo:g}, {hi:g}], "
                                  f"got {self.noise_sigma!r}")
        object.__setattr__(self, "x_alpha", gaussian_upper_quantile(self.alpha))

    def bandwidth(self, n: int | None = None) -> float:
        if self.h is not None:
            h = self.h
        else:
            if n is None:
                raise ValidationError("h_rule needs n to resolve the bandwidth")
            r, const = self.h_rule
            h = const * float(n) ** -dimension_exponent(r)
        if not (0.0 < h < 1.0):
            raise ValidationError(f"bandwidth {h!r} outside (0, 1)")
        return h


def kernel_coordinates(theta: SignalSpec) -> np.ndarray:
    """A TrigFull signal on the coordinates (y_0, a_1, b_1, ...), with y_0 = 0."""
    if not isinstance(theta, SignalSpec) or theta.basis is not Basis.TRIG_FULL:
        raise ValidationError("kernel tests take TrigFull signals")
    return np.append(0.0, theta.coeffs)


def _khat_sq(config: KernelTestConfig, n: int | None, J: int) -> np.ndarray:
    """The weights |Khat(j h)|^2 at j = 0, ..., J, h the bandwidth at n."""
    return np.square(config.kernel.khat(np.arange(J + 1) * config.bandwidth(n)))


def kernel_unit(config: KernelTestConfig, n: int) -> float:
    """n h^{1/2} sigma^{-2} gamma^{-1}, the unit of T_n."""
    return n * math.sqrt(config.bandwidth(n)) / (
        config.noise_sigma ** 2 * math.sqrt(config.kernel.gamma_sq))


def kernel_form(config: KernelTestConfig, n: int, J: int) -> QuadraticForm:
    """T_n on the coordinates (y_0, a_1, b_1, ..., a_J, b_J)."""
    if n < 1 or J < 1:
        raise ValidationError(f"need n >= 1 and J >= 1, got n = {n}, J = {J}")
    h = config.bandwidth(n)
    if J * h < 1.0:
        warnings.warn(
            f"truncation J*h = {J * h:.3g} < 1 cuts into the main support of Khat",
            stacklevel=3)
    w = _khat_sq(config, n, J)
    sigma = config.noise_sigma
    return QuadraticForm(
        np.concatenate([w[:1], np.repeat(w[1:], 2)]), sigma / math.sqrt(n),
        (sigma ** 2 / n) * (w[0] + 2.0 * float(np.sum(w[1:]))),
        kernel_unit(config, n))


def kernel_statistic_fourier(obs: KernelObservations, config: KernelTestConfig,
                             n: int) -> float:
    """The standardized statistic T_n from coefficient-space observations."""
    form = kernel_form(config, n, obs.J)
    return form.unit * form.statistic(np.append(obs.y0, obs.pairs))


def t1n(theta: SignalSpec, config: KernelTestConfig, n: int | None = None) -> float:
    """Smoothed signal energy Sum_j |Khat(j h)|^2 |theta_j|^2."""
    if theta.basis is not Basis.TRIG_FULL:
        raise ValidationError("t1n requires a TrigFull signal")
    return float(_khat_sq(config, n, theta.J)[1:] @ theta.index_energy())


def kernel_power_prediction(theta: SignalSpec, config: KernelTestConfig,
                            n: int) -> float:
    """Gaussian type-II error of the kernel test against theta."""
    return float(ndtr(config.x_alpha - kernel_unit(config, n) * t1n(theta, config, n)))


def decide_and_predict(obs: KernelObservations, config: KernelTestConfig,
                       n: int, theta: SignalSpec | None = None) -> TestReport:
    stat = kernel_statistic_fourier(obs, config, n)
    beta = None if theta is None else kernel_power_prediction(theta, config, n)
    h = config.bandwidth(n)
    return TestReport(
        family="kernel", n=n, statistic=stat, standardized=stat,
        reject=bool(stat > config.x_alpha), predicted_beta=beta,
        ingredients={"h": h, "gamma_sq": config.kernel.gamma_sq,
                     "T1n": None if theta is None else t1n(theta, config, n)})
