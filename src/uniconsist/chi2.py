"""Chi-square goodness-of-fit tests with growing cell counts.

For m equal cells of (0, 1) and cell frequencies p_hat the statistic is
T_n = n m Sum_l (p_hat_l - 1/m)^2, the classical Pearson statistic against
the uniform null. The decision standardizes by the chi-square moments:
reject iff (T_n - m + 1) / sqrt(2 m) > x_alpha. Against a density 1 + f the
population counterpart is T_n(F) = n m Sum_l (int_cell f)^2 = n ||Pi f||^2,
with Pi the L2 projection onto cell-wise constants, and the Gaussian power
prediction is Phi(x_alpha - T_n(F) / sqrt(2 m)).

A closed Fourier double series evaluates the population quantity directly
from exponential coefficients; both routes return
S(f, m) = Sum_l (int_cell f)^2 = T_n(F) / (n m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._ports import ndtr
from .errors import ValidationError
from .quad import dimension_exponent, gaussian_upper_quantile
from .reports import TestReport
from .signals import (Basis, SignalSpec, cdf_offset, check_sample_shape,
                      check_unit_interval, to_exponential)


@dataclass(frozen=True)
class Chi2Config:
    """Cell rule and level. One of ``m`` (fixed) or ``m_rule = (r, const)``.

    The rule resolves m_n = round(const * n^{2-4r}), the calibration under
    which the cell count tracks the effective dimension of the matched
    quadratic test.
    """

    alpha: float
    m: int | None = None
    m_rule: tuple[float, float] | None = None
    x_alpha: float = field(init=False)

    def __post_init__(self):
        if (self.m is None) == (self.m_rule is None):
            raise ValidationError("give exactly one of m or m_rule")
        if self.m is not None and self.m < 2:
            raise ValidationError("m must be at least 2")
        if self.m_rule is not None:
            r, const = self.m_rule
            dimension_exponent(r)
            if not const > 0.0:
                raise ValidationError(f"m_rule const must be positive, got {const!r}")
        object.__setattr__(self, "x_alpha", gaussian_upper_quantile(self.alpha))

    def cells(self, n: int | None = None) -> int:
        if n is not None and n < 2:
            raise ValidationError(f"at least 2 points required, got {n}")
        if self.m is not None:
            m = self.m
        else:
            if n is None:
                raise ValidationError("m_rule needs n to resolve the cell count")
            r, const = self.m_rule
            m = int(round(const * float(n) ** dimension_exponent(r)))
            m = max(m, 2)
        if n is not None and m > n ** 2 / math.log(n):
            raise ValidationError(f"cell count m = {m} exceeds the n^2/log n guard")
        return m


def _cells(points: np.ndarray, m: int) -> np.ndarray:
    """Cell index floor(x m) in 0..m-1 of each point; boundary points go right."""
    points = np.asarray(points, dtype=float)
    if m < 2:
        raise ValidationError("m must be at least 2")
    if points.size == 0:
        raise ValidationError("empty sample")
    return np.clip(np.floor(points * m).astype(np.int64), 0, m - 1)


def _occupancy(cells: np.ndarray, m: int) -> np.ndarray:
    lead = cells.shape[:-1]
    samples = math.prod(lead)
    offsets = (np.arange(samples) * m).reshape(lead + (1,))
    return np.bincount((cells + offsets).ravel(),
                       minlength=samples * m).reshape(lead + (m,))


def cell_counts(points: np.ndarray, m: int) -> np.ndarray:
    """Occupancy counts of the m equal cells per sample along the last axis;
    boundary points go right."""
    return _occupancy(_cells(points, m), m)


def cell_statistic(cells: np.ndarray, m: int):
    """T_n = n m Sum_l (p_hat_l - 1/m)^2 from each point's cell index in
    0..m-1, one value per sample along the last axis."""
    counts = _occupancy(cells, m)
    n = cells.shape[-1]
    stat = n * m * np.sum(np.square(counts / n - 1.0 / m), axis=-1)
    return stat if stat.ndim else float(stat)


def chi2_statistic(points: np.ndarray, m: int):
    """T_n = n m Sum_l (p_hat_l - 1/m)^2 (equals the Pearson statistic), one
    value per sample along the last axis."""
    return cell_statistic(_cells(points, m), m)


def chi2_standardize(stat, m: int):
    """(T_n - m + 1) / sqrt(2 m); the test rejects when it exceeds x_alpha."""
    return (stat - m + 1.0) / math.sqrt(2.0 * m)


def cell_integrals(signal: SignalSpec, m: int) -> np.ndarray:
    """Exact vector of int_{l/m}^{(l+1)/m} f, l = 0..m-1, via antiderivatives."""
    edges = np.arange(m + 1) / m
    offs = cdf_offset(signal, edges)
    return np.diff(offs)


def chi2_population(signal: SignalSpec, m: int) -> float:
    """S(f, m) = Sum_l (int_cell f)^2; T_n(F) = n * m * S(f, m)."""
    if m < 2:
        raise ValidationError("m must be at least 2")
    return float(np.sum(np.square(cell_integrals(signal, m))))


def projection_l2n(signal: SignalSpec, m: int) -> np.ndarray:
    """Cell values of the L2 projection onto m-cell constants: m * int_cell f."""
    return m * cell_integrals(signal, m)


def projection_norm_sq(signal: SignalSpec, m: int) -> float:
    """||Pi f||^2 = m * S(f, m); the statistic identity is T_n(F) = n ||Pi f||^2."""
    return float(np.sum(np.square(projection_l2n(signal, m))) / m)


def chi2_fourier_identity(signal: SignalSpec, m: int,
                          K_max: int | None = None) -> float:
    """S(f, m) via the exponential-coefficient double series.

    S = m * Sum_k Sum_{j != 0, j != km} theta_j conj(theta_{j-km})
        * (2 - 2 cos(2 pi j / m)) / (4 pi^2 j (j - km)),

    with the 0/0 terms dropped (their numerators vanish identically). For a
    signal supported on |j| <= J every term with |k| > 2J/m has an empty
    index range, so the default K_max is exact, not a truncation.
    """
    if signal.basis is not Basis.TRIG_FULL:
        raise ValidationError("the Fourier identity indexes TrigFull signals")
    if m < 2:
        raise ValidationError("m must be at least 2")
    J = signal.J
    _, theta = to_exponential(signal)
    if K_max is None:
        K_max = 2 * J // m + 1
    total = 0.0 + 0.0j
    for k in range(-K_max, K_max + 1):
        shift = k * m
        lo, hi = max(-J, shift - J), min(J, shift + J)
        if hi < lo:
            continue
        js = np.arange(lo, hi + 1)
        js = js[(js != 0) & (js != shift)]
        if js.size == 0:
            continue
        num = 2.0 - 2.0 * np.cos(2.0 * math.pi * js / m)
        terms = theta[js + J] * np.conj(theta[js - shift + J]) * num \
            / (4.0 * math.pi ** 2 * js * (js - shift))
        total += np.sum(terms)
    value = m * total
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValidationError("Fourier series lost Hermitian symmetry")
    return float(value.real)


def tail_projection_report(signal: SignalSpec, m: int, i_n: int) -> dict:
    """Measured constant in the far-tail bound of the projected mass.

    For a signal supported above i_n >= m, the scaled population value
    m^{-1} S(f, m) is bounded by C m^{-1} i_n^{-1} * (coefficient mass); the
    report carries both sides and the measured C.
    """
    if i_n < 1:
        raise ValidationError("i_n must be positive")
    value = chi2_population(signal, m) / m
    mass = signal.norm_sq
    envelope = mass / (m * i_n)
    measured = value / envelope if envelope > 0 else math.inf
    return {"value": value, "envelope": envelope, "measured_C": measured}


def modulus_projection_report(signal: SignalSpec, m: int, k: int) -> dict:
    """Projection error versus the smoothness-modulus envelope.

    For a signal band-limited to |j| <= k <= m,
    ||f - Pi f|| <= 4 pi sqrt(k/m) ||f||. Both sides are exact: the left via
    Pythagoras ||f||^2 - ||Pi f||^2, the right from the stored norm.
    """
    if k > m:
        raise ValidationError("the modulus envelope needs band limit k <= m")
    err_sq = signal.norm_sq - projection_norm_sq(signal, m)
    err = math.sqrt(max(err_sq, 0.0))
    bound = 4.0 * math.pi * math.sqrt(k / m) * signal.norm
    return {"error": err, "bound": bound, "ok": bool(err <= bound * (1 + 1e-12))}


def chi2_predicted_beta(signal: SignalSpec, config: Chi2Config, n: int) -> float:
    """Phi(x_alpha - (2m)^{-1/2} T_n(F)) with T_n(F) = n m S(f, m)."""
    m = config.cells(n)
    t_pop = n * m * chi2_population(signal, m)
    return ndtr(config.x_alpha - t_pop / math.sqrt(2.0 * m))


def decide_and_predict(points: np.ndarray, config: Chi2Config, n: int,
                       signal: SignalSpec | None = None) -> TestReport:
    points = np.asarray(points, dtype=float)
    check_sample_shape(points)
    if points.size != n:
        raise ValidationError(f"sample size {points.size} != n = {n}")
    check_unit_interval(points, "points")
    m = config.cells(n)
    stat = chi2_statistic(points, m)
    standardized = chi2_standardize(stat, m)
    beta = None if signal is None else chi2_predicted_beta(signal, config, n)
    t_pop = None if signal is None else n * m * chi2_population(signal, m)
    return TestReport(
        family="chi2", n=n, statistic=stat, standardized=standardized,
        reject=bool(standardized > config.x_alpha), predicted_beta=beta,
        ingredients={"m": m, "population_T": t_pop})
