"""Chi-square goodness-of-fit tests with growing cell counts.

For m equal cells of (0, 1) and cell frequencies p_hat the statistic is
T_n = n m Sum_l (p_hat_l - 1/m)^2, the classical Pearson statistic against
the uniform null. The decision standardizes by the chi-square moments:
reject iff (T_n - m + 1) / sqrt(2 m) > x_alpha. Against a density 1 + f the
population counterpart is T_n(F) = n m Sum_l (int_cell f)^2 = n ||Pi f||^2,
with Pi the L2 projection onto cell-wise constants, and the Gaussian power
prediction is Phi(x_alpha - T_n(F) / sqrt(2 m)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._ports import ndtr
from .errors import ValidationError, check_count, check_positive
from .quad import dimension_exponent, gaussian_upper_quantile
from .reports import TestReport
from .signals import (SignalSpec, cdf_offset, check_sample_shape,
                      check_unit_interval)


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
        if self.m is not None:
            check_count(self.m, "m", 2)
        if self.m_rule is not None:
            r, const = self.m_rule
            dimension_exponent(r)
            check_positive(const, "m_rule const")
        object.__setattr__(self, "x_alpha", gaussian_upper_quantile(self.alpha))

    def cells(self, n: int | None = None) -> int:
        if n is not None:
            check_count(n, "n, the number of points,", 2)
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
    check_count(m, "m", 2)
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
    check_count(m, "m", 2)
    return float(np.sum(np.square(cell_integrals(signal, m))))


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
