"""Cramer-von Mises statistic, its weighted-series null law, and tables.

The scaled statistic for a sample of size n from (0, 1) is

    n T^2(Fhat - F0) = Sum_i (u_(i) - (2i-1)/(2n))^2 + 1/(12n),

an exact order-statistic identity. Its limiting null law is the squared
norm of the Brownian bridge, the weighted series Sum_j (xi_j / (pi j))^2,
and against a density perturbation f = Sum c_j sqrt(2) cos(pi j t) the
population value is T^2(F - F0) = Sum_j c_j^2 / (pi^2 j^2); the local shift
enters the series as Sum_j (xi_j/(pi j) + sqrt(n) c_j/(pi j))^2.

Critical values come from self-generated Monte Carlo tables of the
truncated series; the truncation tail obeys Sum_{j>J} 1/(pi^2 j^2) <=
1/(pi^2 J).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .reports import TestReport
from .rng import STREAM_NULL_TABLE, substream
from .signals import Basis, SignalSpec

_TABLE_BLOCK = 4096


def cvm_statistic(points: np.ndarray):
    """Exact value of n T^2(Fhat - F0) from the order statistics, one value
    per sample along the last axis."""
    u = np.sort(np.asarray(points, dtype=float), axis=-1)
    if u.size == 0:
        raise ValidationError("empty sample")
    n = u.shape[-1]
    grid = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    stat = np.sum(np.square(u - grid), axis=-1) + 1.0 / (12.0 * n)
    return stat if stat.ndim else float(stat)


def cvm_population(signal: SignalSpec) -> float:
    """T^2(F - F0) = Sum_j theta_j^2 / (pi^2 j^2) on the CosinePi basis."""
    if signal.basis is not Basis.COSINE_PI:
        raise ValidationError("population value indexes CosinePi signals")
    j = np.arange(1, signal.J + 1, dtype=float)
    return float(np.sum(np.square(signal.coeffs) / (math.pi ** 2 * np.square(j))))


def cvm_consistency_index(signal: SignalSpec, n: int) -> float:
    """n T^2(F - F0): divergence of this index is exactly consistency."""
    return n * cvm_population(signal)


def series_shift(signal: SignalSpec, n: int, J_null: int) -> np.ndarray:
    """Shift vector sqrt(n) c_j / (pi j) of the local limiting series."""
    if signal.basis is not Basis.COSINE_PI:
        raise ValidationError("series shift indexes CosinePi signals")
    c = np.zeros(J_null)
    take = min(signal.J, J_null)
    c[:take] = np.asarray(signal.coeffs)[:take]
    j = np.arange(1, J_null + 1, dtype=float)
    return math.sqrt(n) * c / (math.pi * j)


def truncation_tail_bound(J: int) -> float:
    """Upper bound on the dropped null-series mean: Sum_{j>J} 1/(pi^2 j^2)."""
    if J < 1:
        raise ValidationError("J must be positive")
    return 1.0 / (math.pi ** 2 * J)


def bridge_weights(J_null: int) -> np.ndarray:
    """Brownian-bridge series weights 1/(pi^2 j^2), j = 1..J_null."""
    j = np.arange(1, J_null + 1, dtype=float)
    return 1.0 / (math.pi ** 2 * np.square(j))


def cvm_null_sample(J_null: int, rng: np.random.Generator, size: int = 1,
                    shift: np.ndarray | None = None) -> np.ndarray:
    """Draws of Sum_{j<=J_null} (xi_j/(pi j) + s_j)^2 (s = 0: null law)."""
    if J_null < 1:
        raise ValidationError("J_null must be positive")
    offsets = 0.0
    if shift is not None:
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (J_null,):
            raise ValidationError("shift must have length J_null")
        offsets = math.pi * np.arange(1, J_null + 1, dtype=float) * shift
    xi = rng.standard_normal((size, J_null)) + offsets
    return np.square(xi) @ bridge_weights(J_null)


def weighted_null_quantiles(weights: np.ndarray, alphas, replicates: int,
                            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper alpha-quantiles of Sum w_j xi_j^2 by block-keyed Monte Carlo.

    Every block of 4096 replicates draws from the null-table substream keyed
    by its block index, row-major by (replicate, j), so the table is
    reproducible independent of scheduling.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValidationError("weights must be a nonempty 1-D array")
    if np.any(weights < 0.0):
        raise ValidationError("weights must be nonnegative")
    alphas = np.asarray(sorted(float(a) for a in alphas))
    if alphas.size == 0 or np.any((alphas <= 0) | (alphas >= 1)):
        raise ValidationError("alphas must lie in (0, 1)")
    if replicates < 100:
        raise ValidationError("at least 100 replicates required")
    draws = np.empty(replicates)
    for b, start in enumerate(range(0, replicates, _TABLE_BLOCK)):
        rows = min(_TABLE_BLOCK, replicates - start)
        gen = substream(seed, STREAM_NULL_TABLE, b)
        draws[start:start + rows] = (
            np.square(gen.standard_normal((rows, weights.size))) @ weights)
    criticals = np.quantile(draws, 1.0 - alphas)
    return alphas, criticals


@dataclass(frozen=True)
class CvmNullTable:
    """Self-generated critical values of the truncated null series."""

    alphas: tuple[float, ...]
    criticals: tuple[float, ...]
    J_null: int
    replicates: int
    seed: int

    def __post_init__(self):
        if len(self.alphas) != len(self.criticals):
            raise ValidationError("alphas and criticals must align")
        crit = np.asarray(self.criticals)
        if np.any(np.diff(crit) > 0.0):
            raise ValidationError("criticals must decrease as alpha grows")

    def critical(self, alpha: float) -> float:
        for a, c in zip(self.alphas, self.criticals):
            if abs(a - alpha) <= 1e-12:
                return c
        raise ValidationError(f"alpha = {alpha} not tabulated; have {self.alphas}")

    def to_json(self) -> str:
        return json.dumps({
            "alpha": list(self.alphas), "critical": list(self.criticals),
            "J_null": self.J_null, "replicates": self.replicates,
            "seed": self.seed}, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CvmNullTable":
        try:
            obj = json.loads(text)
            return cls(alphas=tuple(obj["alpha"]), criticals=tuple(obj["critical"]),
                       J_null=int(obj["J_null"]), replicates=int(obj["replicates"]),
                       seed=int(obj["seed"]))
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"malformed null table: {exc}") from exc


def build_cvm_null_table(alphas, replicates: int, seed: int,
                         J_null: int = 1024) -> CvmNullTable:
    a, c = weighted_null_quantiles(bridge_weights(J_null), alphas, replicates, seed)
    return CvmNullTable(alphas=tuple(float(x) for x in a),
                        criticals=tuple(float(x) for x in c),
                        J_null=J_null, replicates=replicates, seed=seed)


def decide(points: np.ndarray, table: CvmNullTable, alpha: float) -> TestReport:
    """Table-based decision: reject iff n T^2 exceeds the tabulated critical."""
    stat = cvm_statistic(points)
    crit = table.critical(alpha)
    n = int(np.asarray(points).size)
    return TestReport(
        family="cvm", n=n, statistic=stat, standardized=stat,
        reject=bool(stat > crit), predicted_beta=None,
        ingredients={"critical": crit, "J_null": table.J_null})
