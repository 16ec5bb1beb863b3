"""Replicated Monte Carlo evaluation of the test families.

Reproducibility contract: replicate i of a run draws from the counter-based
substream keyed by (seed, stream, i), independent of execution order, block
size, or thread count. Runs aggregate boolean rejection matrices whose rows
are fully determined by the key, so identical configurations produce
byte-identical summaries on any schedule.

Pairing: all variant signals within a run share the replicate's noise (the
xi vector in the sequence model, the uniform sample in the i.i.d. model),
so variant contrasts are common-random-number comparisons.

Loop contract: every family's ``*_rejections`` supplies only its noise draw
(a method call on the replicate's generator that fills one row in place),
the noise scale, and its ``reject_block`` callable, which applies the family
module's own statistic and decision to a block of noise rows and returns
the block's whole (rows x variants) decision matrix. Pairing and
determinism come from the single block loop ``_rejections``, which fills
each block from the substreams and hands it to ``reject_block`` once.
quad and fixed score all variants in one pass over the block
(:func:`~uniconsist.quad.weighted_square_sums`); chi2, cvm and kernel score
it one variant column at a time (``_per_column``).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chi2 import Chi2Config, cell_statistic, chi2_standardize, chi2_statistic
from .cvm import CvmNullTable, cvm_statistic
from .errors import ValidationError
from .kernel import KernelTestConfig, _weights, kernel_statistic
from .quad import (FixedKappa, QuadTestConfig, quad_standardize,
                   weighted_square_sums)
from .rng import STREAM_IID, STREAM_SEQUENCE_MODEL, substream
from .signals import Basis, DensitySpec, SignalSpec, cdf_offset, invert_cdf

BLOCK_ROWS = 512
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class MCConfig:
    replicates: int
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.replicates < 100:
            raise ValidationError("replicates must be at least 100")
        if self.threads < 1:
            raise ValidationError("threads must be at least 1")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% score interval; always contains the point estimate."""
    if trials <= 0:
        raise ValidationError("trials must be positive")
    p = successes / trials
    z = _Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials
                         + z * z / (4.0 * trials * trials)) / denom
    return center - half, center + half


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    std_error: float
    replicates: int
    ci_lo: float
    ci_hi: float

    @classmethod
    def from_successes(cls, successes: int, trials: int) -> "MCEstimate":
        p = successes / trials
        lo, hi = wilson_interval(successes, trials)
        return cls(estimate=p,
                   std_error=math.sqrt(p * (1.0 - p) / trials),
                   replicates=trials, ci_lo=lo, ci_hi=hi)


def estimate_columns(rejections: np.ndarray) -> list[MCEstimate]:
    """One estimate per variant column of a rejection matrix."""
    rej = np.asarray(rejections, dtype=bool)
    trials = rej.shape[0]
    return [MCEstimate.from_successes(int(rej[:, v].sum()), trials)
            for v in range(rej.shape[1])]


def paired_excess(rejections: np.ndarray, col_a: int, col_b: int) -> dict:
    """Mean difference of paired rejection indicators and its standard error."""
    rej = np.asarray(rejections, dtype=bool)
    d = rej[:, col_a].astype(float) - rej[:, col_b].astype(float)
    R = d.size
    return {"difference": float(d.mean()),
            "std_error": float(d.std(ddof=1) / math.sqrt(R))}


def power_row(n: int, empirical_alpha: float, empirical_beta: float,
              predicted_beta: float, band: float) -> dict:
    """One row of a power report: empirical against predicted type II error."""
    gap = abs(empirical_beta - predicted_beta)
    return {"n": int(n), "empirical_alpha": float(empirical_alpha),
            "empirical_beta": float(empirical_beta),
            "predicted_beta": float(predicted_beta),
            "abs_gap": gap, "within_band": bool(gap <= band)}


def _rejections(mc: MCConfig, stream: int, width: int, draw, scale,
                reject_block) -> np.ndarray:
    """The one block loop behind every family's rejection matrix.

    Row i of a block is filled in place by
    ``draw(substream(seed, stream, i), row)``, a length ``width`` noise row,
    and the block is then multiplied by ``scale`` (None: kept as drawn).
    ``reject_block(block)`` returns the block's (rows x variants) decisions;
    it may overwrite the block, which is not used again.
    """
    def work(lo: int) -> np.ndarray:
        hi = min(lo + BLOCK_ROWS, mc.replicates)
        noise = np.empty((hi - lo, width))
        for row, i in zip(noise, range(lo, hi)):
            draw(substream(mc.seed, stream, i), row)
        if scale is not None:
            noise *= scale
        return reject_block(noise)

    starts = range(0, mc.replicates, BLOCK_ROWS)
    if mc.threads == 1:
        return np.concatenate([work(lo) for lo in starts])
    with ThreadPoolExecutor(max_workers=mc.threads) as pool:
        return np.concatenate(list(pool.map(work, starts)))


def _normals(g, row):
    g.standard_normal(out=row)


def _uniforms(g, row):
    g.random(out=row)


def _per_column(variants, reject):
    """A ``reject_block`` that fills column v with ``reject(block, variants[v])``."""
    def reject_block(noise):
        out = np.empty((noise.shape[0], len(variants)), dtype=bool)
        for v, variant in enumerate(variants):
            out[:, v] = reject(noise, variant)
        return out

    return reject_block


def _rows(variants, shape: tuple, coeffs) -> np.ndarray:
    """Variants packed as rows of the given shape; None is the zero row.

    ``coeffs(v, variant)`` applies the family's own check and returns the
    variant's coefficients; support past the truncation shape[0] must be 0.
    """
    rows = np.zeros((len(variants),) + shape)
    J = shape[0]
    for v, variant in enumerate(variants):
        if variant is None:
            continue
        vec = coeffs(v, variant)
        if vec.shape[0] > J:
            if np.any(vec[J:] != 0.0):
                raise ValidationError(
                    f"variant {v} has support beyond the truncation J = {J}")
            vec = vec[:J]
        rows[v, :vec.shape[0]] = vec
    return rows


def _sequence_coeffs(v, theta) -> np.ndarray:
    if isinstance(theta, SignalSpec):
        if theta.basis is Basis.TRIG_FULL:
            raise ValidationError("sequence-model runs need a 1-D basis signal")
        return np.asarray(theta.coeffs, dtype=float)
    return np.asarray(theta, dtype=float)


def _pair_coeffs(v, theta) -> np.ndarray:
    if not isinstance(theta, SignalSpec) or theta.basis is not Basis.TRIG_FULL:
        raise ValidationError("kernel runs take TrigFull signals (or None)")
    return np.asarray(theta.coeffs, dtype=float)


def quad_rejections(mc: MCConfig, config: QuadTestConfig, n: int,
                    thetas) -> np.ndarray:
    """Rejection matrix of the quadratic test; one column per theta variant."""
    profile = config.profile
    profile.require_n(n)
    J = profile.J
    rows = _rows(thetas, (J,), _sequence_coeffs)
    w = profile.kappa_sq[n]
    center = profile.sigma ** 2 * profile.rho[n] / n

    def reject_block(noise):
        t_raw = weighted_square_sums(noise, rows, w) - center
        return quad_standardize(t_raw, profile, n) > config.x_alpha

    return _rejections(mc, STREAM_SEQUENCE_MODEL, J, _normals,
                       profile.sigma / math.sqrt(n), reject_block)


def kernel_rejections(mc: MCConfig, config: KernelTestConfig, n: int,
                      thetas, J: int) -> np.ndarray:
    """Rejection matrix of the kernel test; one column per theta variant."""
    w = _weights(config, J, config.bandwidth(n))
    rows = _rows(thetas, (J, 2), _pair_coeffs)

    def reject(noise, pairs):
        y_pairs = pairs + noise[:, 1:].reshape(-1, J, 2)
        return kernel_statistic(noise[:, 0], y_pairs, w, config, n) >= config.x_alpha

    return _rejections(mc, STREAM_SEQUENCE_MODEL, 1 + 2 * J, _normals,
                       config.noise_sigma / math.sqrt(n),
                       _per_column(rows, reject))


def _densities(variants) -> list:
    if any(d is not None and not isinstance(d, DensitySpec) for d in variants):
        raise ValidationError("i.i.d. runs take DensitySpec variants (or None)")
    return list(variants)


def chi2_rejections(mc: MCConfig, config: Chi2Config, n: int,
                    densities) -> np.ndarray:
    """Rejection matrix of the chi-square test; one column per density."""
    m = config.cells(n)
    # F is monotone, so F^{-1}(u) lies in cell l iff F(l/m) <= u < F((l+1)/m):
    # count the uniforms' cells against F at the interior edges, not invert.
    edges = np.arange(1, m) / m
    cuts = [None if d is None else edges + cdf_offset(d.signal, edges)
            for d in _densities(densities)]

    def reject(u, cut):
        stat = (chi2_statistic(u, m) if cut is None else
                cell_statistic(np.searchsorted(cut, u, side="right"), m))
        return chi2_standardize(stat, m) > config.x_alpha

    return _rejections(mc, STREAM_IID, n, _uniforms, None,
                       _per_column(cuts, reject))


def cvm_rejections(mc: MCConfig, table: CvmNullTable, alpha: float, n: int,
                   densities) -> np.ndarray:
    """Rejection matrix of the omega-square test; one column per density."""
    critical = table.critical(alpha)

    def reject(u, density):
        return cvm_statistic(
            u if density is None else invert_cdf(density, u)) > critical

    return _rejections(mc, STREAM_IID, n, _uniforms, None,
                       _per_column(_densities(densities), reject))


def estimate_size(config, n: int, mc: MCConfig, **kw) -> MCEstimate:
    """Null rejection rate: :func:`estimate_power` under the alternative None."""
    return estimate_power(config, None, n, mc, **kw)


def estimate_power(config, alternative, n: int, mc: MCConfig, *,
                   alpha: float | None = None, J: int | None = None,
                   critical: float | None = None) -> MCEstimate:
    """Rejection rate under one alternative (signal, density, shift or None).

    ``alpha`` is required for cvm, ``J`` is the kernel truncation (default
    2n), ``critical`` is required for the fixed-weight test.
    """
    variants = [alternative]
    if isinstance(config, (Chi2Config, CvmNullTable)) and isinstance(
            alternative, SignalSpec):
        variants = [DensitySpec(alternative)]
    if isinstance(config, QuadTestConfig):
        rej = quad_rejections(mc, config, n, variants)
    elif isinstance(config, KernelTestConfig):
        rej = kernel_rejections(mc, config, n, variants,
                                2 * n if J is None else J)
    elif isinstance(config, Chi2Config):
        rej = chi2_rejections(mc, config, n, variants)
    elif isinstance(config, CvmNullTable):
        if alpha is None:
            raise ValidationError("cvm runs need the level alpha")
        rej = cvm_rejections(mc, config, alpha, n, variants)
    elif isinstance(config, FixedKappa):
        if critical is None:
            raise ValidationError("fixed-weight runs need a critical value")
        rej = fixed_rejections(mc, config, critical, variants)
    else:
        raise ValidationError(f"unsupported family config {type(config).__name__}")
    return estimate_columns(rej)[0]


def fixed_rejections(mc: MCConfig, fk: FixedKappa, critical: float,
                     etas) -> np.ndarray:
    """Rejection matrix of the fixed-weight test; one column per shift."""
    L = fk.L

    def shift(v, eta) -> np.ndarray:
        vec = np.asarray(eta, dtype=float)
        if vec.shape != (L,):
            raise ValidationError(f"shift {v} must have shape ({L},)")
        return vec

    rows = _rows(etas, (L,), shift)
    return _rejections(
        mc, STREAM_SEQUENCE_MODEL, L, _normals, fk.scales(),
        lambda noise: weighted_square_sums(noise, rows, fk.kappa_sq) > critical)
