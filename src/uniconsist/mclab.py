"""Replicated Monte Carlo evaluation of the test families.

Reproducibility contract: replicate i of a run draws from the counter-based
substream keyed by (seed, stream, i), independent of execution order, block
size, or thread count; a block keys all of its replicates in one pass
(:func:`~uniconsist.rng.substreams`). Runs aggregate boolean rejection
matrices whose rows are fully determined by the key, so identical
configurations produce byte-identical summaries on any schedule.

Pairing: all variant signals within a run share the replicate's noise (the
xi vector in the sequence model, the uniform sample in the i.i.d. model),
so variant contrasts are common-random-number comparisons.

Loop contract: every family's ``*_rejections`` supplies only its noise draw
(a method call on the replicate's generator that fills one row in place)
and its ``reject_block`` callable, which returns a block of noise rows'
whole (rows x variants) decision matrix. Pairing and determinism come from
the single block loop ``_rejections``, which fills each block from its
replicates' substreams, unscaled, and hands it to ``reject_block`` once.
quad, kernel and fixed take their coordinate map and their
:class:`~uniconsist.quad.QuadraticForm` from the family module; ``_rows``
packs the variants and ``_form_rejections`` scores every variant of one or
more forms on the same coordinates from one block, folding each form's
noise scale into its weights (``weighted_square_sums``). A quad sweep
(:func:`quad_sweep`) is one such call: the profile's J is the same at every
n, so replicate i's xi is drawn once for all of them. chi2 and cvm score a
block one variant column at a time (``_per_column``).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chi2 import Chi2Config, cell_statistic, chi2_standardize, chi2_statistic
from .cvm import CvmNullTable, cvm_statistic
from .errors import ValidationError
from .kernel import KernelTestConfig, kernel_coordinates, kernel_form
from .quad import (FixedKappa, QuadTestConfig, quad_coordinates,
                   weighted_square_sums)
from .rng import STREAM_IID, STREAM_SEQUENCE_MODEL, check_seed, substreams
from .signals import DensitySpec, SignalSpec, cdf_offset, invert_cdf

BLOCK_ROWS = 512
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class MCConfig:
    replicates: int
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        for name in ("replicates", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.replicates < 100:
            raise ValidationError("replicates must be at least 100")
        if self.threads < 1:
            raise ValidationError("threads must be at least 1")
        check_seed(self.seed)


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


def _rejections(mc: MCConfig, stream: int, width: int, draw,
                reject_block) -> np.ndarray:
    """The one block loop behind every family's rejection matrix.

    A block covers replicates lo .. hi - 1 and keys their substreams in one
    pass, ``substreams(seed, stream, range(lo, hi))``; row i is filled in
    place by ``draw(generator, row)``, a length ``width`` noise row, before
    the generator is re-keyed for row i + 1. ``reject_block(block)``
    returns the block's (rows x variants) decisions; it may overwrite the
    block, which is not used again.
    """
    def work(lo: int) -> np.ndarray:
        hi = min(lo + BLOCK_ROWS, mc.replicates)
        noise = np.empty((hi - lo, width))
        for row, gen in zip(noise, substreams(mc.seed, stream, range(lo, hi))):
            draw(gen, row)
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


def _rows(variants, size: int, coordinates) -> np.ndarray:
    """Variants as rows of a test's ``size`` coordinates, each mapped by the
    family's ``coordinates``; None is the zero row. Coordinates must be
    finite and zero past ``size``; an error names the variant."""
    rows = np.zeros((len(variants), size))
    for v, variant in enumerate(variants):
        if variant is None:
            continue
        try:
            vec = coordinates(variant)
            if not np.all(np.isfinite(vec)) or np.any(vec[size:] != 0.0):
                raise ValidationError("coordinates must be finite, with none "
                                      f"beyond the {size} of the test")
        except ValidationError as exc:
            raise ValidationError(f"variant {v}: {exc}") from None
        rows[v, :min(vec.size, size)] = vec[:size]
    return rows


def _fold(tests) -> tuple[np.ndarray, np.ndarray]:
    """Rows and weights of every ``(form, critical, rows)`` of ``tests`` (forms
    of one coordinate count), each form's scale s folded in so that
    ``weighted_square_sums(xi, *_fold(tests))`` scores unscaled noise:
    Sum w (theta + s xi)^2 = Sum (w s^2) (theta / s + xi)^2."""
    width = tests[0][0].weights.size
    for k, (form, _, _) in enumerate(tests):
        if form.weights.size != width:
            raise ValidationError(
                f"forms scored together must share their coordinates: form {k} "
                f"has {form.weights.size}, form 0 has {width}")
    rows = np.concatenate([rows / form.scale for form, _, rows in tests])
    w = [form.weights * np.square(form.scale) for form, _, _ in tests]
    if len(w) == 1:
        return rows, w[0]
    return rows, np.concatenate([np.broadcast_to(wf, r.shape)
                                 for wf, (_, _, r) in zip(w, tests)])


def _form_rejections(mc: MCConfig, tests) -> list[np.ndarray]:
    """One decision matrix per ``(form, critical, rows)`` of ``tests``:
    unit (Sum w y^2 - center) > critical on y = row + scale xi, every form
    scored from the same unscaled xi of each replicate (:func:`_fold`)."""
    rows, w = _fold(tests)
    bounds = np.cumsum([0] + [r.shape[0] for _, _, r in tests])
    spans = list(zip(bounds[:-1], bounds[1:]))

    def reject_block(noise):
        sums = weighted_square_sums(noise, rows, w)
        out = np.empty(sums.shape, dtype=bool)
        for (form, critical, _), (lo, hi) in zip(tests, spans):
            out[:, lo:hi] = form.unit * (sums[:, lo:hi] - form.center) > critical
        return out

    rej = _rejections(mc, STREAM_SEQUENCE_MODEL, rows.shape[1], _normals,
                      reject_block)
    return [rej[:, lo:hi] for lo, hi in spans]


def quad_sweep(mc: MCConfig, config: QuadTestConfig,
               variants_by_n) -> dict[int, np.ndarray]:
    """Rejection matrix of the quadratic test at every n of ``variants_by_n``
    (n -> theta variants), one column per variant.

    Every n of a profile has the profile's J coordinates, so each
    replicate's xi is drawn once and scored at every n; each matrix equals
    the one :func:`quad_rejections` gives at its n alone.
    """
    if not variants_by_n:
        raise ValidationError("a quad sweep needs at least one n")
    tests = []
    for n, thetas in variants_by_n.items():
        form = config.profile.form(n)
        try:
            rows = _rows(thetas, form.weights.size, quad_coordinates)
        except ValidationError as exc:
            raise ValidationError(f"n = {n}: {exc}") from None
        tests.append((form, config.x_alpha, rows))
    return dict(zip(variants_by_n, _form_rejections(mc, tests)))


def quad_rejections(mc: MCConfig, config: QuadTestConfig, n: int,
                    thetas) -> np.ndarray:
    """Rejection matrix of the quadratic test; one column per theta variant."""
    return quad_sweep(mc, config, {n: thetas})[n]


def kernel_rejections(mc: MCConfig, config: KernelTestConfig, n: int,
                      thetas, J: int) -> np.ndarray:
    """Rejection matrix of the kernel test; one column per theta variant."""
    form = kernel_form(config, n, J)
    return _form_rejections(mc, [(form, config.x_alpha, _rows(
        thetas, form.weights.size, kernel_coordinates))])[0]


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

    return _rejections(mc, STREAM_IID, n, _uniforms,
                       _per_column(cuts, reject))


def cvm_rejections(mc: MCConfig, table: CvmNullTable, alpha: float, n: int,
                   densities) -> np.ndarray:
    """Rejection matrix of the omega-square test; one column per density."""
    critical = table.critical(alpha)

    def reject(u, density):
        return cvm_statistic(
            u if density is None else invert_cdf(density, u)) > critical

    return _rejections(mc, STREAM_IID, n, _uniforms,
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
    if not math.isfinite(critical):
        raise ValidationError(f"critical value {critical!r} must be finite")
    return _form_rejections(mc, [(fk.form(), critical,
                                  _rows(etas, fk.L, fk.coordinates))])[0]
