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
and its ``reject_block`` callable, which returns a slice of noise rows'
whole (rows x variants) decision matrix. Pairing and determinism come from
the single block loop ``_rejections``, which runs its blocks on the block
runner it shares with the null table (:func:`~uniconsist.cvm.run_blocks`:
a thread pool, one reused noise buffer a worker, results in block order).
A block keys its replicates' substreams in one pass, and is drawn,
unscaled, and handed to ``reject_block`` in consecutive row slices
(:func:`~uniconsist.cvm.row_slices`, the null table's rule: 16 to 31 rows
at 8192 values a row). A slice is a
view into its worker's reused noise buffer, valid only during that call, so
``reject_block`` must keep no reference to it; an engine call holds
``threads x min(2 step - 1, BLOCK_ROWS) x width`` floats of noise, ``step``
rows being those that fill SLICE_VALUES values (at least 16). quad, kernel
and fixed take their coordinate map and their
:class:`~uniconsist.quad.QuadraticForm` from the family module; ``_rows``
packs the variants and ``_form_rejections`` scores every variant of one or
more forms on the same coordinates from one slice (``weighted_square_sums``
on ``QuadraticForm.fold``, the fold that ``exact_power`` reads, prepared
once a call). A quad sweep (:func:`quad_sweep`) is one such call: the
profile's J is the same at every n, so replicate i's xi is drawn once for
all of them. chi2 and cvm score a slice in pieces of at most SLICE_VALUES
noise values (one row when a row is wider), one variant column at a time
(``_per_column``); a row's decision reads only that row, so the slicing
changes no decision. SLICE_VALUES, the slice rule and the block runner
live in :mod:`~uniconsist.cvm`, whose null table draws its blocks in the
same slices on the same runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chi2 import Chi2Config, cell_statistic, chi2_standardize, chi2_statistic
from .cvm import (SLICE_VALUES, CvmNullTable, cvm_statistic, row_slices,
                  run_blocks)
from .errors import ValidationError, check_count
from .kernel import KernelTestConfig, kernel_coordinates, kernel_form
from .quad import (FixedKappa, QuadTestConfig, quad_coordinates,
                   weighted_square_sums)
from .rng import STREAM_IID, STREAM_SEQUENCE_MODEL, check_seed, substreams
from .signals import (DensitySpec, SignalSpec, cdf_offset, invert_cdf,
                      sorted_lookup)

BLOCK_ROWS = 512
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class MCConfig:
    replicates: int
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        check_count(self.replicates, "replicates", 100)
        check_count(self.threads, "threads", 1)
        check_seed(self.seed)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% score interval; always contains the point estimate."""
    check_count(trials, "trials", 1)
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
    pass, ``substreams(seed, stream, range(lo, hi))``; the block is drawn
    and scored in its consecutive :func:`~uniconsist.cvm.row_slices` (16 to
    31 rows of 8192 values), consuming that pass slice by slice. Row i is
    filled in place by ``draw(generator, row)``, a length ``width`` noise
    row, before the generator is re-keyed for row i + 1, and
    ``reject_block(rows)`` returns the slice's (rows x variants) decisions.
    The slice is a view of the leading rows of its worker's noise buffer,
    which the worker's next slice overwrites: ``reject_block`` may overwrite
    it too, but must keep no reference to it past the call.

    Threads take whole blocks, on the table's block runner
    (:func:`~uniconsist.cvm.run_blocks`): each worker allocates its
    :func:`~uniconsist.cvm.slice_buffer` once per call, so a call holds
    ``threads x min(2 step - 1, BLOCK_ROWS) x width`` floats of noise, where
    ``step`` rows fill SLICE_VALUES values (at least 16): 31 rows a worker
    at width 8192. Only the allocation is shared: each slice keeps its own
    row count, since BLAS row results can change with a matrix's rows.
    """
    check_count(width, "noise width", 1)

    def work(lo: int, buffer: np.ndarray) -> list[np.ndarray]:
        hi = min(lo + BLOCK_ROWS, mc.replicates)
        gens = substreams(mc.seed, stream, range(lo, hi))
        out = []
        for a, b in row_slices(hi - lo, width):
            noise = buffer[:b - a]
            # zip asks for a row before its generator, so a slice takes
            # exactly its own replicates' generators from the block's pass.
            for row, gen in zip(noise, gens):
                draw(gen, row)
            out.append(reject_block(noise))
        return out

    blocks = run_blocks(work, range(0, mc.replicates, BLOCK_ROWS), mc.threads,
                        min(BLOCK_ROWS, mc.replicates), width)
    return np.concatenate([part for block in blocks for part in block])


def _normals(g, row):
    g.standard_normal(out=row)


def _uniforms(g, row):
    g.random(out=row)


def _per_column(variants, reject):
    """A ``reject_block`` that fills column v with ``reject(rows, variants[v])``
    on consecutive pieces of the rows it gets, each of at most SLICE_VALUES
    noise values (one row when a row is wider), every variant in turn."""
    def reject_block(noise):
        out = np.empty((noise.shape[0], len(variants)), dtype=bool)
        step = max(1, SLICE_VALUES // noise.shape[1])
        for lo in range(0, noise.shape[0], step):
            rows = noise[lo:lo + step]
            for v, variant in enumerate(variants):
                out[lo:lo + step, v] = reject(rows, variant)
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
    """The ``(form, critical, rows)`` of ``tests`` (one coordinate count), each
    folded by ``form.fold``, as the rows and weights that score unscaled xi."""
    width = tests[0][0].weights.size
    for k, (form, _, _) in enumerate(tests):
        if form.weights.size != width:
            raise ValidationError(
                f"forms scored together must share their coordinates: form {k} "
                f"has {form.weights.size}, form 0 has {width}")
    rows, w = zip(*(form.fold(r) for form, _, r in tests))
    if len(w) == 1:
        return rows[0], w[0]
    return np.concatenate(rows), np.concatenate(
        [np.broadcast_to(wf, r.shape) for r, wf in zip(rows, w)])


def _form_rejections(mc: MCConfig, tests) -> list[np.ndarray]:
    """One decision matrix per ``(form, critical, rows)`` of ``tests``:
    unit (Sum w y^2 - center) > critical on y = row + scale xi, every form
    scored from the same unscaled xi of each replicate (:func:`_fold`)."""
    rows, w = _fold(tests)
    bounds = np.cumsum([0] + [r.shape[0] for _, _, r in tests])
    spans = list(zip(bounds[:-1], bounds[1:]))
    sums_of = weighted_square_sums(rows, w)

    def reject_block(noise):
        sums = sums_of(noise)
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
    cells = [None if d is None else
             sorted_lookup(edges + cdf_offset(d.signal, edges), "right")
             for d in _densities(densities)]

    def reject(u, cell):
        stat = (chi2_statistic(u, m) if cell is None else
                cell_statistic(cell(u), m))
        return chi2_standardize(stat, m) > config.x_alpha

    return _rejections(mc, STREAM_IID, n, _uniforms,
                       _per_column(cells, reject))


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
