"""Cramer-von Mises statistic, its weighted null series, and tables.

The scaled statistic for a sample of size n from (0, 1) is

    n T^2(Fhat - F0) = Sum_i (u_(i) - (2i-1)/(2n))^2 + 1/(12n),

an exact order-statistic identity. Its limiting null law is the squared
norm of the Brownian bridge, the weighted series Sum_j (xi_j / (pi j))^2,
and against a density perturbation f = Sum c_j sqrt(2) cos(pi j t) the
population value is T^2(F - F0) = Sum_j c_j^2 / (pi^2 j^2); the local shift
enters the series as Sum_j (xi_j/(pi j) + sqrt(n) c_j/(pi j))^2.

The series' exact law is in :mod:`~uniconsist.wchisq`; the ``nulltable``
tables are still self-generated Monte Carlo quantiles of the truncated
series, whose dropped tail obeys Sum_{j>J} 1/(pi^2 j^2) <= 1/(pi^2 J).

:func:`run_blocks` is the block runner of both Monte Carlo loops, the
table's here and the engine's ``mclab._rejections``: it maps keyed blocks
over a pool of worker threads, hands each worker one reused
:func:`slice_buffer`, and returns the results in block order. A block keys
its own generators, so no worker shares one with another, and no result
depends on the thread count.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_count
from .reports import TestReport, json_array, json_value
from .rng import STREAM_NULL_TABLE, check_seed, substreams
from .signals import (Basis, SignalSpec, check_sample_shape,
                      check_unit_interval)
from .wchisq import check_weights

_TABLE_BLOCK = 4096

# Row slices of a block are sized by this many values, so their temporaries
# stay in cache and none is block-sized. Engine blocks in mclab and the null
# table's blocks here are drawn and scored in the slices of `row_slices`; the
# chi2 and cvm engines score those in turn in pieces of at most this many
# values (one row when a row is wider).
SLICE_VALUES = 16384

# Longest bridge series. Its dropped tail is below 1/(pi^2 J_null), ~6e-6 at
# this bound, and every replicate draws J_null normals; the draws run in row
# slices of under 2 * max(16 * J_null, SLICE_VALUES) values, so memory does
# not set the bound.
_J_NULL_MAX = 2 ** 14


def _slice_step(width: int) -> int:
    return max(16, SLICE_VALUES // width // 16 * 16)


def row_slices(rows: int, width: int):
    """Yield the consecutive ``(lo, hi)`` row slices of a block of ``rows``
    rows of ``width`` values.

    A slice holds a multiple of 16 rows (as many as fit in SLICE_VALUES
    values, at least 16), and the block's last slice takes its whole
    remainder, so it has under twice that many and no slice is a single row
    unless its block is: a one-row matmul goes through BLAS dot, not gemv,
    and rounds differently.
    """
    step = _slice_step(width)
    lo = 0
    while lo < rows:
        hi = lo + step if rows - lo >= 2 * step else rows
        yield lo, hi
        lo = hi


def slice_buffer(rows: int, width: int) -> np.ndarray:
    """One buffer whose leading rows can hold every :func:`row_slices` slice
    of a block of at most ``rows`` rows of ``width`` values."""
    return np.empty((min(2 * _slice_step(width) - 1, rows), width))


def run_blocks(work, blocks, threads: int, rows: int, width: int) -> list:
    """``[work(block, buffer) for block in blocks]`` on ``threads`` workers.

    Each worker allocates one :func:`slice_buffer` for blocks of at most
    ``rows`` rows of ``width`` values and passes it to every block it runs;
    ``work`` must keep no reference to it past the call. Results come back
    in block order. ``work`` keys its block's generators itself, so a
    result depends on its block alone, never on the worker or the schedule.
    One thread runs the blocks in the calling thread.
    """
    local = threading.local()

    def run(block):
        if not hasattr(local, "buffer"):
            local.buffer = slice_buffer(rows, width)
        return work(block, local.buffer)

    if threads == 1:
        return list(map(run, blocks))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, blocks))


def _quantiles(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(values, q)`` for 1-D ``values`` and q in (0, 1], by the
    same float operations; ``values`` is partitioned in place.

    It restates numpy's default ``linear`` rule: the virtual index
    ``(n - 1) q``, its floor and the next index (both the last value when
    the index reaches n - 1), and ``_lerp``'s two-sided interpolation,
    ``b - (b - a)(1 - t)`` from t = 0.5 up. ``np.quantile`` partitions at
    ``np.unique`` of the indices, and its first call imports ``numpy.ma``.
    """
    n = values.size
    virtual = (n - 1) * q
    previous = np.floor(virtual)
    following = previous + 1
    last = virtual >= n - 1
    previous[last] = following[last] = -1
    t = virtual - previous
    lo, hi = previous.astype(np.intp), following.astype(np.intp)
    values.partition(sorted({*(lo % n).tolist(), *(hi % n).tolist()}))
    a, b = values[lo], values[hi]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def cvm_statistic(points: np.ndarray):
    """Exact value of n T^2(Fhat - F0) from the order statistics, one value
    per sample along the last axis. The caller's array is not written."""
    # np.sort copies, so the subtract and the square run in place on the copy.
    u = np.sort(np.asarray(points, dtype=float), axis=-1)
    if u.size == 0:
        raise ValidationError("empty sample")
    n = u.shape[-1]
    grid = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    np.subtract(u, grid, out=u)
    stat = np.sum(np.square(u, out=u), axis=-1) + 1.0 / (12.0 * n)
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


def bridge_weights(J_null: int) -> np.ndarray:
    """Brownian-bridge series weights 1/(pi^2 j^2), j = 1..J_null."""
    J_null = check_count(J_null, "J_null", 1, _J_NULL_MAX)
    j = np.arange(1, J_null + 1, dtype=float)
    return 1.0 / (math.pi ** 2 * np.square(j))


def weighted_null_quantiles(weights: np.ndarray, alphas, replicates: int,
                            seed: int, threads: int = 1
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Upper alpha-quantiles of Sum w_j xi_j^2 by block-keyed Monte Carlo.

    Every block of 4096 replicates draws from its own generator, keyed by
    its block index on the null-table stream, row-major by (replicate, j),
    so the table is reproducible independent of scheduling. The blocks run
    on ``threads`` workers (:func:`run_blocks`). A block is drawn, squared
    in place and summed in the consecutive :func:`row_slices` of its
    worker's reused buffer, each slice continuing the block's generator.
    Every row gets the bits that one matmul over its whole block gives it
    on one BLAS thread.
    """
    weights = check_weights(weights)
    alphas = np.asarray(sorted(float(a) for a in alphas))
    if alphas.size == 0 or not np.all((alphas > 0) & (alphas < 1)):
        raise ValidationError("alphas must lie in (0, 1)")
    repeated = alphas[1:][alphas[1:] == alphas[:-1]]
    if repeated.size:
        raise ValidationError(f"alphas repeat alpha = {repeated[0]}")
    replicates = check_count(replicates, "replicates", 100)
    threads = check_count(threads, "threads", 1)
    draws = np.empty(replicates)

    def block(start: int, buffer: np.ndarray) -> None:
        (gen,) = substreams(seed, STREAM_NULL_TABLE, [start // _TABLE_BLOCK])
        end = min(start + _TABLE_BLOCK, replicates)
        for lo, hi in row_slices(end - start, weights.size):
            xi = buffer[:hi - lo]
            gen.standard_normal(out=xi)
            np.square(xi, out=xi)
            np.matmul(xi, weights, out=draws[start + lo:start + hi])

    run_blocks(block, range(0, replicates, _TABLE_BLOCK), threads,
               min(_TABLE_BLOCK, replicates), weights.size)
    return alphas, _quantiles(draws, 1.0 - alphas)


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
        alphas = np.asarray(self.alphas, dtype=float)
        if not (np.all((alphas > 0.0) & (alphas < 1.0))
                and np.all(np.diff(alphas) > 0.0)):
            raise ValidationError("alphas must increase strictly within (0, 1)")
        criticals = np.asarray(self.criticals, dtype=float)
        if not np.all(np.isfinite(criticals)):
            raise ValidationError("criticals must be finite")
        if np.any(np.diff(criticals) > 0.0):
            raise ValidationError("criticals must decrease as alpha grows")
        # Stored as ints, so that to_json writes a table built from numpy ints.
        object.__setattr__(self, "J_null",
                           check_count(self.J_null, "J_null", 1, _J_NULL_MAX))
        object.__setattr__(self, "replicates",
                           check_count(self.replicates, "replicates", 100))
        object.__setattr__(self, "seed", check_seed(self.seed))

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
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ValidationError(f"malformed null table: {exc}") from exc
        return cls(tuple(json_array(obj, "alpha").tolist()),
                   tuple(json_array(obj, "critical").tolist()),
                   *(json_value(obj, key, int)
                     for key in ("J_null", "replicates", "seed")))


def build_cvm_null_table(alphas, replicates: int, seed: int,
                         J_null: int = 1024, threads: int = 1) -> CvmNullTable:
    a, c = weighted_null_quantiles(bridge_weights(J_null), alphas, replicates,
                                   seed, threads=threads)
    return CvmNullTable(alphas=tuple(float(x) for x in a),
                        criticals=tuple(float(x) for x in c),
                        J_null=J_null, replicates=replicates, seed=seed)


def decide(points: np.ndarray, table: CvmNullTable, alpha: float) -> TestReport:
    """Table-based decision: reject iff n T^2 exceeds the tabulated critical."""
    points = np.asarray(points, dtype=float)
    check_sample_shape(points)
    check_unit_interval(points, "points")
    stat = cvm_statistic(points)
    crit = table.critical(alpha)
    n = int(points.size)
    return TestReport(
        family="cvm", n=n, statistic=stat, standardized=stat,
        reject=bool(stat > crit), predicted_beta=None,
        ingredients={"critical": crit, "J_null": table.J_null})
