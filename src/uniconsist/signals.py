"""Signals, observation models, and sampling on (0, 1).

A signal f is a finite expansion in one of three orthonormal systems of
L2(0, 1):

* ``CosinePi``:   phi_j(t) = sqrt(2) cos(pi j t),  j >= 1
* ``TrigFull``:   pairs sqrt(2) cos(2 pi j t), sqrt(2) sin(2 pi j t), j >= 1
* ``SinePi``:     psi_j(t) = sqrt(2) sin(pi j t),  j >= 1

Two observation models are supported: the Gaussian sequence model
``y_j = theta_j + sigma / sqrt(n) * xi_j`` and i.i.d. draws from the density
``1 + f`` via exact inverse-CDF sampling.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DensityError, ValidationError, check_count, check_positive
from .reports import json_array, json_value

SQRT2 = math.sqrt(2.0)

# Densities are accepted as nonnegative down to this floating-point slack.
DENSITY_TOL = -1e-10

# A density 1 + f must integrate to 1: |int_0^1 f| may be at most this.
MASS_TOL = 1e-9

# Residual guarantee of inverse-CDF sampling: |F(x) - u| <= this, every draw.
INVCDF_TOL = 1e-12

# The density guard evaluates 1 + f on this many midpoint cells before refining.
DENSITY_GRID = 4096

# Inverse-CDF sampling refines at most this many points at a time, which caps
# its temporaries on long inputs. The engine's row slices are shorter (at most
# cvm.SLICE_VALUES points, or one row), so there it never cuts.
INVCDF_CHUNK = 65536

# An inverse-CDF round drops its done points from the working arrays only
# when more than 1/this of them are done; fewer wait in place.
_INVCDF_COMPACT = 16

# Inverse-CDF brackets are the cells of a uniform grid of this many cells.
INVCDF_GRID = 2048


class Basis(str, Enum):
    COSINE_PI = "CosinePi"
    TRIG_FULL = "TrigFull"
    SINE_PI = "SinePi"


@dataclass(frozen=True)
class SignalSpec:
    """A finite coefficient sequence on a declared basis.

    ``coeffs`` has shape (J,) for single-indexed bases and (J, 2) for
    ``TrigFull``, where row j-1 holds the pair (a_j, b_j) multiplying
    sqrt(2)cos(2 pi j t) and sqrt(2)sin(2 pi j t).
    """

    basis: Basis
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if self.basis is Basis.TRIG_FULL:
            if arr.ndim == 1:
                arr = np.column_stack([arr, np.zeros_like(arr)])
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValidationError("TrigFull coeffs must have shape (J, 2)")
        else:
            if arr.ndim != 1:
                raise ValidationError(f"{self.basis.value} coeffs must be 1-D")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def J(self) -> int:
        """Truncation index: number of (pairs of) coefficients stored."""
        return int(self.coeffs.shape[0])

    @property
    def norm_sq(self) -> float:
        """Exact squared L2 norm Sum theta_j^2 (TrigFull: Sum a^2 + b^2)."""
        return float(np.sum(np.square(self.coeffs)))

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def index_energy(self) -> np.ndarray:
        """Squared coefficient mass per frequency index j = 1..J."""
        if self.basis is Basis.TRIG_FULL:
            return np.sum(np.square(self.coeffs), axis=1)
        return np.square(self.coeffs)

    def to_json_dict(self) -> dict:
        return {"basis": self.basis.value, "coeffs": self.coeffs.tolist()}


def signal_from_json(obj: dict) -> SignalSpec:
    name, names = json_value(obj, "basis", str), [b.value for b in Basis]
    if name not in names:
        raise ValidationError(f"'basis' must be one of {names}, got {name!r}")
    return SignalSpec(Basis(name), json_array(obj, "coeffs", (1, 2)))


def _check_domain(t: np.ndarray):
    bad = ~((t > 0.0) & (t < 1.0))
    if bad.any():
        raise ValidationError(f"t outside (0,1): {t[bad][:5].tolist()}")


def check_unit_interval(x: np.ndarray, name: str):
    """Refuse values of x outside [0, 1] (nan included), naming up to five."""
    bad = ~((x >= 0.0) & (x <= 1.0))
    if bad.any():
        raise ValidationError(f"{name} outside [0,1]: {x[bad][:5].tolist()}")


def check_sample_shape(points: np.ndarray):
    """Refuse a sample that is not one 1-D array of points, naming its shape."""
    if points.ndim != 1:
        raise ValidationError(f"a sample must be 1-D, got shape {points.shape}")


def evaluate(signal: SignalSpec, t) -> np.ndarray | float:
    """Pointwise value f(t) for t in the open interval (0, 1)."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_domain(t_arr)
    out = _evaluate_interior(signal, t_arr)
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def _evaluate_interior(signal: SignalSpec, t: np.ndarray) -> np.ndarray:
    # No domain check: internal callers may evaluate at 0/1 where the
    # trigonometric expressions are still well defined. Loops visit only the
    # nonzero coefficients, in ascending j: that order fixes the rounding.
    out = np.zeros_like(t)
    coeffs = np.asarray(signal.coeffs)
    if signal.basis is Basis.TRIG_FULL:
        for i in np.flatnonzero(coeffs.any(axis=1)).tolist():
            a, b = coeffs[i]
            w = 2.0 * math.pi * (i + 1) * t
            out += (SQRT2 * a) * np.cos(w) + (SQRT2 * b) * np.sin(w)
        return out
    fn = np.cos if signal.basis is Basis.COSINE_PI else np.sin
    for i in np.flatnonzero(coeffs).tolist():
        out += (SQRT2 * coeffs[i]) * fn(math.pi * (i + 1) * t)
    return out


def cdf_offset(signal: SignalSpec, x) -> np.ndarray:
    """Antiderivative int_0^x f(t) dt, exact per basis, for x in [0, 1].

    F(x) = x + cdf_offset(signal, x) is the CDF of the density 1 + f.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    coeffs = np.asarray(signal.coeffs)
    if signal.basis is Basis.TRIG_FULL:
        for i in np.flatnonzero(coeffs.any(axis=1)).tolist():
            a, b = coeffs[i]
            w = 2.0 * math.pi * (i + 1)
            out += (SQRT2 * a / w) * np.sin(w * x) + (SQRT2 * b / w) * (1.0 - np.cos(w * x))
        return out
    for i in np.flatnonzero(coeffs).tolist():
        w = math.pi * (i + 1)
        if signal.basis is Basis.COSINE_PI:
            out += (SQRT2 * coeffs[i] / w) * np.sin(w * x)
        else:
            out += (SQRT2 * coeffs[i] / w) * (1.0 - np.cos(w * x))
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian sequence-model noise: y_j = theta_j + sigma/sqrt(n) xi_j."""

    sigma: float
    n: int

    def __post_init__(self):
        check_positive(self.sigma, "sigma")
        check_count(self.n, "n", 1)

    @property
    def noise_scale(self) -> float:
        return self.sigma / math.sqrt(self.n)


def sample_sequence_model(signal: SignalSpec, noise: NoiseModel,
                          rng: np.random.Generator) -> np.ndarray:
    """One draw of the sequence model; output shaped like signal.coeffs.

    Deterministic given the generator state: draws exactly
    ``signal.coeffs.size`` standard normals in row-major order.
    """
    xi = rng.standard_normal(signal.coeffs.shape)
    return signal.coeffs + noise.noise_scale * xi


def _bounded_minima(fn, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Bounded Brent minimisation of fn on every bracket [lo[i], hi[i]] at
    once; returns the minimisers and fn there.

    A lockstep port of scipy's ``minimize_scalar(method="bounded",
    options={"xatol": 1e-12})`` (Brent 1973, ch. 5): each bracket is a lane
    that takes scipy's parabolic or golden-section step by scipy's rules and
    float operations, so each lane returns scipy's x and fun bit for bit.
    ``fn`` maps an array of points to their values; it is called once an
    iteration, on the lanes still running. A lane stops at scipy's
    tolerance or after 500 evaluations, as scipy's does.
    """
    sqrt_eps, xatol = math.sqrt(2.2e-16), 1e-12
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = fn(xf)
    e = rat = np.zeros_like(xf)
    x_out, f_out = xf.copy(), fx.copy()
    lane = np.arange(xf.size)
    for _ in range(499):
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        run = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
        if not run.all():
            (lane, a, b, xm, tol1, tol2, xf, fx, nfc, fnfc, fulc, ffulc, e,
             rat) = (v[run] for v in (lane, a, b, xm, tol1, tol2, xf, fx, nfc,
                                      fnfc, fulc, ffulc, e, rat))
        if not lane.size:
            break
        # The parabola through xf, nfc and fulc is taken where the step
        # before last exceeds tol1 and the vertex is inside (a, b) and less
        # than half that step away; elsewhere a golden-section step.
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        fit = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
               & (p > q * (a - xf)) & (p < q * (b - xf)))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (p + 0.0) / q
            si = np.sign(xm - xf) + ((xm - xf) == 0)
            near = ((xf + step - a) < tol2) | ((b - (xf + step)) < tol2)
        step = np.where(near, tol1 * si, step)
        golden = np.where(xf >= xm, a - xf, b - xf)
        e = np.where(fit, rat, golden)
        rat = np.where(fit, step, golden_mean * golden)
        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = fn(x)
        # The bracket end on x's side moves in: to xf if x is the new best,
        # to x otherwise; then the three best points shift down.
        better = fu <= fx
        left = x < xf
        cut = np.where(better, xf, x)
        a = np.where(better != left, cut, a)
        b = np.where(better == left, cut, b)
        second = ~better & ((fu <= fnfc) | (nfc == xf))
        third = ~better & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        fulc = np.where(better | second, nfc, np.where(third, x, fulc))
        ffulc = np.where(better | second, fnfc, np.where(third, fu, ffulc))
        nfc = np.where(better, xf, np.where(second, x, nfc))
        fnfc = np.where(better, fx, np.where(second, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)
        x_out[lane], f_out[lane] = xf, fx
    return x_out, f_out


def density_minimum(signal: SignalSpec) -> tuple[float, float]:
    """Minimum of the density 1 + f over (0, 1), and its location.

    Evaluates on a uniform midpoint grid of DENSITY_GRID cells, then locally
    refines by bounded scalar minimization around every grid-local minimum
    (including the boundary cells): a cell strictly below its left neighbour
    and no higher than its right one, so a plateau is refined once. All the
    refinements run in one lockstep pass and are taken in grid order.
    """
    t = (np.arange(DENSITY_GRID) + 0.5) / DENSITY_GRID
    vals = 1.0 + _evaluate_interior(signal, t)
    best_val = float(np.min(vals))
    best_t = float(t[int(np.argmin(vals))])
    padded = np.concatenate(([np.inf], vals, [np.inf]))
    cells = np.flatnonzero((vals < padded[:-2]) & (vals <= padded[2:]))
    edges = np.concatenate(([1e-12], t, [1.0 - 1e-12]))
    xs, fs = _bounded_minima(lambda x: 1.0 + _evaluate_interior(signal, x),
                             edges[cells], edges[cells + 2])
    for x, f in zip(xs.tolist(), fs.tolist()):
        if f < best_val:
            best_val, best_t = f, x
    return best_val, best_t


_TABLES_LOCK = threading.Lock()


@dataclass(frozen=True)
class DensitySpec:
    """The density 1 + f on (0, 1); nonnegativity and unit mass are verified
    at construction, and its inversion tables are built on first use."""

    signal: SignalSpec
    minimum: float = field(init=False)
    _tables: tuple | None = field(init=False, default=None, repr=False,
                                  compare=False)

    def __post_init__(self):
        mn, arg = density_minimum(self.signal)
        if mn < DENSITY_TOL:
            raise DensityError(
                f"1 + f is negative: minimum {mn:.6g} at t = {arg:.6g}",
                points=[arg], minimum=mn)
        offset = float(cdf_offset(self.signal, 1.0))
        if abs(offset) > MASS_TOL:
            raise ValidationError(
                f"1 + f does not integrate to 1: mass {1.0 + offset:.12g} "
                f"(tolerance {MASS_TOL:g})")
        object.__setattr__(self, "minimum", float(mn))

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size and not (np.all(x >= 0.0) & np.all(x <= 1.0)):
            raise ValidationError("cdf argument outside [0,1]")
        return x + cdf_offset(self.signal, x)

    def inversion_tables(self) -> tuple:
        """``(gx, mid, mid_F, mid_dens, bracket)`` of :func:`invert_cdf`: the
        INVCDF_GRID + 1 grid points on [0, 1], the cells' midpoints, F and
        1 + f there, and ``bracket(u)``, the grid index where u sorts into
        F on the grid (:func:`sorted_lookup`). Built on the first call, once
        per density (under a lock, so concurrent first inversions share it).
        """
        if self._tables is None:
            with _TABLES_LOCK:
                if self._tables is None:
                    gx = np.linspace(0.0, 1.0, INVCDF_GRID + 1)
                    gF = gx + cdf_offset(self.signal, gx)
                    mid = 0.5 * (gx[:-1] + gx[1:])
                    mid_F = mid + cdf_offset(self.signal, mid)
                    mid_dens = 1.0 + _evaluate_interior(self.signal, mid)
                    for table in (gx, mid, mid_F, mid_dens):
                        table.flags.writeable = False
                    object.__setattr__(self, "_tables", (
                        gx, mid, mid_F, mid_dens, sorted_lookup(gF, "left")))
        return self._tables


def sample_iid(density: DensitySpec, size: int,
               rng: np.random.Generator) -> np.ndarray:
    """Exact inverse-CDF draws from 1 + f.

    Consumes exactly ``size`` uniforms from ``rng``; see ``invert_cdf`` for
    the inversion guarantee. ``size`` is a nonnegative integer (not a bool).
    """
    return invert_cdf(density, rng.random(check_count(size, "size", 0)))


def sorted_lookup(table, side: str = "left"):
    """``lookup(x)``, equal to ``np.searchsorted(table, x, side)`` for every
    array x of values in [0, 1], in O(1) a point for a nondecreasing table.

    [0, 1] is cut into B = 2^k >= 8 len(table) equal buckets, so ``x * B``
    is exact and its integer part is x's bucket b (x = 1 gets bucket B).
    ``lo[b]``, the search result at b's left edge, is the answer up to the
    table entries inside bucket b. Where the bucket holds at most one, one
    compare with the entry at ``lo[b]`` (+inf past the end) settles it; a
    point whose bucket holds more (ties, or a CDF grid where the density
    nears 0) is searched in the whole table. A table out of order (a nan
    included) has no exact shortcut, so every point is searched there.
    """
    table = np.asarray(table, dtype=float)
    B = 8 << max(table.size - 1, 0).bit_length()
    lo = np.searchsorted(table, np.arange(B + 2) / B, side)
    many = np.diff(lo) > 1
    if not np.all(table[:-1] <= table[1:]):
        many[:] = True
    ahead = np.append(table, np.inf)
    passes = np.less if side == "left" else np.less_equal

    def lookup(x):
        x = np.asarray(x, dtype=float)
        b = (x * B).astype(np.intp)
        i = lo[b]
        i += passes(ahead[i], x)
        search = many[b]
        if search.any():
            i[search] = np.searchsorted(table, x[search], side)
        return i

    return lookup


def invert_cdf(density: DensitySpec, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0, 1] through the inverse CDF of 1 + f.

    Each uniform is inverted by bracketed Newton/bisection until the
    residual |F(x) - u| is at most INVCDF_TOL (guaranteed; raises otherwise).
    The inversion is elementwise, so the chunking changes no bit. The grid
    and cell tables are the density's own (:meth:`DensitySpec.inversion_tables`).
    """
    signal = density.signal
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    check_unit_interval(flat, "u")
    x = np.empty_like(flat)
    # Bracket on a monotone CDF grid, then refine with safeguarded Newton on
    # the points still above tolerance. Every point starts at its cell's
    # midpoint, so the first round reads F and the density there from
    # per-cell tables. A point whose iterate is within tolerance is done:
    # its bracket collapses onto x, where Newton never moves and the
    # midpoint of [x, x] is x, so every later round keeps x exactly. Once
    # a round finds more than 1/_INVCDF_COMPACT of the working points done,
    # those points' x is written out and they leave the working arrays, so
    # F and the density are evaluated again only on the few done points
    # that wait for such a round.
    gx, mid, mid_F, mid_dens, bracket = density.inversion_tables()
    for start in range(0, flat.size, INVCDF_CHUNK):
        ua = flat[start:start + INVCDF_CHUNK]
        xc = x[start:start + INVCDF_CHUNK]
        cell = bracket(ua)
        np.clip(cell, 1, gx.size - 1, out=cell)
        cell -= 1
        lo, xa, r, dens = (t.take(cell) for t in (gx, mid, mid_F, mid_dens))
        cell += 1
        hi = gx.take(cell)
        active = np.arange(ua.size)
        for round_ in range(200):
            if round_:
                r = cdf_offset(signal, xa)
                r += xa
            r -= ua
            done = np.abs(r) <= INVCDF_TOL
            hits = np.flatnonzero(done)
            if hits.size == xa.size:
                xc[active] = xa
                break
            if hits.size * _INVCDF_COMPACT > xa.size:
                xc[active.take(hits)] = xa.take(hits)
                keep = np.flatnonzero(np.logical_not(done, out=done))
                active, ua, xa, r, lo, hi = (
                    a.take(keep) for a in (active, ua, xa, r, lo, hi))
                if not round_:
                    dens = dens.take(keep)
            elif hits.size:
                lo[hits] = hi[hits] = xa.take(hits)
            # hi takes x where F(x) > u, lo where not: a select on the bits.
            gt = np.negative(r > 0.0, dtype=np.int64)
            xb, lob, hib = xa.view(np.int64), lo.view(np.int64), hi.view(np.int64)
            step = np.bitwise_xor(hib, xb)
            step &= gt
            hib ^= step
            step = np.bitwise_xor(lob, xb, out=step)
            np.invert(gt, out=gt)
            step &= gt
            lob ^= step
            if round_:
                dens = _evaluate_interior(signal, xa)
                dens += 1.0
            # Newton (xa - r / dens, in r's place) only inside the closed
            # bracket and only if it moves x; else the bracket's midpoint.
            with np.errstate(divide="ignore", invalid="ignore"):
                xn = np.subtract(xa, np.divide(r, dens, out=r), out=r)
            ok = dens > 1e-8
            ok &= xn >= lo
            ok &= xn <= hi
            ok &= xn != xa
            xa = np.add(lo, hi, out=xa)
            xa *= 0.5
            np.copyto(xa, xn, where=ok)
        else:
            raise ValidationError("inverse-CDF sampling failed to reach tolerance")
    np.clip(x, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), out=x)
    return x.reshape(u.shape)
