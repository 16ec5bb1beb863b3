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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import optimize

from .errors import DensityError, ValidationError

SQRT2 = math.sqrt(2.0)

# Densities are accepted as nonnegative down to this floating-point slack.
DENSITY_TOL = -1e-10

# A density 1 + f must integrate to 1: |int_0^1 f| may be at most this.
MASS_TOL = 1e-9

# Residual guarantee of inverse-CDF sampling: |F(x) - u| <= this, every draw.
INVCDF_TOL = 1e-12

# The density guard evaluates 1 + f on this many midpoint cells before refining.
DENSITY_GRID = 4096

# Inverse-CDF sampling refines at most this many points at a time (memory cap).
INVCDF_CHUNK = 65536


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
    try:
        basis = Basis(obj["basis"])
        coeffs = np.asarray(obj["coeffs"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed SignalSpec object: {exc}") from exc
    return SignalSpec(basis, coeffs)


def _check_domain(t: np.ndarray):
    if t.size and not (np.all(t > 0.0) & np.all(t < 1.0)):
        bad = t[(t <= 0.0) | (t >= 1.0)]
        raise ValidationError(f"t outside (0,1): {bad[:5].tolist()}")


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


def to_exponential(signal: SignalSpec) -> tuple[np.ndarray, np.ndarray]:
    """Complex exponential coefficients of a TrigFull signal.

    Returns (j_index, theta) with j_index = -J..J and theta[j] the
    coefficient of exp(2 pi i j t); theta_j = (a_j - i b_j)/sqrt(2),
    theta_{-j} = conj(theta_j), theta_0 = 0. Coefficient mass is preserved:
    |theta_j|^2 + |theta_{-j}|^2 = a_j^2 + b_j^2.
    """
    if signal.basis is not Basis.TRIG_FULL:
        raise ValidationError("exponential coefficients require TrigFull basis")
    J = signal.J
    j_index = np.arange(-J, J + 1)
    theta = np.zeros(2 * J + 1, dtype=complex)
    a = signal.coeffs[:, 0]
    b = signal.coeffs[:, 1]
    pos = (a - 1j * b) / SQRT2
    theta[J + 1:] = pos
    theta[:J] = np.conj(pos)[::-1]
    return j_index, theta


def from_exponential(j_index: np.ndarray, theta: np.ndarray) -> SignalSpec:
    """Inverse of :func:`to_exponential`; validates Hermitian symmetry."""
    j_index = np.asarray(j_index)
    theta = np.asarray(theta, dtype=complex)
    J = int(np.max(np.abs(j_index))) if j_index.size else 0
    full = np.zeros(2 * J + 1, dtype=complex)
    full[j_index + J] = theta
    if abs(full[J]) > 1e-14:
        raise ValidationError("theta_0 must vanish for a mean-zero density perturbation")
    pos = full[J + 1:]
    neg = full[:J][::-1]
    if not np.allclose(neg, np.conj(pos), atol=1e-14, rtol=0.0):
        raise ValidationError("coefficients are not Hermitian symmetric")
    a = SQRT2 * np.real(pos)
    b = -SQRT2 * np.imag(pos)
    return SignalSpec(Basis.TRIG_FULL, np.column_stack([a, b]))


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian sequence-model noise: y_j = theta_j + sigma/sqrt(n) xi_j."""

    sigma: float
    n: int

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValidationError("sigma must be positive and finite")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValidationError("n must be a positive integer")

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


def density_minimum(signal: SignalSpec) -> tuple[float, float]:
    """Minimum of the density 1 + f over (0, 1), and its location.

    Evaluates on a uniform midpoint grid of DENSITY_GRID cells, then locally
    refines by bounded scalar minimization around every grid-local minimum
    (including the boundary cells): a cell strictly below its left neighbour
    and no higher than its right one, so a plateau is refined once.
    """
    t = (np.arange(DENSITY_GRID) + 0.5) / DENSITY_GRID
    vals = 1.0 + _evaluate_interior(signal, t)
    best_val = float(np.min(vals))
    best_t = float(t[int(np.argmin(vals))])
    padded = np.concatenate(([np.inf], vals, [np.inf]))
    for i in np.flatnonzero((vals < padded[:-2]) & (vals <= padded[2:])):
        lo = t[i - 1] if i > 0 else 1e-12
        hi = t[i + 1] if i < DENSITY_GRID - 1 else 1.0 - 1e-12
        res = optimize.minimize_scalar(
            lambda x: 1.0 + float(_evaluate_interior(signal, np.array([x]))[0]),
            bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12})
        if res.fun < best_val:
            best_val = float(res.fun)
            best_t = float(res.x)
    return best_val, best_t


@dataclass(frozen=True)
class DensitySpec:
    """The density 1 + f on (0, 1); nonnegativity and unit mass are verified
    at construction."""

    signal: SignalSpec
    minimum: float = field(init=False)

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


def sample_iid(density: DensitySpec, size: int,
               rng: np.random.Generator) -> np.ndarray:
    """Exact inverse-CDF draws from 1 + f.

    Consumes exactly ``size`` uniforms from ``rng``; see ``invert_cdf`` for
    the inversion guarantee.
    """
    return invert_cdf(density, rng.random(size))


def invert_cdf(density: DensitySpec, u: np.ndarray) -> np.ndarray:
    """Map uniforms through the inverse CDF of 1 + f.

    Each uniform is inverted by bracketed Newton/bisection until the
    residual |F(x) - u| is at most INVCDF_TOL (guaranteed; raises otherwise).
    The inversion is elementwise, so the chunking changes no bit.
    """
    signal = density.signal
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    x = np.empty_like(flat)
    # Bracket on a monotone CDF grid, then refine with safeguarded Newton on
    # the points still above tolerance; a point leaves for good once within.
    G = 2048
    gx = np.linspace(0.0, 1.0, G + 1)
    gF = gx + cdf_offset(signal, gx)
    for start in range(0, flat.size, INVCDF_CHUNK):
        active = np.arange(start, min(start + INVCDF_CHUNK, flat.size))
        idx = np.clip(np.searchsorted(gF, flat[active], side="left"), 1, G)
        lo, hi = gx[idx - 1], gx[idx]
        xa = 0.5 * (lo + hi)
        for _ in range(200):
            r = (xa + cdf_offset(signal, xa)) - flat[active]
            done = np.abs(r) <= INVCDF_TOL
            x[active[done]] = xa[done]
            if done.all():
                break
            keep = ~done
            active, xa, r, lo, hi = active[keep], xa[keep], r[keep], lo[keep], hi[keep]
            gt = r > 0.0
            hi = np.where(gt, xa, hi)
            lo = np.where(gt, lo, xa)
            dens = 1.0 + _evaluate_interior(signal, xa)
            with np.errstate(divide="ignore", invalid="ignore"):
                xn = xa - r / dens
            # Newton only inside the closed bracket and only if it moves x.
            ok = (dens > 1e-8) & (xn >= lo) & (xn <= hi) & (xn != xa)
            xa = np.where(ok, xn, 0.5 * (lo + hi))
        else:
            raise ValidationError("inverse-CDF sampling failed to reach tolerance")
    x = np.clip(x, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return x.reshape(u.shape)


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical distribution function of points in (0,1)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValidationError("empirical CDF of an empty sample")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return int(self.points.size)

    def __call__(self, x) -> np.ndarray | float:
        x_arr = np.asarray(x, dtype=float)
        out = np.searchsorted(self.points, x_arr, side="right") / self.n
        return float(out) if x_arr.ndim == 0 else out


def empirical_cdf(points) -> EmpiricalCdf:
    return EmpiricalCdf(np.asarray(points, dtype=float))
