"""Smoothness bodies, greedy widths, and compactness diagnostics.

The central object is the Besov-type body of smoothness s and radius P0:
all signals whose tail sums obey sup_{lambda>0} lambda^{2s} * (coefficient
mass above lambda) <= P0. Over integer-indexed coefficient sequences the
supremum is attained along integer breakpoints, so the seminorm is computed
exactly as a finite maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_count, check_positive
from .reports import json_array, json_value
from .signals import SignalSpec


def _weighted_tails(signal: SignalSpec, s: float) -> np.ndarray:
    """m^{2s} Sum_{j>=m} theta_j^2 for m = 1 .. J, for finite s > 0."""
    check_positive(s, "smoothness s")
    energy = signal.index_energy()
    tails = np.cumsum(energy[::-1])[::-1]
    m = np.arange(1, energy.size + 1, dtype=float)
    return np.power(m, 2.0 * s) * tails


def besov_seminorm(signal: SignalSpec, s: float) -> float:
    """Exact value of sup_{lambda>0} lambda^{2s} Sum_{j>lambda} theta_j^2.

    The map lambda -> mass above lambda is a right-continuous step function
    with jumps at integers, so the supremum equals
    max_{m>=1} m^{2s} Sum_{j>=m} theta_j^2 (approached as lambda -> m from
    the left). For TrigFull signals the mass at index j is a_j^2 + b_j^2,
    i.e. |theta_j|^2 + |theta_{-j}|^2 of the exponential coefficients.
    """
    return float(np.max(_weighted_tails(signal, s), initial=0.0))


def besov_argmax(signal: SignalSpec, s: float) -> int:
    """The integer breakpoint attaining the seminorm maximum."""
    tails = _weighted_tails(signal, s)
    return int(np.argmax(tails)) + 1 if tails.size else 1


@dataclass(frozen=True)
class BesovBody:
    """Body of smoothness s and radius P0.

    The index convention is the signal's basis: CosinePi and SinePi
    coefficients are single-indexed, j >= 1; TrigFull signals store (a_j,
    b_j) pairs, and the mass at |j| is a_j^2 + b_j^2, the two-sided
    exponential index with Hermitian symmetry implicit. SignalSpec never
    stores a zero-frequency term, so no variant without it is needed.
    """

    s: float
    P0: float

    def __post_init__(self):
        check_positive(self.s, "s")
        check_positive(self.P0, "P0")

    def member(self, signal: SignalSpec) -> bool:
        return besov_seminorm(signal, self.s) <= self.P0


@dataclass(frozen=True)
class TailBoundReport:
    l_n: int
    tail_sum: float
    bound: float
    ok: bool
    seminorm: float


def tail_bound_check(signal: SignalSpec, s: float, P0: float, r: float,
                     n: int, C1: float = 1.0) -> TailBoundReport:
    """Check the truncation tail bound at l_n = ceil(C1 * n^{r/s}).

    For a member of the smoothness body (seminorm <= P0) the coefficient
    mass above l_n is at most P0 * C1^{-2s} * n^{-2r}. The constant C1 is
    caller-chosen; to keep at least half of a signal with norm >= c n^{-r}
    below the cut, C1 must satisfy C1^{2s} > 2 * P0 / c^2.
    """
    if not (0 < r < 1):
        raise ValidationError("rate r must lie in (0, 1)")
    check_positive(C1, "C1")
    check_positive(P0, "P0")
    check_count(n, "n", 1)
    sem = besov_seminorm(signal, s)
    if sem > P0 * (1 + 1e-12):
        raise ValidationError(
            f"signal is not a member: seminorm {sem:.6g} > P0 = {P0:.6g}")
    l_n = int(math.ceil(C1 * n ** (r / s)))
    energy = signal.index_energy()
    tail_sum = float(np.sum(energy[l_n - 1:])) if l_n <= energy.size else 0.0
    bound = P0 * C1 ** (-2.0 * s) * n ** (-2.0 * r)
    return TailBoundReport(l_n=l_n, tail_sum=tail_sum, bound=bound,
                           ok=bool(tail_sum <= bound * (1 + 1e-12)),
                           seminorm=sem)


@dataclass(frozen=True)
class EllipsoidSet:
    """{theta : Sum theta_j^2 / axes_j^2 <= 1} with finitely many axes."""

    axes: np.ndarray

    def __post_init__(self):
        axes = np.asarray(self.axes, dtype=float)
        if axes.ndim != 1 or axes.size == 0:
            raise ValidationError("axes must be a nonempty 1-D sequence")
        if not np.all((axes > 0) & (axes < math.inf)):
            raise ValidationError("all semi-axes must be positive and finite")
        axes = axes.copy()
        axes.flags.writeable = False
        object.__setattr__(self, "axes", axes)

    def to_json_dict(self) -> dict:
        return {"kind": "ellipsoid", "axes": [float(a) for a in self.axes]}


@dataclass(frozen=True)
class PointCloudSet:
    """Symmetric convex hull of finitely many points (rows)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.size == 0:
            raise ValidationError("points must be a nonempty 2-D array")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def to_json_dict(self) -> dict:
        return {"kind": "points", "points": [[float(v) for v in p] for p in self.points]}


def set_from_json(obj: dict):
    kind = json_value(obj, "kind", str)
    if kind == "ellipsoid":
        return EllipsoidSet(json_array(obj, "axes"))
    if kind == "points":
        return PointCloudSet(json_array(obj, "points", (2,)))
    raise ValidationError(f"unknown set kind {kind!r}")


@dataclass(frozen=True)
class WidthSequence:
    """Greedy approximation widths d_i and the greedy elements e_i.

    d_i is the largest distance from the set to the span of the previously
    chosen elements; e_i attains it and lies in the set. d is nonincreasing,
    and d_i -> 0 iff the set is relatively compact.
    """

    widths: np.ndarray
    elements: np.ndarray


def greedy_widths(descriptor, i_max: int) -> WidthSequence:
    """Widths of an ellipsoid (closed form) or a point cloud (exhaustive).

    Ellipsoid: the greedy sequence picks the semi-axis vectors in
    decreasing-axis order, so d = sorted axes, descending; zeros beyond the
    dimension. Point cloud: the maximum over the symmetric convex hull of
    the distance to a subspace is attained at a vertex, so each step scans
    all points and picks the largest orthogonal residual.
    """
    check_count(i_max, "i_max", 1)
    if isinstance(descriptor, EllipsoidSet):
        order = np.argsort(-descriptor.axes, kind="stable")
        dim = descriptor.axes.size
        widths = np.zeros(i_max)
        elements = np.zeros((i_max, dim))
        take = min(i_max, dim)
        widths[:take] = descriptor.axes[order[:take]]
        for i in range(take):
            elements[i, order[i]] = descriptor.axes[order[i]]
        return WidthSequence(widths=widths, elements=elements)
    if isinstance(descriptor, PointCloudSet):
        pts = np.asarray(descriptor.points)
        dim = pts.shape[1]
        widths = np.zeros(i_max)
        elements = np.zeros((i_max, dim))
        residual = pts.copy()
        for i in range(i_max):
            norms = np.linalg.norm(residual, axis=1)
            k = int(np.argmax(norms))
            d = float(norms[k])
            widths[i] = d
            if d <= 1e-14:
                widths[i] = 0.0
                continue
            elements[i] = pts[k]
            new_dir = residual[k] / d
            residual = residual - np.outer(residual @ new_dir, new_dir)
        return WidthSequence(widths=widths, elements=elements)
    raise ValidationError(f"unsupported set descriptor {type(descriptor).__name__}")


@dataclass(frozen=True)
class CompactnessReport:
    first_index: int | None
    epsilon: float
    widths: np.ndarray

    @property
    def verdict(self) -> str:
        if self.first_index is None:
            return "no decay observed through i_max"
        return f"widths drop below epsilon at index {self.first_index}"


def compactness_diagnostic(descriptor, epsilon: float,
                           i_max: int = 64) -> CompactnessReport:
    """First greedy index whose width falls below epsilon, if any."""
    check_positive(epsilon, "epsilon")
    seq = greedy_widths(descriptor, i_max)
    below = np.flatnonzero(seq.widths < epsilon)
    first = int(below[0]) + 1 if below.size else None
    return CompactnessReport(first_index=first, epsilon=epsilon, widths=seq.widths)


@dataclass(frozen=True)
class FiniteBand:
    """Band-limited ball: support within indices 1..l and norm <= P0."""

    l: int
    P0: float

    def __post_init__(self):
        check_count(self.l, "band limit l", 1)
        check_positive(self.P0, "P0")


def finite_band_membership(signal: SignalSpec, band: FiniteBand) -> bool:
    """Exact membership check: no mass above l (coefficients there count as
    zero up to 1e-15), norm within the radius."""
    energy = signal.index_energy()
    above = energy[band.l:]
    if above.size and float(np.max(above)) > 1e-15 ** 2:
        return False
    return signal.norm <= band.P0 * (1 + 1e-12)
