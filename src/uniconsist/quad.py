"""Quadratic sequence-model tests with scaled weight profiles.

Each test here, and the kernel test, is one :class:`QuadraticForm`, read
alike by its ``statistic``, by the exact law of :mod:`~uniconsist.wchisq`
(``exact_power``, ``exact_critical``) and by the engine, which scores the
rows and weights of ``fold`` on unscaled xi, one group per form, its cross
terms only where they are nonzero (:func:`weighted_square_sums`);
``noncentrality`` and the engine read one coordinate map, ``quad_coordinates``.

The quad test at n (``KappaProfile.form``, scale sigma / sqrt(n)) centres
T_n(y) = Sum_j kappa_nj^2 y_j^2 - sigma^2 rho_n / n, rho_n = Sum_j kappa_nj^2,
and its unit inverts the exact null standard deviation sigma^4 n^{-2}
sqrt(2 A_n), where A_n = sigma^{-4} n^2 Sum_j kappa_nj^4:

    reject  iff  sigma^{-4} n^2 T_n(y) / sqrt(2 A_n) > x_alpha,

with Gaussian power prediction beta = Phi(x_alpha - R_n / sqrt(2 A_n)),
R_n(theta) = sigma^{-4} n^2 Sum_j kappa_nj^2 theta_j^2.

Weight profiles follow the scaled family

    kappa_nj^2 = n^{-lam} / (j^gamma + c n^beta),
    beta = (2 - 4r) gamma,  lam = 2 - 2r - beta,

whose effective dimension k_n (smallest index where the cumulative weight
passes half of rho_n) grows like n^{2-4r}. The fixed-weight statistic
T(z) = Sum_j kappa_j^2 z_j^2 (``FixedKappa.form``: no n-scaling or centring,
summable decreasing weights) covers the boundary rate r = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._ports import ndtr, ndtri
from .errors import AssumptionError, ValidationError, check_count, check_positive
from .reports import TestReport
from .signals import SignalSpec
from .wchisq import check_weights, weighted_chisq_quantile, weighted_chisq_sf

# Largest truncation a profile accepts: it stores J weights per n (128 MiB
# each at this bound).
_J_MAX = 2 ** 24

# A power whose natural log exceeds this overflows a float.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def gaussian_upper_quantile(alpha: float) -> float:
    """x_alpha with 1 - Phi(x_alpha) = alpha (machine-precision inverse)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    return -ndtri(alpha)


def dimension_exponent(r: float) -> float:
    """2 - 4r: k_n, the chi2 cell count m_n and 1/h_n grow like n^{2-4r}."""
    if not 0.0 < r < 0.5:
        raise ValidationError(f"rate r must lie in (0, 1/2), got {r!r}")
    return 2.0 - 4.0 * r


def quad_coordinates(theta) -> np.ndarray:
    """theta_j of a SignalSpec or an array; TrigFull pairs (2-D) are refused."""
    arr = np.asarray(theta.coeffs if isinstance(theta, SignalSpec) else theta, dtype=float)
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise ValidationError("quad tests take a 1-D-basis signal or a finite 1-D array")
    return arr


@dataclass(frozen=True)
class QuadraticForm:
    """Test rejecting when unit (Sum_j w_j y_j^2 - center) > t on y = theta + scale xi."""

    weights: np.ndarray
    scale: float | np.ndarray
    center: float = 0.0
    unit: float = 1.0

    def __post_init__(self):
        weights = check_weights(self.weights)
        scale = np.asarray(self.scale, dtype=float)
        if scale.shape not in ((), weights.shape) or not np.all(
                (scale > 0.0) & (scale < math.inf)):
            raise ValidationError("scale must be positive and finite: "
                                  "a scalar or one per weight")
        if not (math.isfinite(self.center) and 0.0 < self.unit < math.inf):
            raise ValidationError(f"center must be finite and unit positive and "
                                  f"finite, got {self.center!r}, {self.unit!r}")
        object.__setattr__(self, "weights", weights)

    def statistic(self, y):
        """Sum_j w_j y_j^2 - center, one value per row along the last axis."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1:] != self.weights.shape:
            raise ValidationError(f"observation length {y.shape} != ({self.weights.size},)")
        t = np.square(y) @ self.weights - self.center
        return t if t.ndim else float(t)

    def fold(self, rows):
        """Rows theta / scale and weights w scale^2 on unscaled xi:
        Sum w (theta + scale xi)^2 = Sum (w scale^2) (theta / scale + xi)^2."""
        return np.asarray(rows, dtype=float) / self.scale, self.weights * np.square(self.scale)

    def exact_power(self, critical: float, row=None) -> float:
        """Exact P(unit * statistic(row + scale xi) > critical); row None: the null."""
        offsets, w = self.fold(np.zeros(self.weights.shape) if row is None else row)
        return weighted_chisq_sf(self.center + critical / self.unit, w, offsets)

    def exact_critical(self, alpha: float) -> float:
        """The critical value whose exact null rejection rate is alpha."""
        return self.unit * (weighted_chisq_quantile(alpha, self.fold(0.0)[1]) - self.center)


@dataclass(frozen=True)
class KappaProfile:
    """Scaled weight family with per-n derived quantities.

    ``kappa_sq[n]`` is the length-J weight vector; ``rho``, ``A``, ``k`` and
    ``kappa_n_sq`` hold rho_n, A_n, the cumulative-definition k_n and the
    weight at k_n. :func:`build_profile` enforces A1 (a finite gamma > 1 and
    nonincreasing weights) and reports no other condition.
    """

    r: float
    gamma: float
    c: float
    J: int
    n_list: tuple[int, ...]
    sigma: float
    kappa_sq: dict[int, np.ndarray]
    rho: dict[int, float]
    A: dict[int, float]
    k: dict[int, int]
    kappa_n_sq: dict[int, float]

    def require_n(self, n: int):
        if n not in self.kappa_sq:
            raise ValidationError(f"n = {n} not in profile n_list {self.n_list}")

    def form(self, n: int) -> QuadraticForm:
        """The quad test at n: T_n in units of its null standard deviation."""
        self.require_n(n)
        return QuadraticForm(self.kappa_sq[n], self.sigma / math.sqrt(n),
                             self.sigma ** 2 * self.rho[n] / n,
                             self.sigma ** (-4) * n ** 2 / math.sqrt(2.0 * self.A[n]))


def cumulative_k(kappa_sq: np.ndarray, rho: float) -> int:
    """k_n = max{k : Sum_{j<k} kappa_j^2 <= rho/2} (exact definition)."""
    prefix = np.concatenate([[0.0], np.cumsum(kappa_sq)[:-1]])
    return int(np.searchsorted(prefix, rho / 2.0, side="right"))


def distinct_n(n_list) -> tuple:
    """``n_list`` as a tuple, refused if it repeats a sample size."""
    n_list = tuple(n_list)
    for i, n in enumerate(n_list):
        if n in n_list[:i]:
            raise ValidationError(f"n_list repeats n = {n}")
    return n_list


def build_profile(r: float, gamma: float, c: float, J: int, n_list,
                  sigma: float = 1.0) -> KappaProfile:
    """Construct and validate a scaled weight profile."""
    beta = dimension_exponent(r) * gamma
    if not 1.0 < gamma < math.inf:
        raise AssumptionError("A1", f"weight decay requires a finite gamma > 1, "
                                    f"got {gamma}")
    check_positive(c, "c")
    check_positive(sigma, "sigma")
    n_list = distinct_n(check_count(n, "n_list entry", 2) for n in n_list)
    if not n_list:
        raise ValidationError("n_list must not be empty")
    J = check_count(J, "J", 2, _J_MAX)

    lam = 2.0 - 2.0 * r - beta
    # j^gamma and n^beta are the largest powers in the weights.
    if not max(gamma * math.log(J),
               beta * math.log(max(n_list))) < _LOG_FLOAT_MAX:
        raise ValidationError(
            f"gamma = {gamma} overflows the weights at J = {J}, n = "
            f"{max(n_list)}: j^gamma or n^beta exceeds the float range")
    j = np.arange(1, J + 1, dtype=float)
    kappa_sq, rho, A, k, kn_sq = {}, {}, {}, {}, {}
    for n in n_list:
        w = n ** (-lam) / (np.power(j, gamma) + c * n ** beta)
        if np.any(np.diff(w) > 0.0):
            raise AssumptionError("A1", f"weights not nonincreasing at n={n}")
        w.flags.writeable = False
        rho_n = float(np.sum(w))
        if rho_n <= 0.0:
            raise ValidationError(f"degenerate profile at n={n}")
        kappa_sq[n] = w
        rho[n] = rho_n
        A[n] = float(sigma ** (-4) * n ** 2 * np.sum(np.square(w)))
        k[n] = cumulative_k(w, rho_n)
        kn_sq[n] = float(w[k[n] - 1])
    return KappaProfile(r=r, gamma=gamma, c=c, J=J, n_list=n_list, sigma=sigma,
                        kappa_sq=kappa_sq, rho=rho, A=A, k=k, kappa_n_sq=kn_sq)


@dataclass(frozen=True)
class QuadTestConfig:
    profile: KappaProfile
    alpha: float
    x_alpha: float = field(init=False)

    def __post_init__(self):
        x = gaussian_upper_quantile(self.alpha)
        if abs((1.0 - ndtr(x)) - self.alpha) > 1e-8:
            raise ValidationError("critical point fails the quantile identity")
        object.__setattr__(self, "x_alpha", x)


def weighted_square_sums(groups):
    """The scorer of Sum_j w_j (rows_v + noise_i)_j^2 for every noise row i
    and, in each ``(rows, w)`` of ``groups`` (one weight vector per group,
    as ``QuadraticForm.fold`` returns it), every variant row v: a function
    of a noise matrix that returns one (i, v) matrix per group.

    Expands the square, Sum w xi^2 + 2 xi . (w theta) + Sum w theta^2, and
    reads the cross terms only where they are nonzero: a group costs one
    product on the coordinates where any of its cross weights w theta is
    nonzero (none for a group of zero rows), then, once the noise is
    squared in place, one gemv against its weights. The supports, the cross
    weights and the Sum w theta^2 terms depend only on the groups, so they
    are computed once here, however many noise matrices are scored. A
    group's sums depend only on its own rows and weights, and a zero row
    gives exactly ``np.square(noise) @ w``. ``noise`` is overwritten with
    its square.
    """
    folded = []
    for rows, w in groups:
        support = np.flatnonzero(np.any(rows * w != 0.0, axis=0))
        folded.append((support, (rows[:, support] * w[support]).T, w,
                       np.square(rows) @ w))

    def sums_of(noise: np.ndarray) -> list[np.ndarray]:
        out = [noise[:, support] @ cross for support, cross, _, _ in folded]
        np.square(noise, out=noise)
        for sums, (_, _, w, theta_sums) in zip(out, folded):
            sums *= 2.0
            sums += (noise @ w)[:, None]
            sums += theta_sums
        return out

    return sums_of


def noncentrality(theta, profile: KappaProfile, n: int) -> float:
    """R_n(theta) = sigma^{-4} n^2 Sum_j kappa_nj^2 theta_j^2."""
    profile.require_n(n)
    theta = quad_coordinates(theta)
    if np.any(theta[profile.J:] != 0.0):
        raise ValidationError(
            "signal support exceeds profile truncation J; rebuild with larger J")
    energy = np.square(theta[:profile.J])
    w = profile.kappa_sq[n][:energy.size]
    return float(profile.sigma ** (-4) * n ** 2 * (w @ energy))


def predict_beta(R_n: float, A_n: float, x_alpha: float) -> float:
    """Gaussian type-II error Phi(x_alpha - R_n / sqrt(2 A_n))."""
    return ndtr(x_alpha - R_n / math.sqrt(2.0 * A_n))


def decide_and_predict(y: np.ndarray, config: QuadTestConfig, n: int,
                       theta=None) -> TestReport:
    """Standardize, decide, and (when theta is given) predict power."""
    profile = config.profile
    form = profile.form(n)
    t_raw = form.statistic(y)
    A_n = profile.A[n]
    standardized = form.unit * t_raw
    r_n = None if theta is None else noncentrality(theta, profile, n)
    beta = None if r_n is None else predict_beta(r_n, A_n, config.x_alpha)
    return TestReport(
        family="quad", n=n, statistic=t_raw, standardized=standardized,
        reject=bool(standardized > config.x_alpha), predicted_beta=beta,
        ingredients={"R_n": r_n, "A_n": A_n, "rho_n": profile.rho[n],
                     "k_n": profile.k[n], "kappa_n_sq": profile.kappa_n_sq[n]})


@dataclass(frozen=True)
class FixedKappa:
    """Fixed summable decreasing weights for the boundary rate r = 1/2.

    Observations z_j = eta_j + sigma_j xi_j with bounded positive scales.
    """

    kappa_sq: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.kappa_sq, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("kappa_sq must be a nonempty 1-D array")
        if not np.all(np.isfinite(w)):
            raise ValidationError("kappa_sq must be finite")
        if np.any(w < 0.0) or w[0] <= 0.0:
            raise AssumptionError("D1", "weights must be nonnegative with kappa_1 > 0")
        if np.any(np.diff(w) > 0.0):
            raise AssumptionError("D1", "weights must be nonincreasing")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "kappa_sq", w)
        if self.sigmas is not None:
            s = np.asarray(self.sigmas, dtype=float)
            if s.shape != w.shape:
                raise ValidationError("sigmas must match kappa_sq in length")
            if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
                raise AssumptionError("D2", "scales must be positive and bounded")
            s = s.copy()
            s.flags.writeable = False
            object.__setattr__(self, "sigmas", s)

    @property
    def L(self) -> int:
        return int(self.kappa_sq.size)

    def scales(self) -> np.ndarray:
        return np.ones(self.L) if self.sigmas is None else self.sigmas

    def form(self) -> QuadraticForm:
        return QuadraticForm(self.kappa_sq, self.scales())

    def coordinates(self, eta) -> np.ndarray:
        """A shift eta on the test's coordinates: exactly L of them."""
        if np.shape(eta) != (self.L,):
            raise ValidationError(f"shift must have shape ({self.L},)")
        return np.asarray(eta, dtype=float)


def fixed_kappa_statistic(z: np.ndarray, fk: FixedKappa):
    """T(z) = Sum_j kappa_j^2 z_j^2, one value per row along the last axis."""
    return fk.form().statistic(z)
