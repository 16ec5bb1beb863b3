"""Cramer-von Mises statistic, its weighted-series null law, and tables.

The scaled statistic for a sample of size n from (0, 1) is

    n T^2(Fhat - F0) = Sum_i (u_(i) - (2i-1)/(2n))^2 + 1/(12n),

an exact order-statistic identity. Its limiting null law is the squared
norm of the Brownian bridge, the weighted series Sum_j (xi_j / (pi j))^2,
and against a density perturbation f = Sum c_j sqrt(2) cos(pi j t) the
population value is T^2(F - F0) = Sum_j c_j^2 / (pi^2 j^2); the local shift
enters the series as Sum_j (xi_j/(pi j) + sqrt(n) c_j/(pi j))^2.

Both the series and the fixed-weight tests reject on a weighted
(noncentral) chi-square form Sum_j w_j (xi_j + d_j)^2. Its law is exact:
``weighted_chisq_sf`` evaluates Imhof's (1961) inversion integral with a
bound on the part it leaves out, and ``weighted_chisq_quantile`` inverts
it; the fixed-weight suites take their critical values from it. The
``nulltable`` tables of the cvm statistic are still self-generated Monte
Carlo quantiles of the truncated series, whose dropped tail obeys
Sum_{j>J} 1/(pi^2 j^2) <= 1/(pi^2 J).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import ValidationError
from .reports import TestReport, json_array, json_value
from .rng import STREAM_NULL_TABLE, substreams
from .signals import Basis, SignalSpec

_TABLE_BLOCK = 4096

# Longest bridge series: one _TABLE_BLOCK-row block of null draws holds
# 4096 * J_null floats (512 MiB at this bound).
_J_NULL_MAX = 2 ** 14

# Bound on the part of the inversion integral that weighted_chisq_sf
# leaves out; far below any level or power resolution used here.
_SF_TOL = 1e-13
_GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(20)
# Nodes times weights per chunk of the integrand: each complex temporary
# is 4 MiB, so the few alive at once stay within one _TABLE_BLOCK x 1024
# block of null draws (32 MiB).
_CONTOUR_CHUNK = 2 ** 18


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
    if J_null > _J_NULL_MAX:
        raise ValidationError(f"J_null must be at most {_J_NULL_MAX}, got {J_null}")
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


def _chisq_law(weights, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Positive weights of Sum w_j (xi_j + d_j)^2 and their squared offsets."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a nonempty 1-D array")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValidationError("weights must be finite and nonnegative")
    d2 = np.zeros(w.size)
    if offsets is not None:
        d = np.asarray(offsets, dtype=float)
        if d.shape != w.shape or not np.all(np.isfinite(d)):
            raise ValidationError("offsets must be finite and match the weights")
        d2 = np.square(d)
    keep = w > 0.0
    if not np.any(keep):
        raise ValidationError("at least one weight must be positive")
    return w[keep], d2[keep]


def _panel_width(p: complex, lam: np.ndarray, d2: np.ndarray, x_hi: float,
                 pole: bool) -> float:
    """Width of a Gauss-Legendre panel starting at contour point p.

    The panel keeps half its distance from every branch point -i/w_j (and
    from the pole at 0, on the turned ray) and spans at most eight radians
    of phase of the integrand, bounded through |1 - i w_j p|; the 20-node
    rule is then exact to rounding.
    """
    a = np.abs(1.0 - 1j * lam * p)
    dist = float(np.min(a / lam))
    if pole:
        dist = min(dist, abs(p))
    omega = 0.5 * x_hi + float(np.sum(lam / a) + 2.0 * np.sum(d2 * lam / a ** 2))
    return min(0.5 * dist, 8.0 / omega)


def _chisq_contour(lam: np.ndarray, d2: np.ndarray, x_lo: float, x_hi: float):
    """Nodes ``u``, coefficients ``c`` and ``K(u) = log E exp(i u Q / 2)`` with

        P(Q > x) = 1/2 + Im Sum_i c_i exp(K(u_i) - i u_i x / 2) / pi

    for every x in [x_lo, x_hi], up to _SF_TOL for the part left out.

    Imhof's integral runs along the real axis from 0 to T. From T it turns
    down by an angle beta, where exp(-i u x / 2) decays like
    exp(-x r sin(beta) / 2); the integrand has no singularity between the
    two paths (its branch points -i/w_j lie on the imaginary axis), so the
    integral is unchanged. Where Imhof's eq. 3.2 already bounds the real
    tail beyond T, 1 / (pi s rho(T)) with s = Sum_j q_j / 2 and
    q_j = (w_j T)^2 / (1 + (w_j T)^2) (each factor of rho grows at least
    like u^{q_j / 2} from T on), the ray is left out. On the turned ray every
    |1 - i w_j u| >= m_j = max(cos beta + w_j T sin beta, w_j T), so the
    integrand's modulus is at most P exp(-x r sin(beta) / 2) / T with
    log P = Sum_j (-log(m_j) + d_j^2 (1/m_j - 1)) / 2, and the ray stops
    where the integral of that bound beyond it falls below _SF_TOL. T and
    beta minimise the panel count: many weights or large offsets end the
    real segment early, few weights call for a short one and a steep ray.
    """
    betas = 0.5 * math.pi * np.concatenate([2.0 ** -np.arange(1.0, 8.0),
                                            1.0 - 2.0 ** -np.arange(2.0, 7.0)])
    edges = [0.0]
    best = (math.inf, 0.0, 0.0, 0.0)
    T_next = 0.0
    while len(edges) - 1 < best[0]:
        T = edges[-1]
        if T > T_next:
            T_next = 2.0 * T
            wT = lam * T
            q = np.square(wT) / (1.0 + np.square(wT))
            log_rho = 0.25 * np.sum(np.log1p(np.square(wT))) + 0.5 * (q @ d2)
            if log_rho + math.log(0.5 * math.pi * q.sum() * _SF_TOL) >= 0.0:
                best = (len(edges) - 1, T, 0.0, 0.0)
                break
            m = np.maximum(np.cos(betas)[:, None] + np.outer(np.sin(betas), wT), wT)
            log_p = 0.5 * (((1.0 / m - 1.0) @ d2) - np.sum(np.log(m), axis=1))
            rate = 0.5 * x_lo * np.sin(betas)
            R = np.maximum(0.0, (log_p - np.log(math.pi * _SF_TOL * T * rate)) / rate)
            ray = np.ceil(R / _panel_width(T, lam, d2, x_hi, True))
            ray[log_p > 300.0] = math.inf  # keep exp(K) finite on the ray
            k = int(np.argmin(ray))
            if len(edges) - 1 + ray[k] < best[0]:
                best = (len(edges) - 1 + ray[k], T, float(betas[k]), float(R[k]))
        edges.append(T + _panel_width(T, lam, d2, x_hi, False))
    _, T, beta, R = best
    turn = complex(math.cos(beta), -math.sin(beta))
    ray = [0.0]
    while ray[-1] < R:
        ray.append(ray[-1] + _panel_width(T + turn * ray[-1], lam, d2, x_hi, True))
    ray[-1] = R
    x, g = _GAUSS_LEGENDRE
    u, c = [], []
    for e, start, direction in ((np.array([e for e in edges if e <= T]), 0.0, 1.0),
                                (np.array(ray), T, turn)):
        if e.size < 2:
            continue
        half = 0.5 * np.diff(e)[:, None]
        r = ((e[:-1, None] + half) + half * x).ravel()
        nodes = start + direction * r
        u.append(nodes)
        c.append((half * g).ravel() * direction / nodes)
    u = np.concatenate(u).astype(complex)
    c = np.concatenate(c).astype(complex)
    return u, c, _log_cf(u, lam, d2)


def _log_cf(u: np.ndarray, lam: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """K(u) = Sum_j (-log z_j + d_j^2 (1/z_j - 1)) / 2 with z_j = 1 - i w_j u.

    Weights with w_j |u| <= 1/4 at every node enter through the power
    series Sum_k (i u)^k (p_k / k + q_k) / 2, p_k = Sum w^k and
    q_k = Sum d^2 w^k, cut where its remainder bound falls below 1e-17;
    the others term by term, in chunks. With term-by-term logs alone the
    alpha = 0.05 quantile of the 1024 bridge weights took ~0.9 s rather
    than ~0.05 s, and ~9 s rather than ~0.3 s at 16384 (2-core Xeon).
    """
    K = np.zeros(u.size, dtype=complex)
    rho = lam * float(np.max(np.abs(u)))
    series = rho <= 0.25
    if np.any(series):
        r, w, d = rho[series][:, None], lam[series][:, None], d2[series]
        k = np.arange(1.0, 65.0)
        rest = 0.5 * (r ** (k + 1.0) / (1.0 - r) * (1.0 / (k + 1.0) + d[:, None])).sum(axis=0)
        k = k[:int(np.argmax(rest <= 1e-17)) + 1]
        powers = w ** k
        coef = 0.5 * (powers.sum(axis=0) / k + d @ powers)
        K += np.polynomial.polynomial.polyval(1j * u, np.concatenate([[0.0], coef]))
    lam, d2 = lam[~series], d2[~series]
    shifted = d2 > 0.0
    step = max(1, _CONTOUR_CHUNK // max(1, lam.size))
    for s in range(0, u.size if lam.size else 0, step):
        z = 1.0 - 1j * np.outer(u[s:s + step], lam)
        K[s:s + step] -= 0.5 * np.sum(np.log(z), axis=1)
        if np.any(shifted):
            K[s:s + step] += 0.5 * ((1.0 / z[:, shifted] - 1.0) @ d2[shifted])
    return K


def _contour_sf(x, u, c, K) -> np.ndarray:
    phase = np.exp(K[None, :] - 0.5j * np.outer(x, u))
    return np.clip(0.5 + np.imag(phase @ c) / math.pi, 0.0, 1.0)


def weighted_chisq_sf(x, weights, offsets=None):
    """Exact P(Sum_j w_j (xi_j + d_j)^2 > x) for standard normal xi_j.

    ``offsets`` are the d_j (None: the central law). The value comes from
    Imhof's (1961) inversion integral, evaluated on a vector of nodes at
    once, with the left-out tail bounded by _SF_TOL; x <= 0 gives 1.
    """
    lam, d2 = _chisq_law(weights, offsets)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValidationError("x must be finite")
    out = np.ones(xs.shape)
    for i in np.ndindex(xs.shape):
        if xs[i] > 0.0:
            out[i] = _contour_sf(xs[i], *_chisq_contour(lam, d2, xs[i], xs[i]))[0]
    return out if out.ndim else float(out)


def weighted_chisq_quantile(alpha: float, weights, offsets=None) -> float:
    """Upper alpha-quantile t of Sum_j w_j (xi_j + d_j)^2: P(Q > t) = alpha.

    Chernoff bounds on both tails bracket t; the contour for that bracket
    is built once and a root search on weighted_chisq_sf's integral then
    costs one pass over its nodes per step.
    """
    lam, d2 = _chisq_law(weights, offsets)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    # P(Q > x) <= exp(-s x) E exp(s Q) for 0 < s < 1/(2 w_max), and
    # P(Q <= x) <= exp(s x) E exp(-s Q) for s > 0
    w_max = float(lam.max())
    s_up = 0.5 / w_max * np.concatenate([np.geomspace(1e-8, 0.5, 48),
                                         1.0 - np.geomspace(1e-12, 0.5, 48)])
    a = 2.0 * np.outer(s_up, lam)
    log_mgf = -0.5 * np.sum(np.log1p(-a), axis=1) + 0.5 * ((a / (1.0 - a)) @ d2)
    hi = float(np.min((log_mgf - math.log(alpha)) / s_up))
    s_lo = np.geomspace(1e-8, 1e12, 96) / w_max
    a = 2.0 * np.outer(s_lo, lam)
    log_lt = -0.5 * np.sum(np.log1p(a), axis=1) - 0.5 * ((a / (1.0 + a)) @ d2)
    lo = float(np.max((math.log1p(-alpha) - log_lt) / s_lo))
    if not 0.0 < lo < hi:
        raise ValidationError("could not bracket the quantile")
    u, c, K = _chisq_contour(lam, d2, lo, hi)
    return optimize.brentq(lambda t: _contour_sf(t, u, c, K)[0] - alpha,
                           lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def weighted_null_quantiles(weights: np.ndarray, alphas, replicates: int,
                            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper alpha-quantiles of Sum w_j xi_j^2 by block-keyed Monte Carlo.

    Every block of 4096 replicates draws from the null-table substream keyed
    by its block index, row-major by (replicate, j), so the table is
    reproducible independent of scheduling. The blocks share one buffer,
    squared in place, so no block-sized temporary is allocated.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValidationError("weights must be a nonempty 1-D array")
    if not np.all((weights >= 0.0) & (weights < np.inf)):
        raise ValidationError("weights must be finite and nonnegative")
    alphas = np.asarray(sorted(float(a) for a in alphas))
    if alphas.size == 0 or not np.all((alphas > 0) & (alphas < 1)):
        raise ValidationError("alphas must lie in (0, 1)")
    if replicates < 100:
        raise ValidationError("at least 100 replicates required")
    draws = np.empty(replicates)
    block = np.empty((min(_TABLE_BLOCK, replicates), weights.size))
    starts = range(0, replicates, _TABLE_BLOCK)
    gens = substreams(seed, STREAM_NULL_TABLE, range(len(starts)))
    for start, gen in zip(starts, gens):
        rows = min(_TABLE_BLOCK, replicates - start)
        xi = block[:rows]
        gen.standard_normal(out=xi)
        np.square(xi, out=xi)
        np.matmul(xi, weights, out=draws[start:start + rows])
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
        alphas = np.asarray(self.alphas, dtype=float)
        if not (np.all((alphas > 0.0) & (alphas < 1.0))
                and np.all(np.diff(alphas) > 0.0)):
            raise ValidationError("alphas must increase strictly within (0, 1)")
        criticals = np.asarray(self.criticals, dtype=float)
        if not np.all(np.isfinite(criticals)):
            raise ValidationError("criticals must be finite")
        if np.any(np.diff(criticals) > 0.0):
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
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ValidationError(f"malformed null table: {exc}") from exc
        return cls(tuple(json_array(obj, "alpha").tolist()),
                   tuple(json_array(obj, "critical").tolist()),
                   *(json_value(obj, key, int)
                     for key in ("J_null", "replicates", "seed")))


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
