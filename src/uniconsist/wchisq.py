"""The exact law of a weighted (noncentral) chi-square form.

The cvm series and every sequence-model test reject on a weighted
(noncentral) chi-square form Sum_j w_j (xi_j + d_j)^2. Its law is exact:
``weighted_chisq_sf`` evaluates Imhof's (1961) inversion integral with a
bound on the part it leaves out, and ``weighted_chisq_quantile`` inverts
it; the tests read it through :class:`~uniconsist.quad.QuadraticForm`.
"""

from __future__ import annotations

import math

import numpy as np

from ._ports import brentq
from .errors import ValidationError

# Bound on the part of the inversion integral that weighted_chisq_sf
# leaves out; far below any level or power resolution used here.
_SF_TOL = 1e-13
_GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(20)
# Nodes x weights per integrand chunk: 4 MiB per complex temporary, 32 MiB alive at most.
_CONTOUR_CHUNK = 2 ** 18


def check_weights(weights) -> np.ndarray:
    """Weights as floats: nonempty, 1-D, finite, nonnegative, not all zero."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a nonempty 1-D array")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0) or not np.any(w > 0.0):
        raise ValidationError("weights must be finite and nonnegative, not all zero")
    return w


def _chisq_law(weights, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Positive weights of Sum w_j (xi_j + d_j)^2 and their squared offsets."""
    w = check_weights(weights)
    d2 = np.zeros(w.size)
    if offsets is not None:
        d = np.asarray(offsets, dtype=float)
        if d.shape != w.shape or not np.all(np.isfinite(d)):
            raise ValidationError("offsets must be finite and match the weights")
        d2 = np.square(d)
    keep = w > 0.0
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
    return brentq(lambda t: _contour_sf(t, u, c, K)[0] - alpha,
                  lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
