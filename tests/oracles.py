"""Independent oracles used across the test suite.

Everything here recomputes package quantities by a different route
(quadrature, brute force, dense grids, Fourier series) so tests compare two
derivations rather than a function against itself. The helpers at the end
(exponential coefficients, projection reports, the bridge-series sampler
and tail bound, the quad null variance) have no caller in the package.
``invert_cdf_masked`` is the earlier bookkeeping of ``invert_cdf``'s rounds
(masked bracket copies, boolean compaction), kept to pin the float path.
"""

import math

import numpy as np
from scipy import optimize

from uniconsist.chi2 import cell_integrals, chi2_population
from uniconsist.cvm import bridge_weights
from uniconsist.errors import ValidationError
from uniconsist.quad import KappaProfile
from uniconsist import signals
from uniconsist.signals import (SQRT2, Basis, DensitySpec, SignalSpec,
                                _evaluate_interior)


def gauss01(f, pieces: int = 64, nodes: int = 48) -> float:
    """Composite Gauss-Legendre integral of f over [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for p in range(pieces):
        a, b = p / pieces, (p + 1) / pieces
        t = 0.5 * (b - a) * x + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(w @ np.asarray(f(t), dtype=float))
    return total


def eval_signal(signal: SignalSpec, t: np.ndarray) -> np.ndarray:
    # quadrature nodes may touch the closed endpoints
    return _evaluate_interior(signal, np.asarray(t, dtype=float))


def signal_pieces(signal: SignalSpec) -> int:
    return max(32, 4 * signal.J)


def norm_sq_quadrature(signal: SignalSpec) -> float:
    """||f||^2 by quadrature; Parseval route for SignalSpec.norm_sq."""
    return gauss01(lambda t: eval_signal(signal, t) ** 2,
                   pieces=signal_pieces(signal))


def seminorm_grid_oracle(energy: np.ndarray, s: float,
                         fill: int = 797) -> float:
    """sup_{lambda>0} lambda^{2s} Sum_{j>lambda} theta_j^2 on a dense grid.

    The grid carries points just below every integer (where the sup is
    attained) plus a uniform filler, so no breakpoint structure is assumed.
    """
    energy = np.asarray(energy, dtype=float)
    J = energy.size
    lams = [np.nextafter(float(m), 0.0) for m in range(1, J + 1)]
    lams.extend(np.linspace(1.0 / fill, J + 1.0, fill))
    j = np.arange(1, J + 1, dtype=float)
    best = 0.0
    for lam in lams:
        best = max(best, lam ** (2.0 * s) * float(np.sum(energy[j > lam])))
    return best


def cvm_population_quadrature(signal: SignalSpec) -> float:
    """T^2(F - F0) = int (F - F0)^2 as a double integral over the kernel.

    Expanding the square of the primitive G(t) = int_0^t f gives
    int G^2 = int int min(s,t) f(s) f(t) ds dt for zero-mean f. The product
    kernel min(s,t) - st alone loses the rank-one piece (int t f(t) dt)^2,
    so that term is added back. min(s,t) is smooth on each triangle
    {s < t}, {s > t}; integrating the inner variable over [0, t] and [t, 1]
    separately keeps Gauss quadrature spectrally accurate despite the kink.
    """
    pieces = signal_pieces(signal)
    x, w = np.polynomial.legendre.leggauss(32)

    def inner(t: float) -> float:
        def left(sv):
            return (sv - sv * t) * eval_signal(signal, sv)

        def right(sv):
            return (t - sv * t) * eval_signal(signal, sv)

        lo = _gauss_ab(left, 0.0, t, x, w, max(4, pieces // 8))
        hi = _gauss_ab(right, t, 1.0, x, w, max(4, pieces // 8))
        return lo + hi

    def outer(tv):
        return np.array([inner(float(t)) * float(eval_signal(
            signal, np.array([t]))[0]) for t in np.atleast_1d(tv)])

    rank_one = gauss01(lambda t: t * eval_signal(signal, t), pieces=pieces)
    return gauss01(outer, pieces=pieces, nodes=24) + rank_one ** 2


def _gauss_ab(f, a: float, b: float, x, w, pieces: int) -> float:
    if b <= a:
        return 0.0
    total = 0.0
    edges = np.linspace(a, b, pieces + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = 0.5 * (hi - lo) * x + 0.5 * (lo + hi)
        total += 0.5 * (hi - lo) * float(w @ np.asarray(f(t), dtype=float))
    return total


def cvm_statistic_quadrature(points: np.ndarray) -> float:
    """n int (F_n(t) - t)^2 dt, integrated exactly between order statistics.

    F_n is constant between consecutive order statistics, so each piece is
    int (c - t)^2 dt with closed-form antiderivative.
    """
    u = np.sort(np.asarray(points, dtype=float))
    n = u.size
    edges = np.concatenate([[0.0], u, [1.0]])
    total = 0.0
    for i in range(n + 1):
        a, b = edges[i], edges[i + 1]
        c = i / n
        # int_a^b (c - t)^2 dt = ((c-a)^3 - (c-b)^3)/3
        total += ((c - a) ** 3 - (c - b) ** 3) / 3.0
    return n * total


def chi2_population_bruteforce(signal: SignalSpec, m: int) -> float:
    """S(f, m) with every cell integral done by quadrature, no antiderivatives."""
    pieces = max(8, signal_pieces(signal) // m + 1)
    total = 0.0
    x, w = np.polynomial.legendre.leggauss(48)
    for cell in range(m):
        a, b = cell / m, (cell + 1) / m
        val = _gauss_ab(lambda t: eval_signal(signal, t), a, b, x, w, pieces)
        total += val * val
    return total


def kernel_smoothed_field_sq(y0: float, pairs: np.ndarray, khat, h: float,
                             pieces: int | None = None) -> float:
    """Time-domain route for the kernel statistic core.

    Builds g(t) = Khat(0) y0 + Sum_j Khat(j h)(a_j sqrt2 cos + b_j sqrt2 sin)
    and integrates g^2 over [0, 1]; by Parseval this equals
    Khat(0)^2 y0^2 + Sum |Khat(jh)|^2 (a_j^2 + b_j^2).
    """
    pairs = np.asarray(pairs, dtype=float)
    J = pairs.shape[0]
    wts = khat(np.arange(J + 1) * h)

    def g(t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, float(wts[0]) * y0)
        for j in range(1, J + 1):
            a, b = pairs[j - 1]
            if a == 0.0 and b == 0.0:
                continue
            wjt = 2.0 * math.pi * j * t
            out += float(wts[j]) * (math.sqrt(2.0) * a * np.cos(wjt)
                                    + math.sqrt(2.0) * b * np.sin(wjt))
        return out

    return gauss01(lambda t: g(t) ** 2, pieces=pieces or max(64, 4 * J))


def wilson_interval_at(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Score interval at normal quantile z (the engine's is fixed at 95%)."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials
                         + z * z / (4.0 * trials * trials)) / denom
    return center - half, center + half


def two_term_chisq_sf(x: float, a: float, b: float, da: float, db: float) -> float:
    """P(a (xi_1 + da)^2 + b (xi_2 + db)^2 > x) by conditioning on xi_2.

    Outside |xi_2 + db| < r = sqrt(x / b) the event is sure; inside, with
    xi_2 + db = r sin(t), it is the normal tail pair of xi_1 at
    sqrt(x / a) cos(t), which is smooth in t, integrated by composite
    Gauss-Legendre over t in (-pi/2, pi/2).
    """
    from scipy.special import ndtr

    def tail(c, d):  # P((xi + d)^2 > c^2) for c >= 0
        return ndtr(d - c) + ndtr(-c - d)

    r, c = math.sqrt(x / b), math.sqrt(x / a)
    inner = gauss01(lambda u: (math.pi * r * np.cos(math.pi * (u - 0.5))
                               * np.exp(-0.5 * np.square(r * np.sin(math.pi * (u - 0.5)) - db))
                               / math.sqrt(2.0 * math.pi)
                               * tail(c * np.cos(math.pi * (u - 0.5)), da)))
    return float(tail(r, db)) + inner


def seedsequence_key(seed: int, stream: int, replicate: int) -> np.ndarray:
    """numpy's own Philox key for (seed, stream, replicate): the two uint64
    words of ``SeedSequence(seed, spawn_key=(stream, replicate))``."""
    return np.random.SeedSequence(seed, spawn_key=(stream, replicate)).generate_state(
        2, np.uint64)


def seedsequence_generator(seed: int, stream: int,
                           replicate: int) -> np.random.Generator:
    """A generator built by numpy from that ``SeedSequence``, the way
    ``Philox(SeedSequence(...))`` keys itself."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(stream, replicate))))


def bounded_minima_scipy(fn, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """scipy's bounded Brent (``xatol`` 1e-12) on each bracket [lo[i], hi[i]]
    in turn, fn taken one point at a time: x and fun of every bracket."""
    xs, fs = [], []
    for a, b in zip(np.asarray(lo).tolist(), np.asarray(hi).tolist()):
        res = optimize.minimize_scalar(
            lambda x: float(fn(np.array([x]))[0]), bounds=(a, b),
            method="bounded", options={"xatol": 1e-12})
        xs.append(float(res.x))
        fs.append(float(res.fun))
    return np.array(xs), np.array(fs)


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


def projection_l2n(signal: SignalSpec, m: int) -> np.ndarray:
    """Cell values of the L2 projection onto m-cell constants: m * int_cell f."""
    return m * cell_integrals(signal, m)


def projection_norm_sq(signal: SignalSpec, m: int) -> float:
    """||Pi f||^2 = m * S(f, m); the statistic identity is T_n(F) = n ||Pi f||^2."""
    return float(np.sum(np.square(projection_l2n(signal, m))) / m)


def chi2_fourier_identity(signal: SignalSpec, m: int,
                          K_max: int | None = None) -> float:
    """S(f, m) via the exponential-coefficient double series.

    S = m * Sum_k Sum_{j != 0, j != km} theta_j conj(theta_{j-km})
        * (2 - 2 cos(2 pi j / m)) / (4 pi^2 j (j - km)),

    with the 0/0 terms dropped (their numerators vanish identically). For a
    signal supported on |j| <= J every term with |k| > 2J/m has an empty
    index range, so the default K_max is exact, not a truncation.
    """
    if signal.basis is not Basis.TRIG_FULL:
        raise ValidationError("the Fourier identity indexes TrigFull signals")
    if m < 2:
        raise ValidationError("m must be at least 2")
    J = signal.J
    _, theta = to_exponential(signal)
    if K_max is None:
        K_max = 2 * J // m + 1
    total = 0.0 + 0.0j
    for k in range(-K_max, K_max + 1):
        shift = k * m
        lo, hi = max(-J, shift - J), min(J, shift + J)
        if hi < lo:
            continue
        js = np.arange(lo, hi + 1)
        js = js[(js != 0) & (js != shift)]
        if js.size == 0:
            continue
        num = 2.0 - 2.0 * np.cos(2.0 * math.pi * js / m)
        terms = theta[js + J] * np.conj(theta[js - shift + J]) * num \
            / (4.0 * math.pi ** 2 * js * (js - shift))
        total += np.sum(terms)
    value = m * total
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValidationError("Fourier series lost Hermitian symmetry")
    return float(value.real)


def tail_projection_report(signal: SignalSpec, m: int, i_n: int) -> dict:
    """Measured constant in the far-tail bound of the projected mass.

    For a signal supported above i_n >= m, the scaled population value
    m^{-1} S(f, m) is bounded by C m^{-1} i_n^{-1} * (coefficient mass); the
    report carries both sides and the measured C.
    """
    if i_n < 1:
        raise ValidationError("i_n must be positive")
    value = chi2_population(signal, m) / m
    mass = signal.norm_sq
    envelope = mass / (m * i_n)
    measured = value / envelope if envelope > 0 else math.inf
    return {"value": value, "envelope": envelope, "measured_C": measured}


def modulus_projection_report(signal: SignalSpec, m: int, k: int) -> dict:
    """Projection error versus the smoothness-modulus envelope.

    For a signal band-limited to |j| <= k <= m,
    ||f - Pi f|| <= 4 pi sqrt(k/m) ||f||. Both sides are exact: the left via
    Pythagoras ||f||^2 - ||Pi f||^2, the right from the stored norm.
    """
    if k > m:
        raise ValidationError("the modulus envelope needs band limit k <= m")
    err_sq = signal.norm_sq - projection_norm_sq(signal, m)
    err = math.sqrt(max(err_sq, 0.0))
    bound = 4.0 * math.pi * math.sqrt(k / m) * signal.norm
    return {"error": err, "bound": bound, "ok": bool(err <= bound * (1 + 1e-12))}


def truncation_tail_bound(J: int) -> float:
    """Upper bound on the dropped null-series mean: Sum_{j>J} 1/(pi^2 j^2)."""
    if J < 1:
        raise ValidationError("J must be positive")
    return 1.0 / (math.pi ** 2 * J)


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


def null_variance(profile: KappaProfile, n: int) -> float:
    """Exact finite-J null variance of T_n: 2 sigma^4 n^{-2} Sum kappa^4."""
    profile.require_n(n)
    return float(2.0 * profile.sigma ** 4 * n ** (-2)
                 * np.sum(np.square(profile.kappa_sq[n])))


def invert_cdf_masked(density: DensitySpec, u: np.ndarray) -> np.ndarray:
    """``invert_cdf`` with its earlier round bookkeeping: brackets updated by
    masked copies, and every round's done points written and dropped from
    the working arrays by boolean masks. Each point takes the same float
    operations as in ``invert_cdf``, so the two agree byte for byte."""
    signal = density.signal
    flat = np.asarray(u, dtype=float).ravel()
    x = np.empty_like(flat)
    gx, mid, mid_F, mid_dens, bracket = density.inversion_tables()
    chunk = signals.INVCDF_CHUNK
    for start in range(0, flat.size, chunk):
        ua = flat[start:start + chunk]
        xc = x[start:start + chunk]
        cell = bracket(ua)
        np.clip(cell, 1, gx.size - 1, out=cell)
        cell -= 1
        lo, hi, xa = gx[cell], gx[1:][cell], mid[cell]
        active = np.arange(ua.size)
        for round_ in range(200):
            if round_:
                r = signals.cdf_offset(signal, xa)
                r += xa
            else:
                r = mid_F[cell]
            r -= ua
            done = np.abs(r) <= signals.INVCDF_TOL
            if done.any():
                xc[active[done]] = xa[done]
                if done.all():
                    break
                keep = np.logical_not(done, out=done)
                active, ua, xa, r, lo, hi = (
                    a[keep] for a in (active, ua, xa, r, lo, hi))
                if not round_:
                    cell = cell[keep]
            gt = r > 0.0
            np.copyto(hi, xa, where=gt)
            np.copyto(lo, xa, where=np.logical_not(gt, out=gt))
            if round_:
                dens = signals._evaluate_interior(signal, xa)
                dens += 1.0
            else:
                dens = mid_dens[cell]
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
    return x.reshape(np.shape(u))
