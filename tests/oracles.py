"""Independent oracles used across the test suite.

Everything here recomputes package quantities by a different route
(quadrature, brute force, dense grids) so tests compare two derivations
rather than a function against itself.
"""

import math

import numpy as np

from uniconsist.signals import SignalSpec, _evaluate_interior


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


def exact_power(form, critical: float, row=None) -> float:
    """P(form.unit * form.statistic(row + form.scale * xi) > critical), exact.

    With xi standard normal and unit > 0 the event is
    Sum_j w_j s_j^2 (xi_j + row_j / s_j)^2 > center + critical / unit, a
    noncentral weighted chi-square tail (Imhof 1961). ``row`` None is the
    null.
    """
    from uniconsist.cvm import weighted_chisq_sf

    scale = np.broadcast_to(np.asarray(form.scale, dtype=float), form.weights.shape)
    offsets = None if row is None else np.asarray(row, dtype=float) / scale
    return weighted_chisq_sf(form.center + critical / form.unit,
                             form.weights * np.square(scale), offsets)


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
