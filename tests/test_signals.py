"""Bases, antiderivatives, densities, and exact inverse-CDF sampling."""

import hashlib
import math
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import (bounded_minima_scipy, eval_signal, from_exponential,
                     gauss01, invert_cdf_masked, norm_sq_quadrature,
                     to_exponential)
from uniconsist import alternatives, signals
from uniconsist.errors import DensityError, ValidationError
from uniconsist.signals import (INVCDF_TOL, SQRT2, Basis, DensitySpec,
                                NoiseModel, SignalSpec, cdf_offset,
                                density_minimum, evaluate, invert_cdf,
                                sample_iid, sample_sequence_model,
                                signal_from_json, sorted_lookup)
from uniconsist.rng import substream

RNG = np.random.default_rng(20260816)


def random_signal(basis: Basis, J: int, scale: float = 1.0) -> SignalSpec:
    if basis is Basis.TRIG_FULL:
        return SignalSpec(basis, scale * RNG.standard_normal((J, 2)))
    return SignalSpec(basis, scale * RNG.standard_normal(J))


def test_orthonormality_by_quadrature():
    """Each half-frequency family is orthonormal in L2(0,1)."""
    for trig in (np.cos, np.sin):
        funcs = [lambda t, j=j, trig=trig: math.sqrt(2) * trig(math.pi * j * t)
                 for j in range(1, 7)]
        for i, fi in enumerate(funcs):
            for k, fk in enumerate(funcs):
                val = gauss01(lambda t: fi(t) * fk(t), pieces=32)
                want = 1.0 if i == k else 0.0
                assert abs(val - want) < 1e-12, (trig.__name__, i, k, val)


def test_trig_full_orthonormality():
    funcs = []
    for j in range(1, 5):
        funcs.append(lambda t, j=j: math.sqrt(2) * np.cos(2 * math.pi * j * t))
        funcs.append(lambda t, j=j: math.sqrt(2) * np.sin(2 * math.pi * j * t))
    for i, fi in enumerate(funcs):
        for k, fk in enumerate(funcs):
            val = gauss01(lambda t: fi(t) * fk(t), pieces=32)
            want = 1.0 if i == k else 0.0
            assert abs(val - want) < 1e-12


@pytest.mark.parametrize("basis", [Basis.COSINE_PI, Basis.SINE_PI, Basis.TRIG_FULL])
def test_norm_sq_is_parseval(basis):
    sig = random_signal(basis, 9)
    assert abs(sig.norm_sq - norm_sq_quadrature(sig)) < 1e-10 * max(1, sig.norm_sq)


@pytest.mark.parametrize("basis", [Basis.COSINE_PI, Basis.SINE_PI, Basis.TRIG_FULL])
def test_cdf_offset_matches_quadrature(basis):
    """The closed-form antiderivative equals numerically integrated f."""
    sig = random_signal(basis, 7)
    for x in (0.1, 0.37, 0.5, 0.925, 1.0):
        num = gauss01(lambda t: eval_signal(sig, x * t), pieces=64) * x
        assert abs(float(cdf_offset(sig, x)) - num) < 1e-12


def test_cdf_offset_zero_at_endpoints_for_density_bases():
    # cos(pi j t) and the full trig system integrate to zero over (0,1)
    for basis in (Basis.COSINE_PI, Basis.TRIG_FULL):
        sig = random_signal(basis, 8)
        assert float(cdf_offset(sig, 0.0)) == 0.0
        assert abs(float(cdf_offset(sig, 1.0))) < 1e-12


def test_evaluate_rejects_boundary():
    sig = random_signal(Basis.COSINE_PI, 3)
    with pytest.raises(ValidationError):
        evaluate(sig, 0.0)
    with pytest.raises(ValidationError):
        evaluate(sig, np.array([0.5, 1.0]))


def test_evaluate_names_nan_outside_domain():
    sig = random_signal(Basis.COSINE_PI, 3)
    with pytest.raises(ValidationError, match=re.escape("t outside (0,1): [nan]")):
        evaluate(sig, float("nan"))
    with pytest.raises(ValidationError,
                       match=re.escape("t outside (0,1): [nan, 1.0]")):
        evaluate(sig, np.array([0.5, np.nan, 1.0]))


def test_signal_shapes_validated():
    with pytest.raises(ValidationError):
        SignalSpec(Basis.COSINE_PI, np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        SignalSpec(Basis.TRIG_FULL, np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        SignalSpec(Basis.COSINE_PI, np.array([1.0, np.nan]))


def test_trig_full_accepts_cos_column():
    sig = SignalSpec(Basis.TRIG_FULL, np.array([0.3, 0.0, 0.1]))
    assert sig.coeffs.shape == (3, 2)
    assert sig.coeffs[0, 0] == 0.3 and sig.coeffs[0, 1] == 0.0


def test_exponential_round_trip_and_mass():
    sig = random_signal(Basis.TRIG_FULL, 6)
    j_index, theta = to_exponential(sig)
    assert j_index[0] == -6 and j_index[-1] == 6
    assert abs(theta[6]) == 0.0
    # mass per frequency preserved
    energy = sig.index_energy()
    for j in range(1, 7):
        mass = abs(theta[6 + j]) ** 2 + abs(theta[6 - j]) ** 2
        assert abs(mass - energy[j - 1]) < 1e-14
    back = from_exponential(j_index, theta)
    assert np.allclose(back.coeffs, sig.coeffs, atol=1e-14)


def test_exponential_pointwise_agreement():
    """Sum theta_j e^{2 pi i j t} reproduces the real signal pointwise."""
    sig = random_signal(Basis.TRIG_FULL, 5)
    j_index, theta = to_exponential(sig)
    t = np.linspace(0.05, 0.95, 17)
    rebuilt = np.real(np.exp(2j * math.pi * np.outer(t, j_index)) @ theta)
    assert np.allclose(rebuilt, eval_signal(sig, t), atol=1e-12)


def test_from_exponential_rejects_asymmetry():
    j_index = np.array([-1, 1])
    with pytest.raises(ValidationError):
        from_exponential(j_index, np.array([0.1 + 0j, 0.3 + 0j]))


def test_noise_model():
    nm = NoiseModel(sigma=2.0, n=100)
    assert nm.noise_scale == 0.2
    with pytest.raises(ValidationError):
        NoiseModel(sigma=0.0, n=10)
    with pytest.raises(ValidationError):
        NoiseModel(sigma=1.0, n=0)


def test_sample_sequence_model_shape_and_consumption():
    sig = random_signal(Basis.TRIG_FULL, 4)
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    y = sample_sequence_model(sig, NoiseModel(1.0, 400), rng1)
    xi = rng2.standard_normal((4, 2))
    assert np.allclose(y, sig.coeffs + 0.05 * xi)


def test_density_minimum_single_cosine():
    # f(t) = sqrt2 * c * cos(pi t) decreases on (0,1); min approaches 1 - sqrt2 c
    c = 0.5
    sig = SignalSpec(Basis.COSINE_PI, np.array([c]))
    mn, arg = density_minimum(sig)
    assert abs(mn - (1.0 - math.sqrt(2) * c)) < 1e-6
    assert arg > 0.999


def test_density_minimum_flat():
    mn, _ = density_minimum(SignalSpec(Basis.COSINE_PI, np.array([0.0])))
    assert mn == 1.0


@pytest.mark.parametrize("amplitude", [0.0, 1e-300])
def test_density_minimum_refines_flat_once(monkeypatch, amplitude):
    # A flat grid is one plateau: refined once, not once per cell.
    lanes = []
    minima = signals._bounded_minima

    def counting(fn, lo, hi):
        lanes.append(len(lo))
        return minima(fn, lo, hi)

    monkeypatch.setattr(signals, "_bounded_minima", counting)
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([amplitude])))
    assert dens.minimum == 1.0
    assert sum(lanes) <= 2


def test_density_spec_rejects_negative():
    with pytest.raises(DensityError) as exc:
        DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([1.2])))
    assert exc.value.minimum < 0.0


def test_density_cdf_monotone_and_normalized():
    sig = SignalSpec(Basis.COSINE_PI, np.array([0.4, -0.2, 0.1]))
    dens = DensitySpec(sig)
    x = np.linspace(0.0, 1.0, 257)
    F = dens.cdf(x)
    assert F[0] == 0.0 and abs(F[-1] - 1.0) < 1e-12
    assert np.all(np.diff(F) > 0.0)


def test_invert_cdf_round_trip():
    sig = SignalSpec(Basis.COSINE_PI, np.array([0.45, 0.3, -0.25]))
    dens = DensitySpec(sig)
    u = np.random.default_rng(3).random(4096)
    x = invert_cdf(dens, u)
    assert np.all((x > 0.0) & (x < 1.0))
    resid = np.abs(dens.cdf(x) - u)
    assert float(resid.max()) <= 1e-12


def test_invert_cdf_leaves_its_input_untouched():
    """The result is clipped in place into its own array, never into ``u``
    (a read-only array inverts the same)."""
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.45, -0.2])))
    u = np.random.default_rng(22).random((4, 64))
    u[0, :2] = [0.0, 1.0]
    keep = u.copy()
    x = invert_cdf(dens, u)
    assert np.array_equal(u, keep)
    assert not np.shares_memory(x, u)
    u.flags.writeable = False
    assert np.array_equal(invert_cdf(dens, u), x)


def test_invert_cdf_identity_for_uniform():
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.0])))
    u = np.array([0.01, 0.2, 0.5, 0.77, 0.999])
    assert np.allclose(invert_cdf(dens, u), u, atol=1e-12)


def test_sample_iid_consumes_exactly_size_uniforms():
    """sample_iid(rng) must equal invert_cdf applied to rng.random(size)."""
    sig = SignalSpec(Basis.COSINE_PI, np.array([0.3, -0.2]))
    dens = DensitySpec(sig)
    a = sample_iid(dens, 100, np.random.default_rng(11))
    b = invert_cdf(dens, np.random.default_rng(11).random(100))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("size", [-1, 2.5, np.float64(3.0), True, "3", None,
                                  (2, 3)])
def test_sample_iid_refuses_a_size_that_is_not_a_nonnegative_integer(size):
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.3])))
    with pytest.raises(ValidationError,
                       match="size must be a nonnegative integer"):
        sample_iid(dens, size, np.random.default_rng(1))


def test_sample_iid_takes_size_zero_and_numpy_integers():
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.3])))
    assert sample_iid(dens, 0, np.random.default_rng(1)).shape == (0,)
    assert np.array_equal(sample_iid(dens, np.int64(5), np.random.default_rng(1)),
                          sample_iid(dens, 5, np.random.default_rng(1)))


def test_sample_iid_distribution_ks():
    sig = SignalSpec(Basis.TRIG_FULL, np.array([[0.3, -0.2], [0.0, 0.15]]))
    dens = DensitySpec(sig)
    x = sample_iid(dens, 3000, np.random.default_rng(42))
    stat = stats.kstest(x, lambda v: dens.cdf(v))
    assert stat.pvalue > 0.01, stat


def test_signal_json_round_trip():
    for basis in (Basis.COSINE_PI, Basis.TRIG_FULL):
        sig = random_signal(basis, 3)
        back = signal_from_json(sig.to_json_dict())
        assert back.basis is sig.basis
        assert np.array_equal(back.coeffs, sig.coeffs)
    with pytest.raises(ValidationError):
        signal_from_json({"basis": "nope", "coeffs": [1.0]})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=8),
       st.sampled_from([Basis.COSINE_PI, Basis.TRIG_FULL]))
def test_density_perturbation_integrates_to_zero(coeffs, basis):
    sig = SignalSpec(basis, np.array(coeffs))
    assert abs(float(cdf_offset(sig, 1.0))) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=6))
def test_norm_is_coefficient_euclidean(coeffs):
    sig = SignalSpec(Basis.COSINE_PI, np.array(coeffs))
    assert math.isclose(sig.norm, float(np.linalg.norm(coeffs)), abs_tol=1e-12)


@st.composite
def inversion_densities(draw):
    """Densities on all three bases: low frequency, scaled so the minimum of
    1 + f lies in [0, 0.05], or one high-frequency term with j up to 300.
    SinePi uses even j only, where sin(pi j t) integrates to zero."""
    basis = draw(st.sampled_from(list(Basis)))
    step = 2 if basis is Basis.SINE_PI else 1
    trig = basis is Basis.TRIG_FULL
    if draw(st.booleans()):
        coeffs = np.zeros((step * 4, 2) if trig else step * 4)
        terms = slice(step - 1, None, step)
        size = coeffs[terms].size
        values = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
        coeffs[terms] = np.reshape(values, coeffs[terms].shape)
        low, _ = density_minimum(SignalSpec(basis, coeffs))
        assume(low < 0.5)
        coeffs *= (1.0 - draw(st.floats(0.0, 0.05))) / (1.0 - low)
    else:
        j = step * draw(st.integers(1, 300 // step))
        coeffs = np.zeros((j, 2) if trig else j)
        amp = draw(st.floats(-1.0, 1.0)) / SQRT2
        if trig:
            phase = draw(st.floats(0.0, 2.0 * math.pi))
            coeffs[j - 1] = (amp * math.cos(phase), amp * math.sin(phase))
        else:
            coeffs[j - 1] = amp
    return DensitySpec(SignalSpec(basis, coeffs))


def _uniforms(seed: int, size: int) -> np.ndarray:
    u = np.random.default_rng(seed).random(size)
    return np.concatenate([[0.0, 1.0 - 2.0 ** -53], u])


@settings(max_examples=30, deadline=None)
@given(inversion_densities(), st.integers(0, 2 ** 32 - 1))
def test_invert_cdf_tolerance_and_order(dens, seed):
    """|F(x) - u| <= INVCDF_TOL and 0 < x < 1 for every draw, the endpoints
    included, and F(x) and x are nondecreasing in sorted u."""
    u = np.sort(_uniforms(seed, 3000))
    x = invert_cdf(dens, u)
    F = dens.cdf(x)
    assert np.all((x > 0.0) & (x < 1.0))
    assert float(np.max(np.abs(F - u))) <= INVCDF_TOL
    apart = np.diff(u) > 2.0 * INVCDF_TOL
    assert np.all(np.diff(F)[apart] >= 0.0)
    assert np.all(np.diff(x)[apart] >= 0.0)


@settings(max_examples=20, deadline=None)
@given(inversion_densities(), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 400), st.integers(1, 64))
def test_invert_cdf_is_elementwise_across_chunks(dens, seed, cut, chunk):
    """Inverting a concatenation equals concatenating the inversions, at the
    default chunk size and at one that splits the input many times."""
    u = _uniforms(seed, 500)
    whole = invert_cdf(dens, u)
    assert np.array_equal(
        whole, np.concatenate([invert_cdf(dens, u[:cut]), invert_cdf(dens, u[cut:])]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "INVCDF_CHUNK", chunk)
        assert np.array_equal(invert_cdf(dens, u), whole)
        assert np.array_equal(invert_cdf(dens, u.reshape(2, -1)), whole.reshape(2, -1))


def test_density_spec_rejects_signal_without_unit_mass():
    """sin(pi j t) integrates to 2/(pi j) for odd j: 1 + f is no density."""
    with pytest.raises(ValidationError, match=r"mass 0\.5498"):
        DensitySpec(SignalSpec(Basis.SINE_PI, np.array([-0.5])))
    dens = DensitySpec(SignalSpec(Basis.SINE_PI, np.array([0.0, -0.5])))
    assert abs(float(dens.cdf(1.0)) - 1.0) <= signals.MASS_TOL


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Basis)), st.integers(1, 32),
       st.one_of(st.floats(-1.0, -1e-3), st.floats(1e-3, 1.0)),
       st.floats(0.0, 2.0 * math.pi))
def test_density_spec_minimum_of_one_term(basis, j, c, phase):
    """One term of size |c| has density minimum 1 - sqrt(2)|c| (TrigFull:
    c = (a, b) with sqrt(a^2 + b^2) = |c|); DensityError once that is below
    DENSITY_TOL. SinePi uses even j only, the others integrate to nonzero.
    Amplitudes below 1e-3 are left out: a numerically flat 1 + f makes every
    grid cell a local minimum, which is slow to refine but not wrong."""
    j = 2 * j if basis is Basis.SINE_PI else j
    coeffs = np.zeros((j, 2) if basis is Basis.TRIG_FULL else j)
    if basis is Basis.TRIG_FULL:
        coeffs[j - 1] = (c * math.cos(phase), c * math.sin(phase))
        analytic = 1.0 - SQRT2 * math.hypot(*coeffs[j - 1])
    else:
        coeffs[j - 1] = c
        analytic = 1.0 - SQRT2 * abs(c)
    # within 1e-9 of the cutoff the grid-refined minimum may land either side
    assume(abs(analytic - signals.DENSITY_TOL) > 1e-9)
    sig = SignalSpec(basis, coeffs)
    if analytic < signals.DENSITY_TOL:
        with pytest.raises(DensityError):
            DensitySpec(sig)
    else:
        assert abs(DensitySpec(sig).minimum - analytic) <= 1e-9


@pytest.mark.parametrize("bad", [1.5, -0.1, math.nan, math.inf, -math.inf])
def test_invert_cdf_rejects_uniforms_outside_unit_interval(bad):
    """A uniform outside [0, 1] (or nan) is refused before any Newton round,
    and the error names it."""
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.3])))
    with pytest.raises(ValidationError,
                       match=re.escape(f"u outside [0,1]: {[bad]}")):
        invert_cdf(dens, np.array([0.2, bad, 0.7]))


def test_invert_cdf_takes_both_endpoints():
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.3])))
    u = np.array([0.0, 1.0])
    x = invert_cdf(dens, u)
    assert np.all((x > 0.0) & (x < 1.0))
    assert float(np.max(np.abs(dens.cdf(x) - u))) <= INVCDF_TOL


def test_invert_cdf_converges_at_cell_midpoints():
    """A uniform equal to F at its CDF-grid cell's midpoint is done in the
    first round, from the cell tables, at that midpoint; the points beside
    it in the same call go on, each as if inverted alone."""
    dens = DensitySpec(SignalSpec(Basis.COSINE_PI, np.array([0.4, -0.2, 0.1])))
    mid = (np.arange(2048) + 0.5) / 2048
    at = mid[[0, 17, 1024, 2047]]
    u = np.concatenate([dens.cdf(at), np.random.default_rng(4).random(64)])
    u = np.random.default_rng(5).permutation(u)
    x = invert_cdf(dens, u)
    assert np.array_equal(np.sort(x[np.isin(u, dens.cdf(at))]), at)
    assert np.array_equal(x, np.concatenate([invert_cdf(dens, u[i:i + 1])
                                             for i in range(u.size)]))


def _pinned_densities():
    """A cvm_family(0.25) spike; a chi2_family(0.375) head-plus-spike with
    272 coefficient pairs; 1 + cos(3 pi t), whose minimum touches 0, so CDF
    grid points crowd where it does."""
    spike = alternatives.make_inconsistent(
        alternatives.cvm_family(0.25), [2.0], [4096], 1.0).signals[4096]
    family = alternatives.chi2_family(0.375)
    head = alternatives.make_consistent(family, 1.0, "lowest", [4096], 1.53)
    tail = alternatives.make_inconsistent(family, [4.25], [4096], 4.05)
    both = alternatives.combine(head, tail, kind="head-plus-spike").signals[4096]
    touches = SignalSpec(Basis.COSINE_PI, np.array([0.0, 0.0, 1.0 / SQRT2]))
    return {"cvm-spike": spike, "chi2-head-plus-spike": both,
            "touches-zero": touches}


# SHA-256 of invert_cdf's output bytes on 0, 1, 0.5, 1 - 2**-53, the least
# subnormal and 30 000 uniforms of substream(17, 1, 0), recorded when the
# bracket was found by np.searchsorted on the CDF grid.
PINNED_INVERSIONS = {
    "cvm-spike":
        "cad98a150b428b26ed9a97be90397d148e84c11c2e907243b76e1019ccc0a69e",
    "chi2-head-plus-spike":
        "d2265bd4fbfb33d13ed18c64020d5b0fc9505305e11330d1b594a7d5409edbd1",
    "touches-zero":
        "c051ec1fb2d88a09a532bebad42d8bc5de5606bb129c277c6f32338f6d988ede",
}


@pytest.mark.parametrize("name", sorted(PINNED_INVERSIONS))
def test_invert_cdf_bytes_pinned(name):
    dens = DensitySpec(_pinned_densities()[name])
    u = np.concatenate([[0.0, 1.0, 0.5, 1.0 - 2.0 ** -53, 5e-324],
                        substream(17, 1, 0).random(30000)])
    x = invert_cdf(dens, u)
    assert hashlib.sha256(x.tobytes()).hexdigest() == PINNED_INVERSIONS[name]


@settings(max_examples=30, deadline=None)
@given(inversion_densities(), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 600), st.integers(1, 64))
def test_invert_cdf_matches_masked_oracle(dens, seed, at_mid, chunk):
    """invert_cdf gives the bytes of the masked-copy loop (oracle) on the
    endpoints, on F at cell midpoints (done in the first round, from the
    tables) and on random uniforms, in any mix, at the default chunk size
    and at one that splits the input many times."""
    rng = np.random.default_rng(seed)
    mid_F = dens.inversion_tables()[2]
    u = np.concatenate([[0.0, 1.0, 0.5, 1.0 - 2.0 ** -53, 5e-324],
                        mid_F[rng.integers(0, mid_F.size, at_mid)],
                        rng.random(600)])
    u = rng.permutation(u)
    want = invert_cdf_masked(dens, u)
    assert invert_cdf(dens, u).tobytes() == want.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "INVCDF_CHUNK", chunk)
        assert invert_cdf(dens, u).tobytes() == want.tobytes()


@pytest.mark.parametrize("at_mid, first_F", [(40, 1040), (960, 80)])
def test_invert_cdf_done_points_wait_or_leave(monkeypatch, at_mid, first_F):
    """Points done in the first round (u = F at a cell midpoint) stay in the
    working arrays, their bracket collapsed onto x, while they are at most
    1/_INVCDF_COMPACT of them: the first F evaluation then takes every
    point. More of them are written out and dropped: it takes only the
    rest. Either way the bytes are the masked-copy loop's."""
    dens = DensitySpec(_pinned_densities()["cvm-spike"])
    mid_F = dens.inversion_tables()[2]
    rng = np.random.default_rng(at_mid)
    u = rng.permutation(np.concatenate([
        mid_F[rng.choice(mid_F.size, at_mid, replace=False)],
        rng.random(1040 - at_mid)]))
    want = invert_cdf_masked(dens, u)
    sizes = []

    def counting(signal, x, fn=signals.cdf_offset):
        sizes.append(np.size(x))
        return fn(signal, x)

    monkeypatch.setattr(signals, "cdf_offset", counting)
    assert invert_cdf(dens, u).tobytes() == want.tobytes()
    assert sizes[0] == first_F


@st.composite
def lookup_cases(draw):
    """A sorted table of 1 to 3000 entries and query points in [0, 1].

    Tables are uniform, tied (entries from a few values), clustered (many
    entries within 1e-9, so one bucket holds them) or on dyadic edges
    j / 2^k, some with entries below 0 or above 1. Queries are 0, 1, dyadic
    edges j / 2^k for every k a bucket count can take here, every entry and
    its neighbours one ulp away, and uniforms."""
    size = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "ties", "cluster", "edges"]))
    if kind == "uniform":
        table = rng.random(size)
    elif kind == "ties":
        table = rng.choice(rng.random(draw(st.integers(1, 8))), size)
    elif kind == "cluster":
        table = rng.random(size)
        crowd = rng.random(size) < draw(st.floats(0.1, 0.9))
        table[crowd] = rng.random() + 1e-9 * rng.random(int(crowd.sum()))
    else:
        k = rng.integers(0, 16, size)
        table = rng.integers(0, 2 ** k + 1) / 2.0 ** k
    if draw(st.booleans()):
        table[rng.random(size) < 0.05] += draw(st.sampled_from([-1.0, 1.0]))
    table = np.sort(table)
    k = np.arange(3, 16).repeat(40)
    edges = rng.integers(0, 2 ** k + 1) / 2.0 ** k
    x = np.concatenate([[0.0, 1.0], edges, table, np.nextafter(table, -1.0),
                        np.nextafter(table, 2.0), rng.random(1000)])
    return table, x[(x >= 0.0) & (x <= 1.0)]


@settings(max_examples=80, deadline=None)
@given(lookup_cases(), st.sampled_from(["left", "right"]))
def test_sorted_lookup_equals_searchsorted(case, side):
    table, x = case
    got = sorted_lookup(table, side)(x)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.searchsorted(table, x, side))


@pytest.mark.parametrize("side", ["left", "right"])
def test_sorted_lookup_searches_every_point_of_an_unsorted_table(side):
    """With no order to bucket on, the lookup is np.searchsorted itself,
    whatever that gives; a nan entry is out of order too."""
    x = np.random.default_rng(5).random(2000)
    x[:3] = 0.0, 1.0, 0.5
    for table in ([0.5, 0.2, 0.9], [0.1, np.nan, 0.6], [0.0, -1e-19, 0.5, 1.0]):
        table = np.array(table)
        assert np.array_equal(sorted_lookup(table, side)(x),
                              np.searchsorted(table, x, side))


def _minimum_densities():
    """The pinned inversion densities; amplitudes 0 and 1e-300 (flat grids);
    24 nonzero TrigFull pairs among 64 frequencies."""
    rng = np.random.default_rng(2024)
    pairs = np.zeros((64, 2))
    rows = rng.choice(64, 24, replace=False)
    pairs[rows] = rng.normal(0.0, 0.02, (24, 2))
    return {**_pinned_densities(),
            "flat": SignalSpec(Basis.COSINE_PI, np.array([0.0])),
            "flat-1e-300": SignalSpec(Basis.COSINE_PI, np.array([1e-300])),
            "trig-full-24-pairs": SignalSpec(Basis.TRIG_FULL, pairs)}


# density_minimum's (min, argmin), recorded when each grid-local minimum
# was refined by its own scipy.optimize.minimize_scalar call.
PINNED_MINIMA = {
    "cvm-spike": (0.8232233047033631, 0.06250000025612384),
    "chi2-head-plus-spike": (0.6512563781747522, 0.49816177242724324),
    "touches-zero": (0.0, 0.3333333333336536),
    "flat": (1.0, 0.0001220703125),
    "flat-1e-300": (1.0, 0.0001220703125),
    "trig-full-24-pairs": (0.7006200866109158, 0.5778387583272119),
}


@pytest.mark.parametrize("name", sorted(PINNED_MINIMA))
def test_density_minimum_pinned(name):
    assert density_minimum(_minimum_densities()[name]) == PINNED_MINIMA[name]


@st.composite
def bracket_cases(draw):
    """A function of t and brackets in [1e-12, 1 - 1e-12] to minimise it on.

    The function is 1 + f for a sparse f (up to six terms, j up to 64, on
    any basis, amplitudes down to 0), or that rounded to a multiple of
    2^-k, whose plateaus send Brent through its tie rules. The brackets are
    density_minimum's own, around each grid-local minimum, or random ones,
    points and the whole interval included."""
    basis = draw(st.sampled_from(list(Basis)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (64, 2) if basis is Basis.TRIG_FULL else (64,)
    coeffs = np.zeros(shape)
    terms = rng.choice(64, draw(st.integers(0, 6)), replace=False)
    coeffs[terms] = rng.normal(0.0, draw(st.sampled_from([1e-300, 1e-3, 0.1, 0.5])),
                               (terms.size,) + shape[1:])
    sig = SignalSpec(basis, coeffs)
    k = draw(st.sampled_from([None, 4, 12, 30]))

    def fn(t):
        v = 1.0 + signals._evaluate_interior(sig, t)
        return v if k is None else np.round(v * 2.0 ** k) / 2.0 ** k

    if draw(st.booleans()):
        t = (np.arange(signals.DENSITY_GRID) + 0.5) / signals.DENSITY_GRID
        vals = fn(t)
        padded = np.concatenate(([np.inf], vals, [np.inf]))
        cells = np.flatnonzero((vals < padded[:-2]) & (vals <= padded[2:]))[:200]
        edges = np.concatenate(([1e-12], t, [1.0 - 1e-12]))
        return fn, edges[cells], edges[cells + 2]
    ends = np.sort(1e-12 + (1.0 - 2e-12) * rng.random((40, 2)), axis=1)
    ends[0] = 1e-12, 1.0 - 1e-12
    ends[1] = ends[1, 0]
    return fn, ends[:, 0], ends[:, 1]


@settings(max_examples=60, deadline=None)
@given(bracket_cases())
def test_bounded_minima_equal_scipy_bounded_brent(case):
    """Every lane of the lockstep minimiser is scipy's minimize_scalar
    (method "bounded", xatol 1e-12) on that bracket, bit for bit."""
    fn, lo, hi = case
    x, f = signals._bounded_minima(fn, lo, hi)
    want_x, want_f = bounded_minima_scipy(fn, lo, hi)
    assert x.tobytes() == want_x.tobytes()
    assert f.tobytes() == want_f.tobytes()


def test_invert_cdf_builds_tables_once_per_density(monkeypatch):
    """Two inversions on one DensitySpec evaluate its CDF grid and cell
    tables once, and give the bytes of one call on the concatenated input."""
    sig = _pinned_densities()["chi2-head-plus-spike"]
    u = substream(17, 1, 0).random(800)
    want = invert_cdf(DensitySpec(sig), u)
    sizes = []

    def counting(signal, x, fn=signals.cdf_offset):
        sizes.append(np.size(x))
        return fn(signal, x)

    monkeypatch.setattr(signals, "cdf_offset", counting)
    dens = DensitySpec(sig)
    got = np.concatenate([invert_cdf(dens, u[:300]), invert_cdf(dens, u[300:])])
    assert sizes.count(signals.INVCDF_GRID + 1) == 1
    assert sizes.count(signals.INVCDF_GRID) == 1
    assert got.tobytes() == want.tobytes()


def test_concurrent_first_inversions_build_tables_once(monkeypatch):
    """Four threads (more than the cores) with a tiny switch interval make
    their first inversion on one DensitySpec at once: its CDF grid is
    evaluated once, and each thread gets the bytes of a lone call."""
    sig = _pinned_densities()["cvm-spike"]
    u = substream(17, 1, 0).random(4000)
    want = invert_cdf(DensitySpec(sig), u)
    grids = []

    def counting(signal, x, fn=signals.cdf_offset):
        if np.size(x) == signals.INVCDF_GRID + 1:
            grids.append(threading.get_ident())
            time.sleep(1e-3)  # hold the build open while the others arrive
        return fn(signal, x)

    monkeypatch.setattr(signals, "cdf_offset", counting)
    dens = DensitySpec(sig)
    start = threading.Barrier(4)

    def invert(_):
        start.wait(timeout=30)
        return invert_cdf(dens, u)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(invert, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(grids) == 1
    assert all(x.tobytes() == want.tobytes() for x in got)


def test_invert_cdf_evaluations_per_point(monkeypatch):
    """For a cvm spike on 65 536 uniforms, F is evaluated at most 2.25 times a
    point and the density at most 1.2 times, the CDF grid and the per-cell
    tables included: each point's first Newton round reads both from the
    tables at its cell's midpoint."""
    dens = DensitySpec(_pinned_densities()["cvm-spike"])
    u = substream(17, 1, 0).random(65536)
    counts = {}
    for name in ("cdf_offset", "_evaluate_interior"):
        def counting(signal, x, fn=getattr(signals, name), name=name):
            counts[name] = counts.get(name, 0) + np.size(x)
            return fn(signal, x)
        monkeypatch.setattr(signals, name, counting)
    invert_cdf(dens, u)
    assert counts["cdf_offset"] / u.size <= 2.25
    assert counts["_evaluate_interior"] / u.size <= 1.2
