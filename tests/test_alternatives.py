"""Alternative-sequence constructions, classification, density checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniconsist.alternatives import (AlternativeSequence, ClassifyThresholds,
                                     chi2_family, classify, combine, cvm_family,
                                     decompose, densitize, fixed_family,
                                     g1_report, kernel_family,
                                     make_consistent, make_inconsistent,
                                     make_spike_tail, quad_family,
                                     sequence_from_json, smoothness_of,
                                     spike_tail_schedule)
from uniconsist.chi2 import Chi2Config
from uniconsist.errors import DensityError, ValidationError
from uniconsist.funclasses import (EllipsoidSet, FiniteBand, besov_seminorm,
                                   compactness_diagnostic, tail_bound_check)
from uniconsist.kernel import KernelTestConfig, builtin_kernel
from uniconsist.quad import build_profile, dimension_exponent
from uniconsist.signals import DENSITY_TOL, Basis, DensitySpec, SignalSpec

N_LIST = (64, 256, 1024, 4096)


def cvm_fam(r=0.25):
    return cvm_family(r)


def test_family_rules():
    assert cvm_family(0.25).k_of(65536) == 16  # n^{(1-2r)/2} = n^{1/4}
    assert chi2_family(0.375).k_of(1024) == 32  # n^{1/2}
    assert kernel_family(0.375).k_of(1024) == 32  # n^{2-4r}
    assert fixed_family().k_of(10 ** 9) == 1
    with pytest.raises(ValidationError):
        cvm_family(0.5)
    with pytest.raises(ValidationError):
        kernel_family(0.0)


def test_quad_family_uses_profile_k():
    prof = build_profile(r=0.3, gamma=2.0, c=1.0, J=2048, n_list=[64, 256])
    fam = quad_family(prof)
    assert fam.k_of(64) == prof.k[64] and fam.k_of(256) == prof.k[256]
    assert fam.basis is Basis.COSINE_PI


def test_smoothness_calibrations():
    assert smoothness_of(cvm_family(0.25)) == pytest.approx(2 * 0.25 / 0.5)
    assert smoothness_of(chi2_family(0.375)) == pytest.approx(0.375 / 0.5)
    # round trip r = 2s/(1+4s) for the quadratic calibration
    fam = chi2_family(0.3)
    s = smoothness_of(fam)
    assert 2 * s / (1 + 4 * s) == pytest.approx(0.3)


def test_make_consistent_exact_norms_and_band():
    for profile_kind in ("lowest", "spread", "random"):
        seq = make_consistent(cvm_fam(), c2=1.0, mass_profile=profile_kind,
                              n_list=N_LIST, norm_const=1.3, seed=5)
        assert seq.kind == "consistent"
        for n in N_LIST:
            sig = seq.signals[n]
            assert sig.norm == pytest.approx(1.3 * n ** -0.25, rel=1e-12)
            k_n = seq.family.k_of(n)
            energy = sig.index_energy()
            j = np.arange(1, energy.size + 1)
            assert float(np.sum(energy[j >= 1.0 * k_n])) == 0.0


def test_make_consistent_seed_controls_random_profile():
    a = make_consistent(cvm_fam(), 1.0, "random", N_LIST, seed=1)
    b = make_consistent(cvm_fam(), 1.0, "random", N_LIST, seed=1)
    c = make_consistent(cvm_fam(), 1.0, "random", N_LIST, seed=2)
    assert np.array_equal(a.signals[64].coeffs, b.signals[64].coeffs)
    assert not np.array_equal(a.signals[64].coeffs, c.signals[64].coeffs)


def test_make_consistent_validations():
    with pytest.raises(ValidationError):
        make_consistent(cvm_fam(), 1.0, "banded", N_LIST)
    with pytest.raises(ValidationError):
        make_consistent(cvm_fam(), -1.0, "lowest", N_LIST)
    # empty band: c2 k_n <= 1 at the smallest n
    with pytest.raises(ValidationError):
        make_consistent(cvm_fam(), 0.2, "spread", (16, 64, 256))


def test_make_inconsistent_spikes():
    seq = make_inconsistent(cvm_fam(), growth_schedule=[2, 3, 5, 8],
                            n_list=N_LIST, norm_const=0.9)
    assert seq.kind == "inconsistent"
    assert seq.metadata["separation"] == [2.0, 3.0, 5.0, 8.0]
    for n, m_l in zip(N_LIST, seq.metadata["spikes"]):
        sig = seq.signals[n]
        k_n = seq.family.k_of(n)
        assert m_l == math.ceil(seq.metadata["separation"][N_LIST.index(n)] * k_n)
        energy = sig.index_energy()
        assert np.flatnonzero(energy).tolist() == [m_l - 1]
        assert sig.norm == pytest.approx(0.9 * n ** -0.25, rel=1e-12)


def test_make_inconsistent_validations():
    with pytest.raises(ValidationError):
        make_inconsistent(cvm_fam(), [2, 3], N_LIST)
    with pytest.raises(ValidationError):
        make_inconsistent(cvm_fam(), [0.5, 2, 3, 4], N_LIST)
    # constant separations: ratios m_l / k_n fail to increase strictly
    with pytest.raises(ValidationError):
        make_inconsistent(cvm_fam(), [2, 2, 2, 2], N_LIST)
    # a zero or negative norm constant would give spikes of amplitude <= 0
    for norm_const in (0.0, -0.5):
        with pytest.raises(ValidationError, match="norm_const"):
            make_inconsistent(cvm_fam(), [2, 3, 5, 8], N_LIST, norm_const=norm_const)


def _repeated_sequence():
    sig = make_consistent(cvm_fam(), 1.0, "lowest", [64]).signals[64]
    return AlternativeSequence(family=cvm_fam(), n_list=(64, 64),
                               signals={64: sig}, norm_lo=1.0, norm_hi=1.0,
                               kind="consistent")


def _repeated_pair():
    obj = make_consistent(cvm_fam(), 1.0, "lowest", [64, 128]).to_json_dict()
    del obj["norm_lo"], obj["norm_hi"]  # no envelope to catch it
    obj["signals"].append([64, obj["signals"][1][1]])
    return sequence_from_json(obj)


@pytest.mark.parametrize("build", [
    lambda: make_inconsistent(cvm_fam(), [2.0, 3.0], [64, 64]),
    lambda: make_consistent(cvm_fam(), 1.0, "lowest", [64, 64, 128]),
    _repeated_sequence, _repeated_pair,
], ids=["make_inconsistent", "make_consistent", "AlternativeSequence",
        "sequence_from_json"])
def test_repeated_n_refused(build):
    # a second entry at the same n would silently replace the first signal
    with pytest.raises(ValidationError, match="n_list repeats n = 64"):
        build()


@pytest.mark.parametrize("args", [
    dict(r=0.0), dict(r=-0.25), dict(s=0.0), dict(norm_const=0.0),
    dict(norm_const=-1.0), dict(C_list=[1.0, 0.0]), dict(C_list=[-1.0, 2.0]),
    dict(m_list=[0, 64]), dict(C_list=[1.0]), dict(r=0.001, m_list=[16, 1024]),
], ids=["r-zero", "r-negative", "s-zero", "norm-zero", "norm-negative",
        "C-zero", "C-negative", "m-zero", "unaligned", "n-overflow"])
def test_spike_tail_schedule_refuses_bad_inputs(args):
    """A bad input, or an n_l past the float range, raises ValidationError,
    never a bare ValueError, ZeroDivisionError or OverflowError."""
    call = dict(r=0.25, s=0.25, m_list=[16, 64], C_list=[1.0, 2.0],
                norm_const=1.0) | args
    with pytest.raises(ValidationError):
        spike_tail_schedule(**call)


_MEMBER = SignalSpec(Basis.COSINE_PI, np.array([0.3, 0.1]))

# One scalar argument of each guard, as a function of the value passed there.
_SCALAR_GUARDS = {
    "build_profile.c": lambda x: build_profile(0.3, 2.0, x, 64, [16]),
    "build_profile.sigma": lambda x: build_profile(0.3, 2.0, 1.0, 64, [16], sigma=x),
    "make_consistent.c2": lambda x: make_consistent(cvm_fam(), x, "lowest", N_LIST),
    "make_consistent.norm_const": lambda x: make_consistent(
        cvm_fam(), 1.0, "lowest", N_LIST, norm_const=x),
    "make_inconsistent.separation": lambda x: make_inconsistent(
        cvm_fam(), [2, 3, 5, x], N_LIST),
    "make_inconsistent.norm_const": lambda x: make_inconsistent(
        cvm_fam(), [2, 3, 5, 8], N_LIST, norm_const=x),
    "make_spike_tail.norm_const": lambda x: make_spike_tail(
        cvm_fam(), [16, 64], [1.0, 2.0], norm_const=x),
    "make_spike_tail.C_list": lambda x: make_spike_tail(cvm_fam(), [16, 64], [1.0, x]),
    "spike_tail_schedule.r": lambda x: spike_tail_schedule(x, 0.25, [16, 64], [1.0, 2.0]),
    "spike_tail_schedule.s": lambda x: spike_tail_schedule(0.25, x, [16, 64], [1.0, 2.0]),
    "spike_tail_schedule.norm_const": lambda x: spike_tail_schedule(
        0.25, 0.25, [16, 64], [1.0, 2.0], norm_const=x),
    "spike_tail_schedule.C_list": lambda x: spike_tail_schedule(
        0.25, 0.25, [16, 64], [x, 2.0]),
    "tail_bound_check.C1": lambda x: tail_bound_check(_MEMBER, 0.5, 10.0, 0.25, 64, C1=x),
    "compactness_diagnostic.epsilon": lambda x: compactness_diagnostic(
        EllipsoidSet(np.array([3.0, 1.0])), x),
    "FiniteBand.P0": lambda x: FiniteBand(1, x),
    "decompose.cutoff": lambda x: decompose(_MEMBER, x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("guard", sorted(_SCALAR_GUARDS))
def test_scalar_guards_refuse_values_that_are_not_finite(guard, value):
    with pytest.raises(ValidationError):
        _SCALAR_GUARDS[guard](value)


def test_spike_tail_schedule_formula():
    r, s = 0.25, 0.25
    m_list = [16, 64]
    C_list = [1.0, 2.0]
    ns = spike_tail_schedule(r, s, m_list, C_list, norm_const=1.0)
    for m, C, n in zip(m_list, C_list, ns):
        tau = math.sqrt(C) * m ** -s
        assert n == max(2, round((1.0 / tau) ** (1 / r)))


def test_make_spike_tail():
    fam = cvm_fam(0.25)
    seq = make_spike_tail(fam, m_list=[16, 64, 256, 1024],
                          C_list=[1.0, 1.5, 2.25, 3.375], norm_const=1.0)
    assert seq.kind == "spike-tail"
    s = seq.metadata["s"]
    assert s == pytest.approx(smoothness_of(fam))
    # seminorms track the requested C_l (spike seminorm = m^{2s} tau^2)
    for C_l, sem in zip(seq.metadata["C_list"], seq.metadata["seminorms"]):
        assert sem == pytest.approx(C_l, rel=0.2)
    sems = seq.metadata["seminorms"]
    assert all(b > a for a, b in zip(sems, sems[1:]))
    for n in seq.n_list:
        assert besov_seminorm(seq.signals[n], s) == pytest.approx(
            seq.metadata["seminorms"][list(seq.n_list).index(n)])
    with pytest.raises(ValidationError):
        make_spike_tail(fam, m_list=[16, 8], C_list=[1.0, 2.0])
    with pytest.raises(ValidationError):
        make_spike_tail(fam, m_list=[16], C_list=[1.0, 2.0])


def test_combine_and_decompose_pythagoras():
    head = make_consistent(cvm_fam(), 1.0, "spread", N_LIST, norm_const=1.0)
    tail = make_inconsistent(cvm_fam(), [2, 3, 5, 8], N_LIST, norm_const=0.75)
    comb = combine(head, tail)
    assert comb.metadata["components"] == ["consistent", "inconsistent"]
    for n in N_LIST:
        hs, ts = head.signals[n], tail.signals[n]
        cs = comb.signals[n]
        assert cs.norm_sq == pytest.approx(hs.norm_sq + ts.norm_sq, rel=1e-12)
        back_h, back_t = decompose(cs, cutoff=1.0 * cvm_fam().k_of(n) + 0.5)
        assert back_h.norm_sq + back_t.norm_sq == pytest.approx(cs.norm_sq,
                                                                abs=1e-15)
        assert np.allclose(back_h.coeffs + back_t.coeffs, cs.coeffs, atol=0.0)


def test_decompose_three_four_five():
    sig = SignalSpec(Basis.COSINE_PI, np.array([3.0, 0.0, 4.0]))
    head, tail = decompose(sig, cutoff=2.0)
    assert head.norm == 3.0
    assert tail.norm == 4.0
    assert sig.norm == 5.0
    with pytest.raises(ValidationError):
        decompose(sig, cutoff=0.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=12),
       st.floats(0.5, 12.0))
def test_decompose_pythagoras_property(coeffs, cutoff):
    sig = SignalSpec(Basis.COSINE_PI, np.array(coeffs))
    head, tail = decompose(sig, cutoff)
    assert head.norm_sq + tail.norm_sq == pytest.approx(sig.norm_sq,
                                                        rel=1e-15, abs=1e-15)


def test_combine_requires_shared_shape():
    a = make_consistent(cvm_fam(), 1.0, "spread", N_LIST)
    b = make_consistent(cvm_fam(), 1.0, "spread", (64, 256, 1024))
    with pytest.raises(ValidationError):
        combine(a, b)
    c = make_consistent(chi2_family(0.375), 1.0, "spread", N_LIST)
    with pytest.raises(ValidationError):
        combine(a, c)


def test_classify_consistent_and_pure():
    seq = make_consistent(cvm_fam(), 1.0, "spread", N_LIST, norm_const=1.0)
    cls = classify(seq)
    # all mass below c2 k_n and zero far tail: purity surrogate holds too
    assert cls.verdict == "purely-consistent-witness"
    assert cls.evidence["surrogates"]["consistency"]
    assert cls.evidence["surrogates"]["purity"]
    assert not cls.evidence["surrogates"]["inconsistency"]
    rows = cls.evidence["rows"]
    assert [row["n"] for row in rows] == list(N_LIST)
    for row in rows:
        assert row["head_ratio"] == pytest.approx(1.0, rel=1e-9)
        assert row["far_tail"] == 0.0


def test_classify_inconsistent():
    seq = make_inconsistent(cvm_fam(), [2, 3, 5, 8], N_LIST)
    cls = classify(seq)
    assert cls.verdict == "inconsistent-witness"
    ratios = [row["head_ratio"] for row in cls.evidence["rows"]]
    assert all(r == 0.0 for r in ratios)


def test_classify_sum_with_comparable_norms():
    """Head + escaping spike of comparable size: consistent but not pure."""
    head = make_consistent(cvm_fam(), 1.0, "spread", N_LIST, norm_const=1.0)
    spike = make_inconsistent(cvm_fam(), [5, 6, 8, 12], N_LIST, norm_const=0.8)
    comb = combine(head, spike)
    cls = classify(comb)
    assert cls.verdict == "consistent-witness"
    assert cls.evidence["surrogates"]["consistency"]
    assert not cls.evidence["surrogates"]["purity"]


def test_classify_threshold_parameterization():
    """The same sequence flips verdict when the far-tail budget moves."""
    head = make_consistent(cvm_fam(), 1.0, "spread", N_LIST, norm_const=1.0)
    spike = make_inconsistent(cvm_fam(), [5, 6, 8, 12], N_LIST, norm_const=0.1)
    comb = combine(head, spike)
    strict = classify(comb, ClassifyThresholds(c1=0.5, c2=2.0, eps=0.005, C1=4.0))
    loose = classify(comb, ClassifyThresholds(c1=0.5, c2=2.0, eps=0.05, C1=4.0))
    # spike mass ratio is 0.01: above eps=0.005, below eps=0.05
    assert strict.verdict == "consistent-witness"
    assert loose.verdict == "purely-consistent-witness"


def test_classify_validations():
    seq = make_consistent(cvm_fam(), 1.0, "spread", (64, 256))
    with pytest.raises(ValidationError):
        classify(seq)
    with pytest.raises(ValidationError):
        ClassifyThresholds(c1=0.05, eps=0.1)
    with pytest.raises(ValidationError):
        ClassifyThresholds(c1=-1.0)


def test_classification_json():
    seq = make_inconsistent(cvm_fam(), [2, 3, 5, 8], N_LIST)
    d = classify(seq).to_json_dict()
    assert d["verdict"] == "inconsistent-witness"
    assert "rows" in d["evidence"]


def test_g1_report_gates():
    spikes = make_inconsistent(cvm_fam(), [2, 3, 5, 8], N_LIST)
    rep = g1_report(spikes, c_eps=1.0, eps=0.05)
    assert rep["ok"]
    for row in rep["rows"]:
        assert row["value"] == 0.0
    low = make_consistent(cvm_fam(), 1.0, "lowest", N_LIST, norm_const=1.0)
    rep_low = g1_report(low, c_eps=1.0, eps=0.05)
    # all mass at j = 1: value = n * norm^2 = n^{1/2}, gate fails
    assert not rep_low["ok"]
    for n, row in zip(N_LIST, rep_low["rows"]):
        assert row["value"] == pytest.approx(math.sqrt(n), rel=1e-9)
    with pytest.raises(ValidationError):
        g1_report(make_consistent(chi2_family(0.3), 1.0, "lowest", N_LIST),
                  c_eps=1.0, eps=0.05)


def test_densitize_families_and_verdicts():
    ok_seq = make_consistent(cvm_fam(), 1.0, "lowest", N_LIST, norm_const=0.5)
    rep = densitize(ok_seq)
    assert rep.ok
    for n in N_LIST:
        assert rep.rows[n]["full"]["ok"]
        assert rep.rows[n]["tail"]["min"] == 1.0  # zero tail part
    # norm_const above sqrt(2)/2... a j=1 cosine with amplitude 1.2 dips negative
    bad = AlternativeSequence(
        family=cvm_fam(), n_list=(64,),
        signals={64: SignalSpec(Basis.COSINE_PI, np.array([1.2 * 64 ** -0.25]))},
        norm_lo=1.2, norm_hi=1.2, kind="consistent")
    # the scaled amplitude is small, so this one stays a density
    assert densitize(bad).ok
    tall = AlternativeSequence(
        family=cvm_fam(), n_list=(64,),
        signals={64: SignalSpec(Basis.COSINE_PI, np.array([1.2]))},
        norm_lo=1.2 * 64 ** 0.25, norm_hi=1.2 * 64 ** 0.25, kind="raw")
    rep_bad = densitize(tall)
    assert not rep_bad.ok
    assert rep_bad.rows[64]["full"]["min"] == pytest.approx(1 - 1.2 * math.sqrt(2),
                                                            abs=1e-4)
    with pytest.raises(ValidationError):
        densitize(make_consistent(kernel_family(0.3), 1.0, "lowest", N_LIST))


@pytest.mark.parametrize("gap", [1e-7, -1e-7], ids=["above", "below"])
def test_densitize_agrees_with_density_spec_at_tolerance(gap):
    """A one-term cosine whose minimum 1 - sqrt(2) c sits just above or just
    below DENSITY_TOL: densitize passes it exactly when DensitySpec accepts it."""
    c = (1.0 - DENSITY_TOL - gap) / math.sqrt(2.0)
    sig = SignalSpec(Basis.COSINE_PI, np.array([c]))
    seq = AlternativeSequence(family=cvm_fam(), n_list=(64,), signals={64: sig},
                              norm_lo=c * 64 ** 0.25, norm_hi=c * 64 ** 0.25,
                              kind="raw")
    try:
        DensitySpec(sig)
        accepted = True
    except DensityError:
        accepted = False
    assert accepted == (gap > 0)
    assert densitize(seq).rows[64]["full"]["ok"] == accepted


# densitize rows of the interaction suite's chi2 head-plus-spike sequence:
# (min, argmin) of 1 + f for the full signal, its head and its tail, recorded
# when each grid-local minimum was refined by its own
# scipy.optimize.minimize_scalar call.
PINNED_DENSITIZE = {
    1024: {"full": (0.41397039234057786, 0.48750294672359556),
           "head": (0.41397039234057786, 0.48750294672359556),
           "tail": (1.0, 0.0001220703125)},
    2048: {"full": (0.5477860188126988, 0.49509821679459953),
           "head": (0.8759897175864972, 0.500000000004056),
           "tail": (0.6717374877289631, 0.0049019607844113106)},
    4096: {"full": (0.6512563781747522, 0.49816177242724324),
           "head": (0.904375, 0.500000000003894),
           "tail": (0.746875, 0.0018382352905768754)},
}


def test_densitize_rows_pinned():
    family, n_list = chi2_family(0.375), [1024, 2048, 4096]
    head = make_consistent(family, 1.0, "lowest", n_list, 1.53)
    spike = make_inconsistent(family, [1.25, 2.25, 4.25], n_list, 4.05)
    rep = densitize(combine(head, spike, kind="head-plus-spike"))
    assert rep.ok
    assert {n: {part: (row["min"], row["argmin"]) for part, row in entry.items()}
            for n, entry in rep.rows.items()} == PINNED_DENSITIZE


def test_sequence_json_round_trip():
    seq = make_inconsistent(cvm_fam(), [2, 3, 5, 8], N_LIST, norm_const=0.7)
    obj = seq.to_json_dict()
    back = sequence_from_json(obj)
    assert back.n_list == seq.n_list
    assert back.kind == "inconsistent"
    assert back.family.name == "cvm"
    for n in N_LIST:
        assert np.array_equal(back.signals[n].coeffs, seq.signals[n].coeffs)
    prof = build_profile(r=0.3, gamma=2.0, c=1.0, J=4096, n_list=list(N_LIST))
    qseq = make_consistent(quad_family(prof), 1.0, "spread", N_LIST)
    qobj = qseq.to_json_dict()
    with pytest.raises(ValidationError):
        sequence_from_json(qobj)
    qback = sequence_from_json(qobj, profile=prof)
    assert qback.family.name == "quad"
    with pytest.raises(ValidationError):
        sequence_from_json({"family": "nope", "r": 0.2, "signals": []})
    with pytest.raises(ValidationError):
        sequence_from_json({})


def test_alternative_sequence_envelope_enforced():
    with pytest.raises(ValidationError):
        AlternativeSequence(
            family=cvm_fam(), n_list=(64, 256, 1024),
            signals={
                64: SignalSpec(Basis.COSINE_PI, np.array([1.0])),
                256: SignalSpec(Basis.COSINE_PI, np.array([1.0])),
                1024: SignalSpec(Basis.COSINE_PI, np.array([1.0]))},
            norm_lo=1.0, norm_hi=1.0, kind="raw")
    with pytest.raises(ValidationError):
        AlternativeSequence(family=cvm_fam(), n_list=(64,), signals={},
                            norm_lo=1.0, norm_hi=1.0, kind="raw")


# One calibration: every family's rate check and exponent come from
# quad.dimension_exponent, so k_n, the chi2 cell count and the kernel
# bandwidth cannot drift apart.

_BAD_RATES = [0.0, 0.5, math.nan, -0.1]


@pytest.mark.parametrize("entry", [
    dimension_exponent, kernel_family, chi2_family, cvm_family,
    lambda r: Chi2Config(0.05, m_rule=(r, 1.0)),
    lambda r: KernelTestConfig(kernel=builtin_kernel("box"), alpha=0.05,
                               h_rule=(r, 1.0)),
    lambda r: build_profile(r=r, gamma=2.0, c=1.0, J=64, n_list=[64]),
], ids=["dimension_exponent", "kernel_family", "chi2_family", "cvm_family",
        "Chi2Config", "KernelTestConfig", "build_profile"])
@pytest.mark.parametrize("r", _BAD_RATES, ids=["0", "0.5", "NaN", "-0.1"])
def test_every_rate_entry_refuses_r_outside_open_half(entry, r):
    with pytest.raises(ValidationError, match="rate r must lie in"):
        entry(r)


def test_fixed_family_has_no_smoothness():
    with pytest.raises(ValidationError, match="exponent 0"):
        smoothness_of(fixed_family())
    with pytest.raises(ValidationError, match="exponent 0"):
        make_spike_tail(fixed_family(), [4, 8], [1.0, 2.0])


def test_smoothness_is_rate_over_exponent():
    for fam in (kernel_family(0.3), chi2_family(0.3), cvm_family(0.3)):
        assert smoothness_of(fam) == fam.r / fam.exponent
    prof = build_profile(r=0.3, gamma=2.0, c=1.0, J=64, n_list=[64])
    assert quad_family(prof).exponent == dimension_exponent(0.3) == 2.0 - 1.2
    assert cvm_family(0.3).exponent == (1.0 - 0.6) / 2.0
    assert fixed_family().exponent == 0.0


@pytest.mark.parametrize("r", np.linspace(0.125, 0.45, 27).tolist())
def test_family_k_n_matches_cells_and_inverse_bandwidth(r):
    cells = Chi2Config(0.05, m_rule=(r, 1.0))
    kernel = KernelTestConfig(kernel=builtin_kernel("box"), alpha=0.05,
                              h_rule=(r, 1.0))
    for n in (16, 64, 100, 1000, 4096, 65536):
        assert chi2_family(r).k_of(n) == cells.cells(n)
        assert kernel_family(r).k_of(n) == round(1.0 / kernel.bandwidth(n))


@pytest.mark.parametrize("name", ["c1", "c2", "eps", "C1"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_thresholds_refuse_non_finite(name, value):
    with pytest.raises(ValidationError, match="positive and finite"):
        ClassifyThresholds(**{name: value})
