"""Constructions of alternative sequences and their classification.

Sequences are indexed by sample size n; each entry is a signal whose norm
sits in a certified envelope c n^{-r} <= ||f_n|| <= C n^{-r}. The effective
dimension k_n of the paired test family decides where mass must sit:

* consistent constructions concentrate all mass strictly below c2 * k_n,
* inconsistent constructions place a spike at m_l = sep_l * k_n with the
  separation factors sep_l increasing along the sequence,
* spike-tail (maxiset escape) constructions choose (n_l, m_l) jointly so
  the smoothness seminorm blows up while every head functional vanishes.

The classifier never proves asymptotic statements; it evaluates finite-n
surrogates of the defining mass conditions and reports
threshold-parameterized verdicts with full evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .funclasses import besov_seminorm
from .quad import KappaProfile
from .rng import STREAM_FACTORY, substream
from .signals import Basis, SignalSpec, density_minimum, signal_from_json

MASS_PROFILES = ("lowest", "spread", "random")


@dataclass(frozen=True)
class FamilyRule:
    """A test family's rate, canonical basis, and effective-dimension rule."""

    name: str
    r: float
    basis: Basis
    k_of: object


def quad_family(profile: KappaProfile) -> FamilyRule:
    """k_n from the profile's exact cumulative definition."""
    return FamilyRule(name="quad", r=profile.r, basis=Basis.COSINE_PI,
                      k_of=lambda n: profile.k[n])


def kernel_family(r: float) -> FamilyRule:
    _check_rate(r)
    return FamilyRule(name="kernel", r=r, basis=Basis.TRIG_FULL,
                      k_of=lambda n: max(1, round(n ** (2.0 - 4.0 * r))))


def chi2_family(r: float) -> FamilyRule:
    _check_rate(r)
    s = r / (2.0 - 4.0 * r)
    return FamilyRule(name="chi2", r=r, basis=Basis.TRIG_FULL,
                      k_of=lambda n: max(1, round(n ** (2.0 / (1.0 + 4.0 * s)))))


def cvm_family(r: float) -> FamilyRule:
    _check_rate(r)
    return FamilyRule(name="cvm", r=r, basis=Basis.COSINE_PI,
                      k_of=lambda n: max(1, round(n ** ((1.0 - 2.0 * r) / 2.0))))


def fixed_family() -> FamilyRule:
    """Boundary rate r = 1/2: fixed weights, constant effective dimension."""
    return FamilyRule(name="fixed", r=0.5, basis=Basis.COSINE_PI, k_of=lambda n: 1)


def _check_rate(r: float):
    if not (0.0 < r < 0.5):
        raise ValidationError("rate r must lie in (0, 1/2)")


def smoothness_of(family: FamilyRule) -> float:
    """The smoothness s calibrated to the family's rate r."""
    r = family.r
    if family.name == "cvm":
        return 2.0 * r / (1.0 - 2.0 * r)
    return r / (2.0 - 4.0 * r)


@dataclass(frozen=True)
class AlternativeSequence:
    family: FamilyRule
    n_list: tuple[int, ...]
    signals: dict[int, SignalSpec]
    norm_lo: float
    norm_hi: float
    kind: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.n_list) == 0:
            raise ValidationError("empty n_list")
        if set(self.n_list) != set(self.signals):
            raise ValidationError("signals must cover n_list exactly")
        for n in self.n_list:
            norm = self.signals[n].norm
            scale = float(n) ** (-self.family.r)
            if not (self.norm_lo * scale * (1 - 1e-9) <= norm
                    <= self.norm_hi * scale * (1 + 1e-9)):
                raise ValidationError(
                    f"norm envelope violated at n={n}: "
                    f"{norm:.6g} outside [{self.norm_lo * scale:.6g}, "
                    f"{self.norm_hi * scale:.6g}]")

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.name,
            "r": self.family.r,
            "signals": [[int(n), self.signals[n].to_json_dict()]
                        for n in self.n_list],
            "norm_lo": self.norm_lo,
            "norm_hi": self.norm_hi,
            "kind": self.kind,
            "metadata": {k: v for k, v in self.metadata.items()
                         if isinstance(v, (int, float, str, list, tuple))},
        }


def sequence_from_json(obj: dict, profile: KappaProfile | None = None
                       ) -> AlternativeSequence:
    """Rebuild a sequence from the (n, SignalSpec) array serialization."""
    try:
        name = obj["family"]
        r = float(obj["r"])
        pairs = obj["signals"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed sequence object: {exc}") from exc
    if name == "quad":
        if profile is None:
            raise ValidationError("quad sequences need the weight profile for k_n")
        family = quad_family(profile)
    elif name == "kernel":
        family = kernel_family(r)
    elif name == "chi2":
        family = chi2_family(r)
    elif name == "cvm":
        family = cvm_family(r)
    elif name == "fixed":
        family = fixed_family()
    else:
        raise ValidationError(f"unknown family {name!r}")
    signals = {int(n): signal_from_json(sig) for n, sig in pairs}
    n_list = tuple(sorted(signals))
    norms = np.array([signals[n].norm * float(n) ** family.r for n in n_list])
    return AlternativeSequence(
        family=family, n_list=n_list, signals=signals,
        norm_lo=float(obj.get("norm_lo", norms.min())),
        norm_hi=float(obj.get("norm_hi", norms.max())),
        kind=str(obj.get("kind", "unknown")),
        metadata=dict(obj.get("metadata", {})))


def _band_top(c2: float, k_n: int) -> int:
    """Largest index strictly below c2 * k_n."""
    top = int(math.ceil(c2 * k_n)) - 1
    if math.isclose(c2 * k_n, round(c2 * k_n)):
        top = int(round(c2 * k_n)) - 1
    return top


def _make_signal(basis: Basis, support: np.ndarray,
                 values: np.ndarray) -> SignalSpec:
    """Values at the 1-based support; on TrigFull they are cosine coefficients."""
    coeffs = np.zeros(int(np.max(support)) if support.size else 1)
    coeffs[support - 1] = values
    return SignalSpec(basis, coeffs)


def make_consistent(family: FamilyRule, c2: float, mass_profile: str, n_list,
                    norm_const: float = 1.0, c1: float | None = None,
                    seed: int = 0) -> AlternativeSequence:
    """Head-concentrated sequence: all mass strictly below c2 * k_n.

    Norms are exactly norm_const * n^{-r}, so the head mass equals
    norm_const^2 * n^{-2r}; a requested head constant c1 > norm_const^2 is
    infeasible and rejected.
    """
    if mass_profile not in MASS_PROFILES:
        raise ValidationError(f"mass_profile must be one of {MASS_PROFILES}")
    if c2 <= 0 or norm_const <= 0:
        raise ValidationError("c2 and norm_const must be positive")
    if c1 is not None and c1 > norm_const ** 2 * (1 + 1e-12):
        raise ValidationError(
            f"infeasible envelope: head constant c1 = {c1} exceeds "
            f"norm_const^2 = {norm_const ** 2}")
    n_list = tuple(sorted(int(n) for n in n_list))
    signals = {}
    for n in n_list:
        k_n = family.k_of(n)
        top = _band_top(c2, k_n)
        if top < 1:
            raise ValidationError(f"empty band at n={n}: c2*k_n = {c2 * k_n}")
        norm = norm_const * float(n) ** (-family.r)
        if mass_profile == "lowest":
            support = np.array([1])
            values = np.array([norm])
        elif mass_profile == "spread":
            support = np.arange(1, top + 1)
            values = np.full(top, norm / math.sqrt(top))
        else:
            gen = substream(seed, STREAM_FACTORY, n)
            v = gen.standard_normal(top)
            v /= np.linalg.norm(v)
            support = np.arange(1, top + 1)
            values = norm * v
        signals[n] = _make_signal(family.basis, support, values)
    return AlternativeSequence(
        family=family, n_list=n_list, signals=signals,
        norm_lo=norm_const, norm_hi=norm_const, kind="consistent",
        metadata={"c2": c2, "mass_profile": mass_profile,
                  "c1": norm_const ** 2 if c1 is None else c1, "seed": seed})


def make_inconsistent(family: FamilyRule, growth_schedule, n_list,
                      norm_const: float = 1.0) -> AlternativeSequence:
    """Spikes escaping the head: support at m_l = ceil(sep_l * k_n).

    ``growth_schedule`` lists one separation factor per n; the achieved
    ratios m_l / k_n must strictly increase, otherwise the schedule does not
    diverge relative to k_n and the construction is rejected.
    """
    n_list = tuple(sorted(int(n) for n in n_list))
    seps = [float(s) for s in growth_schedule]
    if len(seps) != len(n_list):
        raise ValidationError("growth_schedule must align with n_list")
    signals = {}
    ratios = []
    spikes = {}
    for n, sep in zip(n_list, seps):
        if sep <= 1.0:
            raise ValidationError("separation factors must exceed 1")
        k_n = family.k_of(n)
        m_l = int(math.ceil(sep * k_n))
        spikes[n] = m_l
        ratios.append(m_l / k_n)
        norm = norm_const * float(n) ** (-family.r)
        signals[n] = _make_signal(family.basis, np.array([m_l]), np.array([norm]))
    if np.any(np.diff(ratios) <= 0.0):
        raise ValidationError(
            f"schedule not diverging relative to k_n: ratios {ratios}")
    return AlternativeSequence(
        family=family, n_list=n_list, signals=signals,
        norm_lo=norm_const, norm_hi=norm_const, kind="inconsistent",
        metadata={"separation": seps, "spikes": [spikes[n] for n in n_list]})


def spike_tail_schedule(r: float, s: float, m_list, C_list,
                        norm_const: float = 1.0) -> list[int]:
    """Sample sizes n_l solving the norm envelope for spike-tail entries.

    A spike at m_l with smoothness-s seminorm C_l has amplitude
    tau_l = sqrt(C_l) m_l^{-s}; the envelope ||f|| = norm_const * n^{-r}
    then pins n_l = (norm_const / tau_l)^{1/r}, rounded and floored at 2.
    """
    ns = []
    for m_l, C_l in zip(m_list, C_list):
        tau = math.sqrt(float(C_l)) * float(m_l) ** (-s)
        ns.append(max(2, int(round((norm_const / tau) ** (1.0 / r)))))
    return ns


def make_spike_tail(family: FamilyRule, m_list, C_list,
                    norm_const: float = 1.0) -> AlternativeSequence:
    """Maxiset-escape schedule: seminorms blow up, head functionals vanish.

    Each entry is a spike at m_l scaled so the smoothness-s seminorm equals
    roughly C_l (C_l increasing), with n_l solved from the norm envelope
    ||f|| = norm_const * n_l^{-r}. Under the family's calibrated s this
    forces m_l / k_{n_l} -> infinity.
    """
    s = smoothness_of(family)
    m_list = [int(m) for m in m_list]
    C_list = [float(C) for C in C_list]
    if len(m_list) != len(C_list):
        raise ValidationError("m_list and C_list must align")
    if np.any(np.diff(m_list) <= 0) or np.any(np.diff(C_list) <= 0):
        raise ValidationError("m_list and C_list must strictly increase")
    n_list = spike_tail_schedule(family.r, s, m_list, C_list, norm_const)
    if np.any(np.diff(n_list) <= 0):
        raise ValidationError("derived n_l must strictly increase; adjust the schedule")
    signals = {}
    seminorms = []
    for m_l, n_l in zip(m_list, n_list):
        norm = norm_const * float(n_l) ** (-family.r)
        sig = _make_signal(family.basis, np.array([m_l]), np.array([norm]))
        signals[n_l] = sig
        seminorms.append(besov_seminorm(sig, s))
    ratios = [m / family.k_of(n) for m, n in zip(m_list, n_list)]
    if np.any(np.diff(ratios) <= 0.0):
        raise ValidationError("m_l / k_n failed to diverge under this schedule")
    return AlternativeSequence(
        family=family, n_list=tuple(n_list), signals=signals,
        norm_lo=norm_const, norm_hi=norm_const, kind="spike-tail",
        metadata={"m_list": m_list, "C_list": C_list, "s": s,
                  "seminorms": seminorms})


def combine(a: AlternativeSequence, b: AlternativeSequence,
            kind: str = "sum") -> AlternativeSequence:
    """Coefficient-wise sum of two sequences over a shared family and n_list."""
    if a.family.basis is not b.family.basis or a.n_list != b.n_list:
        raise ValidationError("sequences must share basis and n_list to combine")
    signals = {}
    for n in a.n_list:
        ca, cb = a.signals[n].coeffs, b.signals[n].coeffs
        coeffs = np.zeros((max(ca.shape[0], cb.shape[0]),) + ca.shape[1:])
        coeffs[:ca.shape[0]] = ca
        coeffs[:cb.shape[0]] += cb
        signals[n] = SignalSpec(a.family.basis, coeffs)
    norms = np.array([signals[n].norm * float(n) ** a.family.r for n in a.n_list])
    return AlternativeSequence(
        family=a.family, n_list=a.n_list, signals=signals,
        norm_lo=float(norms.min()), norm_hi=float(norms.max()), kind=kind,
        metadata={"components": [a.kind, b.kind]})


def decompose(signal: SignalSpec, cutoff: float) -> tuple[SignalSpec, SignalSpec]:
    """Exact coordinate split: head carries indices strictly below cutoff.

    head + tail reproduces the signal coefficient-wise, and
    ||head||^2 + ||tail||^2 = ||signal||^2 holds exactly (disjoint supports).
    """
    if cutoff <= 0:
        raise ValidationError("cutoff must be positive")
    head = np.array(signal.coeffs)
    tail = np.array(signal.coeffs)
    j = np.arange(1, signal.J + 1)
    below = j < cutoff
    head[~below] = 0.0
    tail[below] = 0.0
    return SignalSpec(signal.basis, head), SignalSpec(signal.basis, tail)


@dataclass(frozen=True)
class ClassifyThresholds:
    """Finite-n surrogate thresholds; verdicts are parameterized by these."""

    c1: float = 0.5
    c2: float = 2.0
    eps: float = 0.05
    C1: float = 4.0

    def __post_init__(self):
        if min(self.c1, self.c2, self.eps, self.C1) <= 0:
            raise ValidationError("thresholds must be positive")
        if self.c1 <= self.eps:
            raise ValidationError("need c1 > eps so the verdict classes are disjoint")


@dataclass(frozen=True)
class Classification:
    verdict: str
    evidence: dict

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "evidence": self.evidence}


def classify(seq: AlternativeSequence,
             thresholds: ClassifyThresholds | None = None) -> Classification:
    """Evaluate the finite-n mass surrogates and report a verdict.

    Per stored n: head mass strictly below c2 k_n versus c1 n^{-2r}
    (consistency surrogate), the decay of that ratio below eps
    (inconsistency surrogate), and far-tail mass above C1 k_n versus
    eps n^{-2r} (purity surrogate). A verdict requires its surrogate to hold
    at every stored n; anything else is indeterminate.
    """
    th = thresholds or ClassifyThresholds()
    if len(seq.n_list) < 3:
        raise ValidationError("classification needs at least 3 stored n")
    r = seq.family.r
    rows = []
    head_ratios, far_ok, head_ok = [], [], []
    for n in seq.n_list:
        sig = seq.signals[n]
        k_n = seq.family.k_of(n)
        energy = sig.index_energy()
        j = np.arange(1, energy.size + 1)
        head = float(np.sum(energy[j < th.c2 * k_n]))
        far = float(np.sum(energy[j > th.C1 * k_n]))
        scale = float(n) ** (-2.0 * r)
        rows.append({"n": int(n), "k_n": int(k_n), "head_mass": head,
                     "head_ratio": head / scale, "far_tail": far,
                     "far_ratio": far / scale})
        head_ratios.append(head / scale)
        head_ok.append(head >= th.c1 * scale)
        far_ok.append(far <= th.eps * scale)
    ratios = np.array(head_ratios)
    decreasing = bool(np.all(np.diff(ratios) <= 1e-12 * max(1.0, ratios.max())))
    con3 = bool(decreasing and ratios[-1] <= th.eps)
    con2 = all(head_ok)
    con19 = all(far_ok)
    if con3:
        verdict = "inconsistent-witness"
    elif con2 and con19:
        verdict = "purely-consistent-witness"
    elif con2:
        verdict = "consistent-witness"
    else:
        verdict = "indeterminate"
    evidence = {
        "thresholds": {"c1": th.c1, "c2": th.c2, "eps": th.eps, "C1": th.C1},
        "rows": rows,
        "surrogates": {"consistency": con2, "inconsistency": con3,
                       "purity": con19},
    }
    return Classification(verdict=verdict, evidence=evidence)


def g1_report(seq: AlternativeSequence, c_eps: float, eps: float) -> dict:
    """Low-frequency gate for the omega-square family.

    Per n, evaluates n * Sum_{j < c_eps k_n} theta_j^2 / j^2 and compares it
    to eps; spike constructions beyond the band satisfy the gate exactly.
    """
    if seq.family.name != "cvm":
        raise ValidationError("the G1 gate applies to the cvm family")
    rows = []
    for n in seq.n_list:
        energy = seq.signals[n].index_energy()
        j = np.arange(1, energy.size + 1, dtype=float)
        k_n = seq.family.k_of(n)
        value = float(n * np.sum(energy[j < c_eps * k_n]
                                 / np.square(j[j < c_eps * k_n])))
        rows.append({"n": int(n), "k_n": int(k_n), "value": value,
                     "ok": bool(value < eps)})
    return {"c_eps": c_eps, "eps": eps, "rows": rows,
            "ok": all(row["ok"] for row in rows)}


@dataclass(frozen=True)
class DensitizeReport:
    seq: AlternativeSequence
    rows: dict
    ok: bool


def densitize(seq: AlternativeSequence) -> DensitizeReport:
    """Nonnegativity verdicts for 1 + f_n and its head/tail split at 2 k_n.

    Only the i.i.d.-sampling families carry density semantics.
    """
    if seq.family.name not in ("chi2", "cvm"):
        raise ValidationError("densitize applies to the chi2 and cvm families")
    rows = {}
    all_ok = True
    for n in seq.n_list:
        sig = seq.signals[n]
        head, tail = decompose(sig, 2.0 * seq.family.k_of(n))
        entry = {}
        for label, part in (("full", sig), ("head", head), ("tail", tail)):
            mn, arg = density_minimum(part)
            ok = bool(mn >= -1e-10)
            entry[label] = {"min": mn, "argmin": arg, "ok": ok}
            all_ok = all_ok and ok
        rows[int(n)] = entry
    return DensitizeReport(seq=seq, rows=rows, ok=all_ok)
