"""Canned experiment suites with CSV/JSON artifacts and pass/fail verdicts.

Every pass/fail threshold lives in the suite config (merged over the
defaults below), never in code. Asymptotic statements are exercised as
monotone trends plus endpoint tolerances at desk scale. Pairing: within a
suite all variants of a replicate share that replicate's noise draws, so
variant contrasts are common-random-number differences; this holds for
every suite below.

Monotone checks on Monte Carlo estimates allow a slack of twice the joint
standard error per step; exact (deterministic) indices are checked
strictly.

Scaffold: ``run_suite`` is the one place that merges a config over its
suite's defaults and builds the ``MCConfig`` (replicates, seed, threads);
it then calls the registered ``fn(cfg, mc)``. A suite never sees the thread
count, so threads cannot reach anything but the engine.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alternatives import (AlternativeSequence, ClassifyThresholds,
                           _make_signal, classify, combine, cvm_family,
                           chi2_family, g1_report, kernel_family,
                           make_consistent, make_inconsistent,
                           make_spike_tail, quad_family, spike_tail_schedule)
from .chi2 import Chi2Config, chi2_population, chi2_predicted_beta
from .cvm import (_J_NULL_MAX, bridge_weights, cvm_consistency_index,
                  weighted_chisq_quantile)
from .errors import ValidationError
from .funclasses import EllipsoidSet, compactness_diagnostic, greedy_widths
from .kernel import (KernelTestConfig, builtin_kernel, half_level_radius,
                     inconsistency_bandwidths, t1n)
from .mclab import (MCConfig, chi2_rejections, estimate_columns,
                    fixed_rejections, paired_excess, power_row,
                    quad_rejections)
from .quad import (FixedKappa, QuadTestConfig, build_profile, noncentrality,
                   predict_beta)
from .reports import JSON_KINDS, write_csv
from .rng import STREAM_FACTORY, substream
from .signals import DensitySpec


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    summary: dict
    tables: dict


def _jsonify(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def write_result(result: SuiteResult, out_dir) -> list[str]:
    """Write one CSV per table plus <name>_summary.json; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for table_name, (columns, rows) in result.tables.items():
        path = out / f"{table_name}.csv"
        write_csv(path, columns, rows)
        paths.append(str(path))
    payload = {"suite": result.name, "passed": result.passed, **result.summary}
    path = out / f"{result.name}_summary.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_jsonify) + "\n", encoding="utf-8")
    paths.append(str(path))
    return paths


def merge_config(default: dict, override: dict | None) -> dict:
    """A deep copy of the defaults with the override merged in at every depth.

    A key the defaults do not have, a value where the defaults hold a
    section (or the reverse), or a value whose JSON type differs from its
    default's (number, integer, string, or a list of the default's item kind)
    raises ValidationError naming its dotted path, so a misspelled key cannot
    silently leave its default in force. Values are not converted.
    """
    def check(default, value, path: str):
        items = isinstance(default, list)
        types, name = JSON_KINDS[type(default[0] if items else default)]
        values = value if items and isinstance(value, list) else [value]
        if items != isinstance(value, list) or any(
                isinstance(v, bool) or not isinstance(v, types) for v in values):
            name = f"a list, each item {name}" if items else name
            raise ValidationError(f"config key {path!r} must be {name}, "
                                  f"got {value!r}")

    def merge(base: dict, over: dict, prefix: str) -> dict:
        out = copy.deepcopy(base)
        for k, v in over.items():
            path = prefix + str(k)
            if k not in out:
                raise ValidationError(f"unknown config key {path!r}")
            if isinstance(out[k], dict) != isinstance(v, dict):
                kind = "a section" if isinstance(out[k], dict) else "a value"
                raise ValidationError(f"config key {path!r} must be {kind}")
            if isinstance(v, dict):
                out[k] = merge(out[k], v, path + ".")
            else:
                check(out[k], v, path)
                out[k] = copy.deepcopy(v)
        return out

    return merge(default, override or {}, "")


def _strictly_decreasing(values) -> bool:
    arr = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(arr) < 0.0))


def _decreasing_within_noise(values, std_errors) -> bool:
    """Nonincreasing up to a 2x joint-SE slack per step."""
    v = np.asarray(values, dtype=float)
    se = np.asarray(std_errors, dtype=float)
    for i in range(v.size - 1):
        if v[i + 1] > v[i] + 2.0 * (se[i] + se[i + 1]):
            return False
    return True


def _quad_setup(q: dict, alpha: float):
    """Profile, quad family and quad test of a config's ``quad`` section."""
    profile = build_profile(q["r"], q["gamma"], q["c"], q["J"], q["n_list"])
    return profile, quad_family(profile), QuadTestConfig(profile, alpha)


def _paired_gap(rej: np.ndarray):
    """Column estimates, |power(col 2) - power(col 1)| and its paired SE."""
    pe = paired_excess(rej, 2, 1)
    return estimate_columns(rej), abs(pe["difference"]), pe["std_error"]


CONSISTENCY_DEFAULT = {
    "seed": 11,
    "alpha": 0.05,
    "replicates": 2000,
    "quad": {"r": 0.3, "gamma": 2.0, "c": 1.0, "J": 8192,
             "n_list": [512, 1024, 2048, 4096],
             "c2": 1.0, "mass_profile": "spread", "norm_const": 1.62},
    "classify": {"c1": 0.5, "c2": 2.0, "eps": 0.05, "C1": 4.0},
    "thresholds": {"beta_margin": 0.1, "power_band": 0.05},
}


def _suite_consistency(cfg: dict, mc: MCConfig) -> SuiteResult:
    q = cfg["quad"]
    alpha = cfg["alpha"]
    profile, family, test = _quad_setup(q, alpha)
    seq = make_consistent(family, q["c2"], q["mass_profile"], q["n_list"],
                          q["norm_const"])
    rows = []
    for n in seq.n_list:
        r_n = noncentrality(seq.signals[n], profile, n)
        rows.append([n, profile.k[n], r_n, profile.A[n],
                     predict_beta(r_n, profile.A[n], test.x_alpha),
                     "", "", "", ""])
    # Monte Carlo at the largest n only; the other rows stay predictions.
    n = seq.n_list[-1]
    size_est, power_est = estimate_columns(
        quad_rejections(mc, test, n, [None, seq.signals[n]]))
    emp_beta_largest = 1.0 - power_est.estimate
    report = power_row(n, size_est.estimate, emp_beta_largest, rows[-1][4],
                       cfg["thresholds"]["power_band"])
    rows[-1][5:] = [size_est.estimate, emp_beta_largest, report["abs_gap"],
                    report["within_band"]]
    verdict = classify(seq, ClassifyThresholds(**cfg["classify"])).verdict
    beta_ok = emp_beta_largest <= 1.0 - alpha - cfg["thresholds"]["beta_margin"]
    consistent = ("consistent-witness", "purely-consistent-witness")
    passed = bool(beta_ok and verdict in consistent)
    summary = {
        "family": "quad",
        "thresholds": cfg["thresholds"],
        "verdict": verdict,
        "empirical_beta_largest_n": emp_beta_largest,
        "beta_requirement": 1.0 - alpha - cfg["thresholds"]["beta_margin"],
        "power_report": {"rows": [report]},
        "pairing": "variants share the replicate xi vector",
    }
    columns = ("n", "k_n", "R_n", "A_n", "predicted_beta",
               "empirical_alpha", "empirical_beta", "abs_gap", "within_band")
    return SuiteResult(name="consistency", passed=passed, summary=summary,
                       tables={"consistency_power": (columns, rows)})


INCONSISTENCY_DEFAULT = {
    "seed": 13,
    "alpha": 0.05,
    "replicates": 2000,
    "quad": {"r": 0.3, "gamma": 2.0, "c": 1.0, "J": 8192,
             "n_list": [512, 1024, 2048, 4096],
             "schedule": [2.0, 3.0, 5.0, 8.0], "norm_const": 1.8},
    "cvm": {"r": 0.25, "n_list": [256, 1024, 4096, 16384],
            "schedule": [2.0, 3.0, 5.0, 8.0], "norm_const": 1.0,
            "c_eps": 1.0, "eps_g1": 0.05},
    "classify": {"c1": 0.5, "c2": 2.0, "eps": 0.05, "C1": 4.0},
    "thresholds": {"power_excess": 0.05},
}


def _suite_inconsistency(cfg: dict, mc: MCConfig) -> SuiteResult:
    q = cfg["quad"]
    alpha = cfg["alpha"]
    profile, family, test = _quad_setup(q, alpha)
    seq = make_inconsistent(family, q["schedule"], q["n_list"], q["norm_const"])
    quad_rows = []
    r_values, excesses = [], []
    for n, spike in zip(seq.n_list, seq.metadata["spikes"]):
        sig = seq.signals[n]
        r_n = noncentrality(sig, profile, n)
        rej = quad_rejections(mc, test, n, [None, sig])
        size_est, power_est = estimate_columns(rej)
        excess = power_est.estimate - alpha
        r_values.append(r_n)
        excesses.append(excess)
        quad_rows.append([n, profile.k[n], spike, r_n, size_est.estimate,
                          power_est.estimate, excess])
    verdict = classify(seq, ClassifyThresholds(**cfg["classify"])).verdict

    cv = cfg["cvm"]
    cseq = make_inconsistent(cvm_family(cv["r"]), cv["schedule"],
                             cv["n_list"], cv["norm_const"])
    gate = g1_report(cseq, cv["c_eps"], cv["eps_g1"])
    cvm_rows = []
    indices = []
    for n, spike in zip(cseq.n_list, cseq.metadata["spikes"]):
        idx = cvm_consistency_index(cseq.signals[n], n)
        indices.append(idx)
        g1_val = next(r["value"] for r in gate["rows"] if r["n"] == n)
        cvm_rows.append([n, cseq.family.k_of(n), spike, idx, g1_val])

    passed = bool(
        excesses[-1] <= cfg["thresholds"]["power_excess"]
        and _strictly_decreasing(r_values)
        and _strictly_decreasing(indices)
        and verdict == "inconsistent-witness"
        and gate["ok"])
    summary = {
        "thresholds": cfg["thresholds"],
        "verdict": verdict,
        "quad_noncentralities": r_values,
        "quad_power_excess_largest_n": excesses[-1],
        "cvm_indices": indices,
        "g1_gate": gate,
        "pairing": "variants share the replicate xi vector",
    }
    return SuiteResult(
        name="inconsistency", passed=passed, summary=summary,
        tables={
            "inconsistency_quad": (
                ("n", "k_n", "spike", "R_n", "empirical_alpha",
                 "empirical_power", "excess_vs_alpha"), quad_rows),
            "inconsistency_cvm": (
                ("n", "k_n", "spike", "consistency_index", "g1_value"),
                cvm_rows),
        })


INTERACTION_DEFAULT = {
    "seed": 17,
    "alpha": 0.05,
    "replicates": 4000,
    "families": ["quad", "chi2"],
    "quad": {"r": 0.3, "gamma": 2.0, "c": 1.0, "J": 8192,
             "n_list": [512, 1024, 2048, 4096],
             "head": {"c2": 1.0, "mass_profile": "spread", "norm_const": 1.62},
             "spike": {"schedule": [2.0, 3.0, 5.0, 8.0],
                       "norm_const": 1.4142135623730951}},
    "chi2": {"r": 0.375, "m_const": 1.0, "n_list": [1024, 2048, 4096],
             "head": {"c2": 1.0, "mass_profile": "lowest", "norm_const": 1.53},
             "spike": {"schedule": [1.25, 2.25, 4.25], "norm_const": 4.05}},
    "thresholds": {"gap_largest": 0.06},
}


def _head_plus_spike(family, section: dict, n_list):
    """The head sequence of a section and its head-plus-spike combination."""
    h, sp = section["head"], section["spike"]
    head = make_consistent(family, h["c2"], h["mass_profile"], n_list,
                           h["norm_const"])
    spike = make_inconsistent(family, sp["schedule"], n_list, sp["norm_const"])
    return head, combine(head, spike, kind="head-plus-spike")


def _interaction_quad(cfg: dict, mc: MCConfig) -> list:
    q = cfg["quad"]
    profile, family, test = _quad_setup(q, cfg["alpha"])
    head, comb = _head_plus_spike(family, q, q["n_list"])
    rows = []
    for n in head.n_list:
        h_sig, c_sig = head.signals[n], comb.signals[n]
        r_h = noncentrality(h_sig, profile, n)
        r_c = noncentrality(c_sig, profile, n)
        gap_pred = abs(predict_beta(r_h, profile.A[n], test.x_alpha)
                       - predict_beta(r_c, profile.A[n], test.x_alpha))
        ests, gap, se = _paired_gap(
            quad_rejections(mc, test, n, [None, h_sig, c_sig]))
        rows.append([n, r_h, r_c - r_h, gap_pred, ests[1].estimate,
                     ests[2].estimate, gap, se])
    return rows


def _interaction_chi2(cfg: dict, mc: MCConfig) -> list:
    ch = cfg["chi2"]
    head, comb = _head_plus_spike(chi2_family(ch["r"]), ch, ch["n_list"])
    test = Chi2Config(alpha=cfg["alpha"], m_rule=(ch["r"], ch["m_const"]))
    rows = []
    for n in head.n_list:
        h_sig, c_sig = head.signals[n], comb.signals[n]
        m = test.cells(n)
        beta_h = chi2_predicted_beta(h_sig, test, n)
        beta_c = chi2_predicted_beta(c_sig, test, n)
        ests, gap, se = _paired_gap(chi2_rejections(
            mc, test, n, [None, DensitySpec(h_sig), DensitySpec(c_sig)]))
        rows.append([n, m, n * m * chi2_population(h_sig, m),
                     n * m * chi2_population(c_sig, m),
                     abs(beta_h - beta_c), ests[1].estimate, ests[2].estimate,
                     gap, se])
    return rows


# Interaction halves in run order: rows function and table columns. Each
# row ends with the empirical gap and its paired SE.
_INTERACTION = {
    "quad": (_interaction_quad,
             ("n", "R_head", "R_spike", "predicted_gap", "power_head",
              "power_combined", "empirical_gap", "paired_se")),
    "chi2": (_interaction_chi2,
             ("n", "m", "T_head", "T_combined", "predicted_gap", "power_head",
              "power_combined", "empirical_gap", "paired_se")),
}


def _suite_interaction(cfg: dict, mc: MCConfig) -> SuiteResult:
    names, families = list(_INTERACTION), cfg["families"]
    if not (families and all(f in names for f in families)):
        raise ValidationError("interaction families must be a non-empty "
                              f"subset of {names}, got {families!r}")
    tables = {}
    summary = {"thresholds": cfg["thresholds"],
               "pairing": "head and head-plus-spike share replicate noise"}
    passed = True
    for name, (rows_of, columns) in _INTERACTION.items():
        if name not in families:
            continue
        rows = rows_of(cfg, mc)
        gaps = [row[-2] for row in rows]
        ok = bool(gaps[-1] <= cfg["thresholds"]["gap_largest"]
                  and _strictly_decreasing(gaps))
        summary[name] = {"gaps": gaps, "std_errors": [row[-1] for row in rows],
                         "passed": ok}
        passed = passed and ok
        tables[f"interaction_{name}"] = (columns, rows)
    return SuiteResult(name="interaction", passed=passed,
                       summary=summary, tables=tables)


PURITY_DEFAULT = {
    "seed": 19,
    "alpha": 0.05,
    "replicates": 3000,
    "quad": {"r": 0.3, "gamma": 2.0, "c": 1.0, "J": 8192,
             "n_list": [512, 1024, 2048, 4096],
             "head": {"c2": 1.0, "mass_profile": "spread", "norm_const": 1.62}},
    "tail": {"position_factor": 4.0, "delta_target": 0.08},
    "pure_tail": {"mass_eps": 0.04},
    "classify": {"c1": 0.5, "c2": 2.0, "eps": 0.05, "C1": 4.0},
    "thresholds": {"gap": 0.06, "delta_max": 0.1},
}


def _tail(profile, family, n_list, position_factor: float, amplitude,
          kind: str) -> AlternativeSequence:
    """Spikes at ceil(position_factor * k_n) + 1, of height amplitude(n, kappa^2)."""
    signals, norms = {}, []
    for n in n_list:
        j0 = int(math.ceil(position_factor * profile.k[n])) + 1
        if j0 > profile.J:
            raise ValidationError(f"tail position {j0} beyond truncation J")
        tau = amplitude(n, profile.kappa_sq[n][j0 - 1])
        signals[n] = _make_signal(family.basis, np.array([j0]), np.array([tau]))
        norms.append(tau * float(n) ** family.r)
    return AlternativeSequence(
        family=family, n_list=tuple(n_list), signals=signals,
        norm_lo=min(norms), norm_hi=max(norms), kind=kind,
        metadata={"position_factor": position_factor})


def _suite_purity(cfg: dict, mc: MCConfig) -> SuiteResult:
    q = cfg["quad"]
    th = ClassifyThresholds(**cfg["classify"])
    profile, family, test = _quad_setup(q, cfg["alpha"])
    head = make_consistent(family, q["head"]["c2"], q["head"]["mass_profile"],
                           q["n_list"], q["head"]["norm_const"])
    delta_target = cfg["tail"]["delta_target"]
    tail = _tail(profile, family, q["n_list"], cfg["tail"]["position_factor"],
                 lambda n, kap: math.sqrt(delta_target / (float(n) ** 2 * kap)),
                 kind="delta-tail")
    comb = combine(head, tail, kind="head-plus-delta-tail")
    eps_norm = math.sqrt(cfg["pure_tail"]["mass_eps"])
    pure = combine(head, _tail(profile, family, q["n_list"], th.C1,
                               lambda n, kap: eps_norm * float(n) ** (-family.r),
                               kind="far-mass-tail"),
                   kind="purely-consistent")
    rows, gaps = [], []
    gap_ok = True
    for n in q["n_list"]:
        h_sig, c_sig = head.signals[n], comb.signals[n]
        delta = noncentrality(tail.signals[n], profile, n)
        bound = (1.0 / math.sqrt(2.0 * math.pi)
                 * delta / math.sqrt(2.0 * profile.A[n]))
        ests, gap, se = _paired_gap(
            quad_rejections(mc, test, n, [None, h_sig, c_sig]))
        gaps.append(gap)
        if delta <= cfg["thresholds"]["delta_max"]:
            gap_ok = gap_ok and gap <= cfg["thresholds"]["gap"]
        rows.append([n, profile.k[n], delta, bound, ests[1].estimate,
                     ests[2].estimate, gap, se])
    comb_verdict = classify(comb, th).verdict
    pure_verdict = classify(pure, th).verdict
    tq12_rows = []
    tq12_ok = True
    for n in q["n_list"]:
        tail_norm = math.sqrt(max(pure.signals[n].norm_sq
                                  - head.signals[n].norm_sq, 0.0))
        limit = eps_norm * float(n) ** (-family.r)
        ok = tail_norm <= limit * (1.0 + 1e-12)
        tq12_ok = tq12_ok and ok
        tq12_rows.append({"n": int(n), "tail_norm": tail_norm,
                          "limit": limit, "ok": bool(ok)})
    passed = bool(gap_ok and comb_verdict == "consistent-witness"
                  and pure_verdict == "purely-consistent-witness" and tq12_ok)
    summary = {
        "thresholds": cfg["thresholds"],
        "gaps": gaps,
        "combined_verdict": comb_verdict,
        "pure_verdict": pure_verdict,
        "head_minus_full_norm_check": {"epsilon": eps_norm, "rows": tq12_rows,
                                       "ok": tq12_ok},
        "pairing": "head and head-plus-tail share replicate noise",
    }
    columns = ("n", "k_n", "delta", "predicted_gap_bound", "power_head",
               "power_full", "empirical_gap", "paired_se")
    return SuiteResult(name="purity", passed=passed, summary=summary,
                       tables={"purity_power": (columns, rows)})


# In both fixed-weight suites "table_replicates" is read by nothing: the
# critical value is the exact quantile. The leaf stays accepted until the
# benchmark's configs, which still write it, drop it.
COMPACTNESS_DEFAULT = {
    "seed": 23,
    "alpha": 0.05,
    "replicates": 10000,
    "L": 1024,
    "spike_indices": [1, 2, 4, 8, 16, 32],
    "spike_norm": 2.5,
    "table_replicates": 200000,
    "widths": {"dim": 8, "epsilon": 0.01, "i_max": 12,
               "expected_first_index": 7},
    "thresholds": {"final_excess": 0.05, "width_tol": 1e-9},
}


def _fixed_critical(cfg: dict) -> tuple[FixedKappa, float]:
    """Bridge-weight fixed test on L coordinates and its exact alpha critical
    value, the upper alpha-quantile of Sum_j kappa_j^2 xi_j^2."""
    if not 1 <= cfg["L"] <= _J_NULL_MAX:
        raise ValidationError(f"L must be in [1, {_J_NULL_MAX}], got {cfg['L']}")
    fk = FixedKappa(bridge_weights(cfg["L"]))
    return fk, weighted_chisq_quantile(cfg["alpha"], fk.kappa_sq)


def _suite_compactness(cfg: dict, mc: MCConfig) -> SuiteResult:
    alpha = cfg["alpha"]
    L = cfg["L"]
    fk, critical = _fixed_critical(cfg)
    indices = [int(i) for i in cfg["spike_indices"]]
    c = cfg["spike_norm"]
    etas = [None]
    for i in indices:
        eta = np.zeros(L)
        eta[i - 1] = c
        etas.append(eta)
    rej = fixed_rejections(mc, fk, critical, etas)
    ests = estimate_columns(rej)
    rows, powers, ses = [], [], []
    for pos, i in enumerate(indices, start=1):
        est = ests[pos]
        pe = paired_excess(rej, pos, 0)
        powers.append(est.estimate)
        ses.append(est.std_error)
        rows.append([i, float(fk.kappa_sq[i - 1]),
                     float(fk.kappa_sq[i - 1]) * c * c, est.estimate,
                     est.ci_lo, est.ci_hi, pe["difference"], pe["std_error"]])
    final_excess = powers[-1] - alpha
    monotone = _decreasing_within_noise(powers, ses)

    w = cfg["widths"]
    axes = 0.5 ** np.arange(1, w["dim"] + 1)
    seq = greedy_widths(EllipsoidSet(axes), w["i_max"])
    expected = np.zeros(w["i_max"])
    expected[:w["dim"]] = np.sort(axes)[::-1]
    width_err = float(np.max(np.abs(seq.widths - expected)))
    diag = compactness_diagnostic(EllipsoidSet(axes), w["epsilon"], w["i_max"])
    width_rows = [[i + 1, float(seq.widths[i]), float(expected[i])]
                  for i in range(w["i_max"])]
    widths_ok = (width_err <= cfg["thresholds"]["width_tol"]
                 and diag.first_index == w["expected_first_index"])

    passed = bool(monotone
                  and final_excess <= cfg["thresholds"]["final_excess"]
                  and widths_ok)
    summary = {
        "thresholds": cfg["thresholds"],
        "critical": critical,
        "empirical_size": ests[0].estimate,
        "powers": powers,
        "monotone_within_noise": monotone,
        "final_excess": final_excess,
        "widths_max_error": width_err,
        "widths_first_index": diag.first_index,
        "widths_verdict": diag.verdict,
        "pairing": "all spikes share the replicate xi vector",
    }
    return SuiteResult(
        name="compactness", passed=passed, summary=summary,
        tables={
            "compactness_power": (
                ("spike_index", "kappa_sq", "shift", "power", "ci_lo",
                 "ci_hi", "excess_vs_size", "paired_se"), rows),
            "compactness_widths": (
                ("i", "width", "expected"), width_rows),
        })


UNBIASEDNESS_DEFAULT = {
    "seed": 29,
    "alpha": 0.05,
    "replicates": 10000,
    "L": 1024,
    "n_shifts": 20,
    "shift_scale": 1.0,
    "shift_support": 64,
    "table_replicates": 200000,
}


def _suite_unbiasedness(cfg: dict, mc: MCConfig) -> SuiteResult:
    L = cfg["L"]
    fk, critical = _fixed_critical(cfg)
    support = cfg["shift_support"]
    etas = [None]
    for t in range(1, cfg["n_shifts"] + 1):
        gen = substream(cfg["seed"], STREAM_FACTORY, t)
        v = gen.standard_normal(support)
        eta = np.zeros(L)
        eta[:support] = cfg["shift_scale"] * v / np.linalg.norm(v)
        etas.append(eta)
    rej = fixed_rejections(mc, fk, critical, etas)
    ests = estimate_columns(rej)
    size = ests[0].estimate
    rows = []
    all_ok = True
    for t in range(1, cfg["n_shifts"] + 1):
        pe = paired_excess(rej, t, 0)
        noncent = float(np.square(etas[t]) @ fk.kappa_sq)
        ok = pe["difference"] > -2.0 * pe["std_error"]
        all_ok = all_ok and ok
        rows.append([t, noncent, ests[t].estimate, size, pe["difference"],
                     pe["std_error"], ok])
    summary = {
        "critical": critical,
        "empirical_size": size,
        "all_shifts_pass": bool(all_ok),
        "pairing": "power and size share the replicate xi vector",
    }
    columns = ("shift", "noncentrality", "power", "size", "excess",
               "paired_se", "ok")
    return SuiteResult(name="unbiasedness", passed=bool(all_ok),
                       summary=summary,
                       tables={"unbiasedness_shifts": (columns, rows)})


MAXISET_DEFAULT = {
    "seed": 31,
    "alpha": 0.05,
    "replicates": 4000,
    "quad": {"r": 0.25, "gamma": 2.0, "c": 1.0},
    "m_list": [16, 64, 256, 1024],
    "C_list": [1.0, 1.5, 2.25, 3.375],
    "norm_const": 1.0,
    "kernel": {"name": "box"},
    "thresholds": {"final_excess": 0.05},
}


def _suite_maxiset(cfg: dict, mc: MCConfig) -> SuiteResult:
    q = cfg["quad"]
    alpha = cfg["alpha"]
    r = q["r"]
    s = r / (2.0 - 4.0 * r)
    n_list = spike_tail_schedule(r, s, cfg["m_list"], cfg["C_list"],
                                 cfg["norm_const"])
    J = max(4 * max(n_list), max(cfg["m_list"]) + 32)
    profile = build_profile(r, q["gamma"], q["c"], J, n_list)
    family = quad_family(profile)
    seq = make_spike_tail(family, cfg["m_list"], cfg["C_list"],
                          cfg["norm_const"])
    test = QuadTestConfig(profile, alpha)
    rows, excesses, ses, r_values = [], [], [], []
    seminorms = seq.metadata["seminorms"]
    for pos, n in enumerate(seq.n_list):
        sig = seq.signals[n]
        m_l = cfg["m_list"][pos]
        r_n = noncentrality(sig, profile, n)
        r_values.append(r_n)
        rej = quad_rejections(mc, test, n, [None, sig])
        ests = estimate_columns(rej)
        pe = paired_excess(rej, 1, 0)
        excesses.append(pe["difference"])
        ses.append(pe["std_error"])
        rows.append([n, m_l, profile.k[n], seminorms[pos], r_n,
                     ests[0].estimate, ests[1].estimate, pe["difference"],
                     pe["std_error"]])

    kernel = builtin_kernel(cfg["kernel"]["name"])
    kseq = make_spike_tail(kernel_family(r), cfg["m_list"], cfg["C_list"],
                           cfg["norm_const"])
    b = half_level_radius(kernel)
    h_list = inconsistency_bandwidths(kernel, cfg["m_list"])
    kernel_rows = []
    kernel_shifts = []
    gamma = math.sqrt(kernel.gamma_sq)
    for pos, n in enumerate(kseq.n_list):
        h = h_list[pos]
        ktest = KernelTestConfig(kernel=kernel, alpha=alpha, h=h)
        t_1n = t1n(kseq.signals[n], ktest)
        shift = n * math.sqrt(h) * t_1n / gamma
        kernel_shifts.append(shift)
        kernel_rows.append([n, cfg["m_list"][pos], h, t_1n, shift])

    passed = bool(
        _strictly_decreasing(r_values)
        and bool(np.all(np.diff(seminorms) > 0.0))
        and _decreasing_within_noise(excesses, ses)
        and excesses[-1] <= cfg["thresholds"]["final_excess"]
        and _strictly_decreasing(kernel_shifts))
    summary = {
        "thresholds": cfg["thresholds"],
        "smoothness": s,
        "n_schedule": [int(n) for n in seq.n_list],
        "seminorms": list(seminorms),
        "quad_noncentralities": r_values,
        "excesses": excesses,
        "kernel_half_level_radius": b,
        "kernel_shifts": kernel_shifts,
        "pairing": "spike and null share the replicate xi vector",
    }
    return SuiteResult(
        name="maxiset-counterexample", passed=passed, summary=summary,
        tables={
            "maxiset_quad": (
                ("n", "m", "k_n", "seminorm", "R_n", "empirical_alpha",
                 "empirical_power", "excess_vs_size", "paired_se"), rows),
            "maxiset_kernel": (
                ("n", "m", "h", "T1n", "shift"), kernel_rows),
        })


SUITES = {
    "consistency": (_suite_consistency, CONSISTENCY_DEFAULT),
    "inconsistency": (_suite_inconsistency, INCONSISTENCY_DEFAULT),
    "interaction": (_suite_interaction, INTERACTION_DEFAULT),
    "purity": (_suite_purity, PURITY_DEFAULT),
    "compactness": (_suite_compactness, COMPACTNESS_DEFAULT),
    "unbiasedness": (_suite_unbiasedness, UNBIASEDNESS_DEFAULT),
    "maxiset-counterexample": (_suite_maxiset, MAXISET_DEFAULT),
}


def default_config(name: str) -> dict:
    if name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return merge_config(SUITES[name][1], None)


def run_suite(name: str, config: dict | None = None,
              threads: int = 1) -> SuiteResult:
    """Execute a registered suite: merge the config, build MCConfig, run."""
    cfg = merge_config(default_config(name), config)
    mc = MCConfig(replicates=cfg["replicates"], seed=cfg["seed"],
                  threads=threads)
    return SUITES[name][0](cfg, mc)
