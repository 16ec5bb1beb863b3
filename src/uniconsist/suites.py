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
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alternatives import (AlternativeSequence, ClassifyThresholds, classify,
                           combine, cvm_family, chi2_family, g1_report,
                           kernel_family, make_consistent, make_inconsistent,
                           make_spike_tail, quad_family, smoothness_of,
                           spike_tail_schedule)
from .chi2 import Chi2Config, chi2_population, chi2_predicted_beta
from .cvm import bridge_weights, cvm_consistency_index, weighted_null_quantiles
from .errors import ValidationError
from .funclasses import EllipsoidSet, compactness_diagnostic, greedy_widths
from .kernel import (KernelTestConfig, builtin_kernel, half_level_radius,
                     inconsistency_bandwidths, t1n)
from .mclab import (MCConfig, PowerReport, chi2_rejections, estimate_columns,
                    fixed_rejections, paired_excess, quad_rejections)
from .quad import (FixedKappa, QuadTestConfig, build_profile, noncentrality,
                   predict_beta)
from .reports import write_csv
from .rng import STREAM_FACTORY, substream
from .signals import Basis, DensitySpec, SignalSpec


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

    A key the defaults do not have raises ValidationError naming its dotted
    path, so a misspelled key cannot silently leave its default in force.
    """
    def merge(base: dict, over: dict, prefix: str) -> dict:
        out = copy.deepcopy(base)
        for k, v in over.items():
            if k not in out:
                raise ValidationError(f"unknown config key {prefix + str(k)!r}")
            if isinstance(v, dict) and isinstance(out[k], dict):
                out[k] = merge(out[k], v, f"{prefix}{k}.")
            else:
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


def _spike_signal(basis: Basis, index: int, amplitude: float) -> SignalSpec:
    if basis is Basis.TRIG_FULL:
        coeffs = np.zeros((index, 2))
        coeffs[index - 1, 0] = amplitude
    else:
        coeffs = np.zeros(index)
        coeffs[index - 1] = amplitude
    return SignalSpec(basis, coeffs)


CONSISTENCY_DEFAULT = {
    "seed": 11,
    "alpha": 0.05,
    "replicates": 2000,
    "mc_all_n": False,
    "quad": {"r": 0.3, "gamma": 2.0, "c": 1.0, "J": 8192,
             "n_list": [512, 1024, 2048, 4096],
             "c2": 1.0, "mass_profile": "spread", "norm_const": 1.62},
    "classify": {"c1": 0.5, "c2": 2.0, "eps": 0.05, "C1": 4.0},
    "thresholds": {"beta_margin": 0.1, "power_band": 0.05},
}


def _suite_consistency(cfg: dict, threads: int) -> SuiteResult:
    q = cfg["quad"]
    alpha = cfg["alpha"]
    profile = build_profile(q["r"], q["gamma"], q["c"], q["J"], q["n_list"])
    family = quad_family(profile)
    seq = make_consistent(family, q["c2"], q["mass_profile"], q["n_list"],
                          q["norm_const"])
    test = QuadTestConfig(profile, alpha)
    mc = MCConfig(replicates=cfg["replicates"], seed=cfg["seed"],
                  threads=threads)
    n_list = list(seq.n_list)
    mc_ns = n_list if cfg["mc_all_n"] else [n_list[-1]]
    band = cfg["thresholds"]["power_band"]
    rows, report_rows = [], []
    emp_beta_largest = None
    for n in n_list:
        sig = seq.signals[n]
        r_n = noncentrality(sig, profile, n)
        a_n = profile.A[n]
        beta_pred = predict_beta(r_n, a_n, test.x_alpha)
        if n in mc_ns:
            rej = quad_rejections(mc, test, n, [None, sig])
            size_est, power_est = estimate_columns(rej)
            emp_beta = 1.0 - power_est.estimate
            row = PowerReport.row(n, size_est.estimate, emp_beta, beta_pred, band)
            report_rows.append(row)
            if n == n_list[-1]:
                emp_beta_largest = emp_beta
            rows.append([n, profile.k[n], r_n, a_n, beta_pred,
                         size_est.estimate, emp_beta, row["abs_gap"],
                         row["within_band"]])
        else:
            rows.append([n, profile.k[n], r_n, a_n, beta_pred,
                         "", "", "", ""])
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
        "power_report": PowerReport(rows=tuple(report_rows)).to_json_dict(),
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


def _suite_inconsistency(cfg: dict, threads: int) -> SuiteResult:
    q = cfg["quad"]
    alpha = cfg["alpha"]
    profile = build_profile(q["r"], q["gamma"], q["c"], q["J"], q["n_list"])
    family = quad_family(profile)
    seq = make_inconsistent(family, q["schedule"], q["n_list"], q["norm_const"])
    test = QuadTestConfig(profile, alpha)
    mc = MCConfig(replicates=cfg["replicates"], seed=cfg["seed"],
                  threads=threads)
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


def _interaction_quad(cfg: dict, mc: MCConfig) -> tuple[dict, list, bool]:
    q = cfg["quad"]
    alpha = cfg["alpha"]
    profile = build_profile(q["r"], q["gamma"], q["c"], q["J"], q["n_list"])
    family = quad_family(profile)
    head = make_consistent(family, q["head"]["c2"], q["head"]["mass_profile"],
                           q["n_list"], q["head"]["norm_const"])
    spike = make_inconsistent(family, q["spike"]["schedule"], q["n_list"],
                              q["spike"]["norm_const"])
    comb = combine(head, spike, kind="head-plus-spike")
    test = QuadTestConfig(profile, alpha)
    rows, gaps, ses = [], [], []
    for n in head.n_list:
        h_sig, c_sig = head.signals[n], comb.signals[n]
        r_h = noncentrality(h_sig, profile, n)
        r_c = noncentrality(c_sig, profile, n)
        gap_pred = abs(predict_beta(r_h, profile.A[n], test.x_alpha)
                       - predict_beta(r_c, profile.A[n], test.x_alpha))
        rej = quad_rejections(mc, test, n, [None, h_sig, c_sig])
        ests = estimate_columns(rej)
        pe = paired_excess(rej, 2, 1)
        gap = abs(pe["difference"])
        gaps.append(gap)
        ses.append(pe["std_error"])
        rows.append([n, r_h, r_c - r_h, gap_pred, ests[1].estimate,
                     ests[2].estimate, gap, pe["std_error"]])
    ok = bool(gaps[-1] <= cfg["thresholds"]["gap_largest"]
              and _strictly_decreasing(gaps))
    section = {"gaps": gaps, "std_errors": ses, "passed": ok}
    return section, rows, ok


def _interaction_chi2(cfg: dict, mc: MCConfig) -> tuple[dict, list, bool]:
    ch = cfg["chi2"]
    alpha = cfg["alpha"]
    family = chi2_family(ch["r"])
    head = make_consistent(family, ch["head"]["c2"],
                           ch["head"]["mass_profile"], ch["n_list"],
                           ch["head"]["norm_const"])
    spike = make_inconsistent(family, ch["spike"]["schedule"], ch["n_list"],
                              ch["spike"]["norm_const"])
    comb = combine(head, spike, kind="head-plus-spike")
    test = Chi2Config(alpha=alpha, m_rule=(ch["r"], ch["m_const"]))
    rows, gaps, ses = [], [], []
    for n in head.n_list:
        h_sig, c_sig = head.signals[n], comb.signals[n]
        m = test.cells(n)
        beta_h = chi2_predicted_beta(h_sig, test, n)
        beta_c = chi2_predicted_beta(c_sig, test, n)
        rej = chi2_rejections(mc, test, n,
                              [None, DensitySpec(h_sig), DensitySpec(c_sig)])
        ests = estimate_columns(rej)
        pe = paired_excess(rej, 2, 1)
        gap = abs(pe["difference"])
        gaps.append(gap)
        ses.append(pe["std_error"])
        rows.append([n, m, n * m * chi2_population(h_sig, m),
                     n * m * chi2_population(c_sig, m),
                     abs(beta_h - beta_c), ests[1].estimate, ests[2].estimate,
                     gap, pe["std_error"]])
    ok = bool(gaps[-1] <= cfg["thresholds"]["gap_largest"]
              and _strictly_decreasing(gaps))
    section = {"gaps": gaps, "std_errors": ses, "passed": ok}
    return section, rows, ok


def _suite_interaction(cfg: dict, threads: int) -> SuiteResult:
    mc = MCConfig(replicates=cfg["replicates"], seed=cfg["seed"],
                  threads=threads)
    tables = {}
    summary = {"thresholds": cfg["thresholds"],
               "pairing": "head and head-plus-spike share replicate noise"}
    passed = True
    if "quad" in cfg["families"]:
        section, rows, ok = _interaction_quad(cfg, mc)
        summary["quad"] = section
        passed = passed and ok
        tables["interaction_quad"] = (
            ("n", "R_head", "R_spike", "predicted_gap", "power_head",
             "power_combined", "empirical_gap", "paired_se"), rows)
    if "chi2" in cfg["families"]:
        section, rows, ok = _interaction_chi2(cfg, mc)
        summary["chi2"] = section
        passed = passed and ok
        tables["interaction_chi2"] = (
            ("n", "m", "T_head", "T_combined", "predicted_gap", "power_head",
             "power_combined", "empirical_gap", "paired_se"), rows)
    return SuiteResult(name="interaction", passed=bool(passed),
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


def _delta_tail(profile, family, n_list, position_factor: float,
                delta: float, kind: str) -> AlternativeSequence:
    """Spikes beyond position_factor * k_n with exact tail noncentrality delta."""
    signals = {}
    norms = []
    for n in n_list:
        j0 = int(math.ceil(position_factor * profile.k[n])) + 1
        if j0 > profile.J:
            raise ValidationError(f"tail position {j0} beyond truncation J")
        kap = profile.kappa_sq[n][j0 - 1]
        tau = math.sqrt(delta / (float(n) ** 2 * kap))
        signals[n] = _spike_signal(family.basis, j0, tau)
        norms.append(tau * float(n) ** family.r)
    return AlternativeSequence(
        family=family, n_list=tuple(n_list), signals=signals,
        norm_lo=min(norms), norm_hi=max(norms), kind=kind,
        metadata={"position_factor": position_factor, "delta": delta})


def _mass_tail(profile, family, n_list, position_factor: float,
               mass_eps: float, kind: str) -> AlternativeSequence:
    """Spikes beyond position_factor * k_n with far mass = mass_eps * n^{-2r}."""
    signals = {}
    for n in n_list:
        j0 = int(math.ceil(position_factor * profile.k[n])) + 1
        if j0 > profile.J:
            raise ValidationError(f"tail position {j0} beyond truncation J")
        tau = math.sqrt(mass_eps) * float(n) ** (-family.r)
        signals[n] = _spike_signal(family.basis, j0, tau)
    root = math.sqrt(mass_eps)
    return AlternativeSequence(
        family=family, n_list=tuple(n_list), signals=signals,
        norm_lo=root, norm_hi=root, kind=kind,
        metadata={"position_factor": position_factor, "mass_eps": mass_eps})


def _suite_purity(cfg: dict, threads: int) -> SuiteResult:
    q = cfg["quad"]
    alpha = cfg["alpha"]
    th = ClassifyThresholds(**cfg["classify"])
    profile = build_profile(q["r"], q["gamma"], q["c"], q["J"], q["n_list"])
    family = quad_family(profile)
    head = make_consistent(family, q["head"]["c2"], q["head"]["mass_profile"],
                           q["n_list"], q["head"]["norm_const"])
    tail = _delta_tail(profile, family, q["n_list"],
                       cfg["tail"]["position_factor"],
                       cfg["tail"]["delta_target"], kind="delta-tail")
    comb = combine(head, tail, kind="head-plus-delta-tail")
    pure = combine(head, _mass_tail(profile, family, q["n_list"],
                                    th.C1, cfg["pure_tail"]["mass_eps"],
                                    kind="far-mass-tail"),
                   kind="purely-consistent")
    test = QuadTestConfig(profile, alpha)
    mc = MCConfig(replicates=cfg["replicates"], seed=cfg["seed"],
                  threads=threads)
    rows, gaps = [], []
    gap_ok = True
    for n in q["n_list"]:
        h_sig, c_sig = head.signals[n], comb.signals[n]
        delta = noncentrality(tail.signals[n], profile, n)
        bound = (math.exp(-0.5 * 0.0) / math.sqrt(2.0 * math.pi)
                 * delta / math.sqrt(2.0 * profile.A[n]))
        rej = quad_rejections(mc, test, n, [None, h_sig, c_sig])
        ests = estimate_columns(rej)
        pe = paired_excess(rej, 2, 1)
        gap = abs(pe["difference"])
        gaps.append(gap)
        if delta <= cfg["thresholds"]["delta_max"]:
            gap_ok = gap_ok and gap <= cfg["thresholds"]["gap"]
        rows.append([n, profile.k[n], delta, bound, ests[1].estimate,
                     ests[2].estimate, gap, pe["std_error"]])
    comb_verdict = classify(comb, th).verdict
    pure_verdict = classify(pure, th).verdict
    eps_norm = math.sqrt(cfg["pure_tail"]["mass_eps"])
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


def _suite_compactness(cfg: dict, threads: int) -> SuiteResult:
    alpha = cfg["alpha"]
    L = cfg["L"]
    fk = FixedKappa(bridge_weights(L))
    _, criticals = weighted_null_quantiles(fk.kappa_sq, [alpha],
                                           cfg["table_replicates"],
                                           cfg["seed"])
    critical = float(criticals[0])
    mc = MCConfig(replicates=cfg["replicates"], seed=cfg["seed"],
                  threads=threads)
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


def _suite_unbiasedness(cfg: dict, threads: int) -> SuiteResult:
    alpha = cfg["alpha"]
    L = cfg["L"]
    fk = FixedKappa(bridge_weights(L))
    _, criticals = weighted_null_quantiles(fk.kappa_sq, [alpha],
                                           cfg["table_replicates"],
                                           cfg["seed"])
    critical = float(criticals[0])
    mc = MCConfig(replicates=cfg["replicates"], seed=cfg["seed"],
                  threads=threads)
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


def _suite_maxiset(cfg: dict, threads: int) -> SuiteResult:
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
    mc = MCConfig(replicates=cfg["replicates"], seed=cfg["seed"],
                  threads=threads)
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
    """Execute a registered suite under the merged config."""
    if name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; available: {sorted(SUITES)}")
    fn, default = SUITES[name]
    return fn(merge_config(default, config), threads)
