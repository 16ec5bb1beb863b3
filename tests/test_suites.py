"""Suite registry plumbing plus one reduced-size end-to-end run per suite."""

import json

import numpy as np
import pytest
from scipy import stats

from oracles import wilson_interval_at
from uniconsist.cvm import bridge_weights
from uniconsist.errors import ValidationError
from uniconsist.mclab import MCConfig, fixed_rejections
from uniconsist.quad import FixedKappa
from uniconsist.rng import STREAM_FACTORY, substream
from uniconsist.suites import (INTERACTION_DEFAULT, SUITES, SuiteResult,
                               default_config, merge_config, run_suite,
                               write_result)

SMOKE = {
    "consistency": {"replicates": 400},
    "inconsistency": {"replicates": 400},
    "interaction": {"replicates": 400},
    "purity": {"replicates": 400},
    "compactness": {"replicates": 2000, "table_replicates": 50000},
    "unbiasedness": {"replicates": 2000, "table_replicates": 50000},
    "maxiset-counterexample": {"replicates": 400},
}

EXPECTED_TABLES = {
    "consistency": {"consistency_power"},
    "inconsistency": {"inconsistency_quad", "inconsistency_cvm"},
    "interaction": {"interaction_quad", "interaction_chi2"},
    "purity": {"purity_power"},
    "compactness": {"compactness_power", "compactness_widths"},
    "unbiasedness": {"unbiasedness_shifts"},
    "maxiset-counterexample": {"maxiset_quad", "maxiset_kernel"},
}

_CACHE = {}


def _run(name):
    if name not in _CACHE:
        _CACHE[name] = run_suite(name, SMOKE[name])
    return _CACHE[name]


def test_registry_covers_expected_suites():
    assert set(SUITES) == set(SMOKE) == set(EXPECTED_TABLES)


def test_merge_config_nested():
    default = {"a": 1, "quad": {"r": 0.3, "J": 8192}, "list": [1, 2]}
    merged = merge_config(default, {"quad": {"J": 64}, "list": [3]})
    assert merged == {"a": 1, "quad": {"r": 0.3, "J": 64}, "list": [3]}
    # defaults must not leak mutations back
    merged["quad"]["r"] = 99
    assert default["quad"]["r"] == 0.3
    assert merge_config(default, None)["a"] == 1
    # a 3-level override keeps the sibling keys of the default
    deep = merge_config(INTERACTION_DEFAULT, {"quad": {"head": {"norm_const": 2}}})
    assert deep["quad"]["head"] == {**INTERACTION_DEFAULT["quad"]["head"],
                                    "norm_const": 2}
    assert deep["quad"]["J"] == INTERACTION_DEFAULT["quad"]["J"]
    # depth-2 dicts are copies, not the defaults themselves
    fresh = merge_config(INTERACTION_DEFAULT, None)
    assert fresh["quad"]["head"] is not INTERACTION_DEFAULT["quad"]["head"]


def test_default_config_copies():
    cfg = default_config("consistency")
    cfg["quad"]["J"] = 1
    assert default_config("consistency")["quad"]["J"] != 1
    with pytest.raises(ValidationError):
        default_config("nope")


# Every default, written out: the suites share their quad profile, head and
# classify sections, and none of them may drift.
_QUAD = {"r": 0.3, "gamma": 2.0, "c": 1.0, "J": 8192,
         "n_list": [512, 1024, 2048, 4096]}
_CLASSIFY = {"c1": 0.5, "c2": 2.0, "eps": 0.05, "C1": 4.0}
DEFAULTS = {
    "consistency": {
        "seed": 11, "alpha": 0.05, "replicates": 2000,
        "quad": {**_QUAD, "c2": 1.0, "mass_profile": "spread",
                 "norm_const": 1.62},
        "classify": _CLASSIFY,
        "thresholds": {"beta_margin": 0.1, "power_band": 0.05}},
    "inconsistency": {
        "seed": 13, "alpha": 0.05, "replicates": 2000,
        "quad": {**_QUAD, "schedule": [2.0, 3.0, 5.0, 8.0], "norm_const": 1.8},
        "cvm": {"r": 0.25, "n_list": [256, 1024, 4096, 16384],
                "schedule": [2.0, 3.0, 5.0, 8.0], "norm_const": 1.0,
                "c_eps": 1.0, "eps_g1": 0.05},
        "classify": _CLASSIFY,
        "thresholds": {"power_excess": 0.05}},
    "interaction": {
        "seed": 17, "alpha": 0.05, "replicates": 4000,
        "families": ["quad", "chi2"],
        "quad": {**_QUAD,
                 "head": {"c2": 1.0, "mass_profile": "spread",
                          "norm_const": 1.62},
                 "spike": {"schedule": [2.0, 3.0, 5.0, 8.0],
                           "norm_const": 1.4142135623730951}},
        "chi2": {"r": 0.375, "m_const": 1.0, "n_list": [1024, 2048, 4096],
                 "head": {"c2": 1.0, "mass_profile": "lowest",
                          "norm_const": 1.53},
                 "spike": {"schedule": [1.25, 2.25, 4.25], "norm_const": 4.05}},
        "thresholds": {"gap_largest": 0.06}},
    "purity": {
        "seed": 19, "alpha": 0.05, "replicates": 3000,
        "quad": {**_QUAD, "head": {"c2": 1.0, "mass_profile": "spread",
                                   "norm_const": 1.62}},
        "tail": {"position_factor": 4.0, "delta_target": 0.08},
        "pure_tail": {"mass_eps": 0.04},
        "classify": _CLASSIFY,
        "thresholds": {"gap": 0.06, "delta_max": 0.1}},
    "compactness": {
        "seed": 23, "alpha": 0.05, "replicates": 10000, "L": 1024,
        "spike_indices": [1, 2, 4, 8, 16, 32], "spike_norm": 2.5,
        "table_replicates": 200000,
        "widths": {"dim": 8, "epsilon": 0.01, "i_max": 12,
                   "expected_first_index": 7},
        "thresholds": {"final_excess": 0.05, "width_tol": 1e-9}},
    "unbiasedness": {
        "seed": 29, "alpha": 0.05, "replicates": 10000, "L": 1024,
        "n_shifts": 20, "shift_scale": 1.0, "shift_support": 64,
        "table_replicates": 200000},
    "maxiset-counterexample": {
        "seed": 31, "alpha": 0.05, "replicates": 4000,
        "quad": {"r": 0.25, "gamma": 2.0, "c": 1.0},
        "m_list": [16, 64, 256, 1024], "C_list": [1.0, 1.5, 2.25, 3.375],
        "norm_const": 1.0, "kernel": {"name": "box"},
        "thresholds": {"final_excess": 0.05}},
}


def _clear(obj):
    """Empty every dict and list of a config, the innermost first."""
    for value in obj.values() if isinstance(obj, dict) else obj:
        if isinstance(value, (dict, list)):
            _clear(value)
    obj.clear()


@pytest.mark.parametrize("name", DEFAULTS)
def test_default_config_values(name):
    cfg = default_config(name)
    # == alone would pass 2 for 2.0; merge_config keys its checks on the type
    assert repr(cfg) == repr(DEFAULTS[name])
    # the sections shared in the source are each suite's own copy
    _clear(cfg)
    assert all(default_config(other) == DEFAULTS[other] for other in DEFAULTS)


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("name", ["consistency", "inconsistency", "purity"])
def test_bad_classify_section_refused_before_the_suite_runs(name, monkeypatch):
    def never(cfg, mc):
        raise AssertionError("the suite ran with a bad classify section")
    monkeypatch.setitem(SUITES, name, (never, SUITES[name][1]))
    with pytest.raises(ValidationError, match="c1 > eps"):
        run_suite(name, {"classify": {"c1": 0.01}})


def test_run_suite_builds_the_envelope(monkeypatch):
    for name in ("purity", "unbiasedness"):
        monkeypatch.setitem(SUITES, name, (lambda cfg, mc: (True, {"x": 1}, {}),
                                           SUITES[name][1]))
    purity = run_suite("purity", {"thresholds": {"gap": 0.5}})
    assert purity == SuiteResult(
        "purity", True, {"x": 1, "thresholds": {"gap": 0.5, "delta_max": 0.1}}, {})
    assert run_suite("unbiasedness") == SuiteResult("unbiasedness", True, {"x": 1}, {})


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_suite_passes_at_smoke_scale(name):
    result = _run(name)
    assert result.name == name
    assert result.passed, json.dumps(result.summary, default=str)[:2000]
    assert set(result.tables) == EXPECTED_TABLES[name]


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_write_result_artifacts(name, tmp_path):
    result = _run(name)
    paths = write_result(result, tmp_path)
    assert len(paths) == len(result.tables) + 1
    for table_name, (columns, rows) in result.tables.items():
        text = (tmp_path / f"{table_name}.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(columns)
        assert len(lines) == 1 + len(rows)
    summary = json.loads(
        (tmp_path / f"{result.name}_summary.json").read_text())
    assert summary["suite"] == result.name
    assert summary["passed"] is True


def test_suite_thread_count_does_not_change_tables(tmp_path):
    """Same seed, different worker counts, byte-identical CSV artifacts."""
    a = run_suite("consistency", SMOKE["consistency"], threads=1)
    b = run_suite("consistency", SMOKE["consistency"], threads=4)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_result(a, dir_a)
    write_result(b, dir_b)
    name = "consistency_power.csv"
    assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_suite_artifacts_do_not_depend_on_threads(name, tmp_path):
    """Every artifact of every suite is byte-identical at 1 and 4 threads."""
    one, four = tmp_path / "threads1", tmp_path / "threads4"
    write_result(_run(name), one)
    write_result(run_suite(name, SMOKE[name], threads=4), four)
    files = sorted(p.name for p in one.iterdir())
    assert files == sorted(p.name for p in four.iterdir())
    for file in files:
        assert (one / file).read_bytes() == (four / file).read_bytes(), file


@pytest.mark.parametrize("name", ["compactness", "unbiasedness"])
def test_table_replicates_leaf_has_no_effect(name, tmp_path):
    """The critical value is exact, so the table size leaves every byte."""
    for reps in (2000, 200000):
        write_result(run_suite(name, {"replicates": 2000,
                                      "table_replicates": reps}),
                     tmp_path / str(reps))
    files = sorted(p.name for p in (tmp_path / "2000").iterdir())
    for file in files:
        assert ((tmp_path / "2000" / file).read_bytes()
                == (tmp_path / "200000" / file).read_bytes()), file


def test_unbiasedness_power_matches_exact_noncentral_law():
    """At the default config, the engine's rejection rate of the size
    column and of each of the 20 shifts lies within its Wilson interval of
    the exact power P(Sum kappa_j^2 (xi_j + eta_j)^2 > t). Each of the 21
    intervals has level 1 - 0.001/21 (Bonferroni), so on correct code the
    test fails with probability at most 0.001."""
    cfg = default_config("unbiasedness")
    fk = FixedKappa(bridge_weights(cfg["L"]))
    critical = fk.form().exact_critical(cfg["alpha"])
    etas = [None]
    for t in range(1, cfg["n_shifts"] + 1):
        v = substream(cfg["seed"], STREAM_FACTORY, t).standard_normal(
            cfg["shift_support"])
        eta = np.zeros(cfg["L"])
        eta[:cfg["shift_support"]] = cfg["shift_scale"] * v / np.linalg.norm(v)
        etas.append(eta)
    rej = fixed_rejections(MCConfig(cfg["replicates"], cfg["seed"]), fk,
                           critical, etas)
    z = stats.norm.isf(0.001 / (2 * len(etas)))
    for v, eta in enumerate(etas):
        exact = fk.form().exact_power(critical, eta)
        lo, hi = wilson_interval_at(int(rej[:, v].sum()), rej.shape[0], z)
        assert lo <= exact <= hi, (v, exact, lo, hi)
