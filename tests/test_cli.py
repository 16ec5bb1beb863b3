"""End-to-end command-line runs through main(argv): exit codes and outputs."""

import json
import math
from dataclasses import asdict
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from uniconsist import cli, cvm, mclab
from uniconsist.chi2 import chi2_statistic
from uniconsist.cli import main
from uniconsist.cvm import (_J_NULL_MAX, CvmNullTable, build_cvm_null_table,
                            cvm_statistic)
from uniconsist.alternatives import (ClassifyThresholds, classify, cvm_family,
                                     make_consistent, quad_family)
from uniconsist.quad import build_profile

SMOKE_CONSISTENCY = {"replicates": 400}


def _write(tmp_path, name, obj):
    """``obj`` as JSON; a str is written as it is (raw JSON text)."""
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj),
                    encoding="utf-8")
    return str(path)


def _run_consistency(tmp_path, tag, threads=1):
    cfg = _write(tmp_path, f"cfg_{tag}.json", SMOKE_CONSISTENCY)
    out = tmp_path / tag
    code = main(["suite", "consistency", "--config", cfg,
                 "--out", str(out), "--threads", str(threads)])
    return code, out


def test_suite_pass_writes_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UNICONSIST_SEED", raising=False)
    code, out = _run_consistency(tmp_path, "base")
    captured = capsys.readouterr()
    assert code == 0
    assert "suite consistency: PASS" in captured.out
    csv = out / "consistency_power.csv"
    summary = json.loads((out / "consistency_summary.json").read_text())
    assert str(csv) in captured.out
    assert summary["passed"] is True
    assert csv.read_text().splitlines()[0].startswith("n,k_n,")

    # same seed through the environment: byte-identical artifact
    monkeypatch.setenv("UNICONSIST_SEED", "11")
    code, out_same = _run_consistency(tmp_path, "same")
    assert code == 0
    assert (out_same / "consistency_power.csv").read_bytes() == csv.read_bytes()

    # different seed: the Monte Carlo columns move
    monkeypatch.setenv("UNICONSIST_SEED", "999")
    code, out_diff = _run_consistency(tmp_path, "diff")
    assert code == 0
    assert (out_diff / "consistency_power.csv").read_bytes() != csv.read_bytes()

    # thread count changes no output byte
    monkeypatch.delenv("UNICONSIST_SEED")
    code, out_thr = _run_consistency(tmp_path, "thr", threads=4)
    assert code == 0
    assert (out_thr / "consistency_power.csv").read_bytes() == csv.read_bytes()


def test_suite_threshold_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UNICONSIST_SEED", raising=False)
    cfg = _write(tmp_path, "fail.json",
                 {"replicates": 2000, "table_replicates": 20000,
                  "widths": {"expected_first_index": 3}})
    code = main(["suite", "compactness", "--config", cfg,
                 "--out", str(tmp_path / "fail_out")])
    captured = capsys.readouterr()
    assert code == 3
    assert "suite compactness: FAIL" in captured.out
    assert "threshold failure" in captured.err
    # artifacts are still written for a failing suite
    assert (tmp_path / "fail_out" / "compactness_summary.json").exists()


def test_suite_unknown_name_exits_2(tmp_path, capsys):
    code = main(["suite", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, extra, message", [
    ("nosuch", [], "unknown suite 'nosuch'"),
    ("consistency", ["--threads", "0"], "--threads must be at least 1"),
])
def test_suite_command_line_error_skips_config_path(tmp_path, capsys, name,
                                                    extra, message):
    cfg = _write(tmp_path, "c.json", SMOKE_CONSISTENCY)
    code = main(["suite", name, "--config", cfg,
                 "--out", str(tmp_path / "o")] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {message}" in err and cfg not in err
    assert not (tmp_path / "o").exists()


def test_nulltable_threads_below_one_exits_2(tmp_path, capsys):
    out = tmp_path / "table.json"
    code = main(["nulltable", "cvm", "--alpha", "0.05", "--replicates", "200",
                 "--j-null", "16", "--threads", "0", "--out", str(out)])
    assert code == 2
    assert "error: --threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["suite", "nulltable"])
def test_threads_default_to_the_usable_cpus(tmp_path, monkeypatch, command):
    """Without --threads, suite and nulltable run on as many workers as the
    process may use CPUs; an explicit --threads still sets the count."""
    seen = []
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    monkeypatch.delenv("UNICONSIST_SEED", raising=False)
    if command == "suite":
        run_suite = cli.run_suite
        monkeypatch.setattr(cli, "run_suite", lambda *a, threads: seen.append(
            threads) or run_suite(*a, threads=threads))
        argv = ["suite", "consistency", "--config",
                _write(tmp_path, "c.json", SMOKE_CONSISTENCY),
                "--out", str(tmp_path / "o")]
    else:
        build = cli.build_cvm_null_table
        monkeypatch.setattr(cli, "build_cvm_null_table",
                            lambda *a, **k: seen.append(k["threads"])
                            or build(*a, **k))
        argv = ["nulltable", "cvm", "--alpha", "0.05", "--replicates", "200",
                "--j-null", "16", "--out", str(tmp_path / "table.json")]
    assert main(argv) == 0
    assert main(argv + ["--threads", "2"]) == 0
    assert seen == [3, 2]


def test_suite_unknown_top_level_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "typo.json", {"replicats": 100})
    code = main(["suite", "consistency", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert cfg in err and "'replicats'" in err
    assert not (tmp_path / "o").exists()


def test_suite_unknown_nested_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "nested.json", {"chi2": {"spikes": {}}})
    code = main(["suite", "interaction", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert cfg in err and "'chi2.spikes'" in err


@pytest.mark.parametrize("override, key, kind", [
    ({"quad": 5}, "'quad'", "a section"),
    ({"alpha": {"x": 1}}, "'alpha'", "a value"),
    ({"replicates": "x"}, "'replicates'", "an integer"),
    ({"alpha": "0.05"}, "'alpha'", "a number"),
    ({"quad": {"n_list": 5}}, "'quad.n_list'", "a list, each item an integer"),
    ({"thresholds": {"power_band": "x"}}, "'thresholds.power_band'",
     "a number"),
    ({"classify": {"c1": "x"}}, "'classify.c1'", "a number"),
    ({"quad": {"J": "8"}}, "'quad.J'", "an integer"),
])
def test_suite_section_value_clash_exits_2(tmp_path, capsys, override, key,
                                           kind):
    cfg = _write(tmp_path, "clash.json", override)
    code = main(["suite", "consistency", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert cfg in err and key in err and kind in err
    assert not (tmp_path / "o").exists()


def test_suite_nested_section_value_clash_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "clash.json", {"quad": {"head": {"c2": {}}}})
    code = main(["suite", "interaction", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert cfg in err and "'quad.head.c2'" in err


@pytest.mark.parametrize("name", ["compactness", "unbiasedness"])
def test_fixed_suite_series_too_long_names_L(tmp_path, capsys, name):
    cfg = _write(tmp_path, "long.json", {"L": _J_NULL_MAX + 1})
    code = main(["suite", name, "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert cfg in err and f"L must be in [1, {_J_NULL_MAX}]" in err
    assert "J_null" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("families", [["foo"], [], ["quad", "foo"], "quad",
                                      [["quad"]]])
def test_suite_interaction_bad_families_exits_2(tmp_path, capsys, families):
    cfg = _write(tmp_path, "fam.json", {"families": families})
    code = main(["suite", "interaction", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "families" in captured.err
    assert "PASS" not in captured.out
    assert not (tmp_path / "o").exists()


def test_bad_env_seed_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UNICONSIST_SEED", "not-an-int")
    cfg = _write(tmp_path, "cfg.json", SMOKE_CONSISTENCY)
    code = main(["suite", "consistency", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "UNICONSIST_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("name, config", [
    ("interaction", {"families": ["foo"]}),
    ("consistency", {"quad": {"mass_profile": "bogus"}}),
    ("consistency", {"quad": {"n_list": [512, 512, 2048, 4096]}}),
])
def test_suite_internal_error_names_config_file(tmp_path, capsys, name, config):
    # rejected inside the suite, not by the config merge
    cfg = _write(tmp_path, "internal.json", config)
    code = main(["suite", name, "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {cfg}: " in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["suite", "nulltable"])
def test_env_seed_out_of_range_skips_config_path(tmp_path, capsys,
                                                 monkeypatch, command, seed):
    monkeypatch.setenv("UNICONSIST_SEED", seed)
    cfg = _write(tmp_path, "cfg.json", {})
    if command == "suite":
        argv = ["suite", "unbiasedness", "--config", cfg,
                "--out", str(tmp_path / "o")]
    else:
        argv = ["nulltable", "cvm", "--alpha", "0.05", "--replicates", "200",
                "--j-null", "16"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: UNICONSIST_SEED={seed!r}: seed must be")
    assert cfg not in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["env", "config", "nulltable"])
def test_negative_seed_exits_2(tmp_path, capsys, monkeypatch, case):
    monkeypatch.delenv("UNICONSIST_SEED", raising=False)
    cfg = _write(tmp_path, "seed.json",
                 {"seed": -1} if case == "config" else {})
    if case == "env":
        monkeypatch.setenv("UNICONSIST_SEED", "-1")
    if case == "nulltable":
        argv = ["nulltable", "cvm", "--alpha", "0.05", "--replicates", "200",
                "--seed", "-1", "--j-null", "16"]
    else:
        argv = ["suite", "unbiasedness", "--config", cfg,
                "--out", str(tmp_path / "o")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "seed must be an integer" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_statistic_quad(tmp_path, capsys):
    J = 64
    data = {"profile": {"r": 0.3, "gamma": 2.0, "c": 1.0, "J": J,
                        "n_list": [64]},
            "alpha": 0.05, "n": 64, "y": [0.0] * J, "theta": [0.0] * J}
    code = main(["statistic", "quad", "--data",
                 _write(tmp_path, "q.json", data)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["family"] == "quad"
    assert out["reject"] is False
    assert out["predicted_beta"] == pytest.approx(0.95)


def test_statistic_kernel(tmp_path, capsys):
    data = {"kernel": "box", "alpha": 0.05, "n": 64, "h": 0.5,
            "y0": 0.0, "pairs": [[0.0, 0.0]] * 4}
    code = main(["statistic", "kernel", "--data",
                 _write(tmp_path, "k.json", data)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["family"] == "kernel"
    assert out["reject"] is False


def test_statistic_chi2(tmp_path, capsys):
    points = [0.05, 0.15, 0.35, 0.45, 0.55, 0.65, 0.85, 0.95]
    data = {"alpha": 0.05, "m": 4, "points": points}
    code = main(["statistic", "chi2", "--data",
                 _write(tmp_path, "c.json", data)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["family"] == "chi2"
    assert out["statistic"] == pytest.approx(
        chi2_statistic(np.array(points), 4))


def test_statistic_cvm_inline_and_file_table(tmp_path, capsys):
    table = build_cvm_null_table([0.05], replicates=2000, seed=3, J_null=128)
    points = list(np.linspace(0.03, 0.97, 25))
    data = {"alpha": 0.05, "points": points,
            "table": json.loads(table.to_json())}
    code = main(["statistic", "cvm", "--data",
                 _write(tmp_path, "v.json", data)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["statistic"] == pytest.approx(cvm_statistic(np.array(points)))

    table_path = tmp_path / "table.json"
    table_path.write_text(table.to_json(), encoding="utf-8")
    data["table"] = str(table_path)
    code = main(["statistic", "cvm", "--data",
                 _write(tmp_path, "v2.json", data)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == out


def test_statistic_fixed(tmp_path, capsys):
    data = {"kappa_sq": [0.5, 0.25], "z": [1.0, 0.0], "critical": 2.0}
    code = main(["statistic", "fixed", "--data",
                 _write(tmp_path, "f.json", data)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["statistic"] == pytest.approx(0.5)
    assert out["reject"] is False
    data.pop("critical")
    main(["statistic", "fixed", "--data", _write(tmp_path, "f2.json", data)])
    assert json.loads(capsys.readouterr().out)["reject"] is None


def test_statistic_malformed_json_anchor(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"alpha": 0.05,\n  "m": }\n', encoding="utf-8")
    code = main(["statistic", "chi2", "--data", str(path)])
    assert code == 2
    assert f"{path}:2:" in capsys.readouterr().err


def test_statistic_cvm_missing_table_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "no_table.json"
    data = {"alpha": 0.05, "points": [0.2, 0.5, 0.8], "table": str(missing)}
    code = main(["statistic", "cvm", "--data",
                 _write(tmp_path, "v.json", data)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_statistic_chi2_non_integer_cells_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "c.json",
                  {"alpha": 0.05, "m": "x", "points": [0.1, 0.6]})
    code = main(["statistic", "chi2", "--data", path])
    assert code == 2
    assert path in capsys.readouterr().err


_PROFILE = {"r": 0.3, "gamma": 2.0, "c": 1.0, "J": 8, "n_list": [64]}
_QUAD = {"profile": _PROFILE, "alpha": 0.05, "n": 64, "y": [0.0] * 8}
_KERNEL = {"kernel": "box", "alpha": 0.05, "n": 64, "h": 0.5, "y0": 0.0,
           "pairs": [[0.0, 0.0]] * 4}
_CHI2 = {"alpha": 0.05, "m": 4, "points": [0.1, 0.6]}
_TABLE = {"alpha": [0.05], "critical": [0.46], "J_null": 16,
          "replicates": 200, "seed": 3}
_CVM = {"alpha": 0.05, "points": [0.2, 0.5, 0.8], "table": _TABLE}
_SIG = {"basis": "CosinePi", "coeffs": [0.5]}
_SEQ = {"family": "cvm", "r": 0.25, "kind": "consistent", "norm_lo": 0.75,
        "norm_hi": 1.0, "metadata": {},
        "signals": [[16, _SIG], [81, {"basis": "CosinePi", "coeffs": [0.25]}],
                    [256, {"basis": "CosinePi", "coeffs": [0.2]}]]}
_FLAG = {"statistic": "--data", "widths": "--set", "classify": "--sequence"}


@pytest.mark.parametrize("command, data, key", [
    (["statistic", "kernel"], {**_KERNEL, "kernel": ["box"]}, "'kernel'"),
    (["statistic", "kernel"], {**_KERNEL, "h": "0.15"}, "'h'"),
    (["statistic", "chi2"], {**_CHI2, "points": []}, "points"),
    (["statistic", "chi2"], {**_CHI2, "points": [0.5]}, "points"),
    (["statistic", "chi2"], {"alpha": 0.05, "m_rule": [0.25, 1.0],
                             "points": [0.5]}, "points"),
    (["statistic", "chi2"], {**_CHI2, "points": "0.1 0.6"}, "'points'"),
    (["statistic", "chi2"], {**_CHI2, "signal": {"basis": "CosinePi",
                                                 "coeffs": "x"}}, "'signal'"),
    (["statistic", "quad"], {**_QUAD, "y": "0"}, "'y'"),
    (["statistic", "quad"], {**_QUAD, "profile": {**_PROFILE, "r": "0.3"}},
     "'r'"),
    (["statistic", "fixed"], {"kappa_sq": [0.5], "z": [1.0],
                              "critical": "x"}, "'critical'"),
    (["statistic", "fixed"], [1.0], "JSON object"),
    (["widths"], {"kind": "ellipsoid"}, "'axes'"),
    (["widths"], {"kind": "points"}, "'points'"),
    (["classify"], {**_SEQ, "signals": [[1]]}, "'signals'"),
    (["classify"], {**_SEQ, "signals": [["x", _SIG]]}, "'signals'"),
    (["classify"], {**_SEQ, "signals": 5}, "'signals'"),
    (["classify"], {**_SEQ, "signals": []}, "'signals'"),
    (["classify"], {**_SEQ, "norm_lo": "x"}, "'norm_lo'"),
    (["classify"], {**_SEQ, "metadata": 5}, "'metadata'"),
    (["statistic", "cvm"], {**_CVM, "table": {**_TABLE, "J_null": "abc"}},
     "'J_null'"),
    (["statistic", "cvm"], {**_CVM, "table": {**_TABLE, "J_null": 1e400}},
     "'J_null'"),
    (["statistic", "cvm"], {**_CVM, "table": {**_TABLE, "alpha": ["x"]}},
     "'alpha'"),
    (["statistic", "quad"], {**_QUAD, "profile": {**_PROFILE, "gamma": 1e308}},
     "gamma = 1e+308"),
    (["statistic", "quad"], {**_QUAD, "profile": {**_PROFILE, "J": 2**70}},
     "J must be in [2, "),
    (["statistic", "kernel"], {**_KERNEL, "sigma": 1e308}, "noise_sigma"),
    (["statistic", "quad"], {**_QUAD, "alpha": 10**400}, "'alpha'"),
    (["statistic", "chi2"], json.dumps(_CHI2)[:-1] + ', "signal": 1' + "0" * 5000
     + "}", "4300 digits"),
    (["statistic", "chi2"], {**_CHI2, "points": [0.2, 0.5, 1.5, 0.7]},
     "points outside [0,1]: [1.5]"),
    (["statistic", "cvm"], {**_CVM, "points": [0.2, 0.5, 1.5, -0.7]},
     "points outside [0,1]: [1.5, -0.7]"),
    (["statistic", "quad"], {**_QUAD, "profile": {**_PROFILE, "n_list": [64.5]}},
     "'n_list'"),
    (["classify"], {**_SEQ, "profile": {**_PROFILE, "n_list": [64.5]}},
     "'n_list'"),
    (["statistic", "cvm"], {**_CVM, "table": {**_TABLE, "J_null": 0}},
     "J_null must be in"),
    (["statistic", "cvm"], {**_CVM, "table": {**_TABLE, "replicates": 3}},
     "replicates must be at least 100"),
], ids=["kernel-name-list", "kernel-h-string", "chi2-no-points",
        "chi2-one-point", "chi2-one-point-m-rule", "chi2-points-string",
        "chi2-signal-coeffs-string", "quad-y-string", "quad-r-string",
        "fixed-critical-string", "not-an-object", "ellipsoid-no-axes",
        "points-no-points", "sequence-short-pair", "sequence-string-n",
        "sequence-signals-number", "sequence-no-signals",
        "sequence-norm-lo-string", "sequence-metadata-number",
        "cvm-table-j-null-string", "cvm-table-j-null-overflow",
        "cvm-table-alpha-strings", "quad-gamma-overflow", "quad-j-too-large",
        "kernel-sigma-overflow", "quad-alpha-beyond-float",
        "chi2-signal-int-past-digit-limit", "chi2-point-above-one",
        "cvm-points-outside", "quad-n-list-fraction", "classify-n-list-fraction",
        "cvm-table-j-null-zero", "cvm-table-few-replicates"])
def test_malformed_data_field_exits_2(tmp_path, capsys, command, data, key):
    path = _write(tmp_path, "bad.json", data)
    code = main(command + [_FLAG[command[0]], path])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {path}" in err and key in err and "Traceback" not in err


def test_statistic_missing_key(tmp_path, capsys):
    code = main(["statistic", "quad", "--data",
                 _write(tmp_path, "m.json", {"alpha": 0.05})])
    assert code == 2
    assert "missing key 'profile'" in capsys.readouterr().err


def test_classify_cvm_sequence(tmp_path, capsys):
    seq = make_consistent(cvm_family(0.25), 1.0, "spread",
                          [256, 1024, 4096], norm_const=1.0)
    code = main(["classify", "--sequence",
                 _write(tmp_path, "seq.json", seq.to_json_dict())])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "purely-consistent-witness"


def test_classify_without_flags_uses_the_default_thresholds(tmp_path, capsys):
    seq = make_consistent(cvm_family(0.25), 1.0, "spread", [256, 1024, 4096])
    code = main(["classify", "--sequence",
                 _write(tmp_path, "seq.json", seq.to_json_dict())])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["evidence"]["thresholds"] == asdict(ClassifyThresholds())
    assert out == json.loads(json.dumps(classify(seq).to_json_dict()))


def test_classify_quad_sequence_needs_embedded_profile(tmp_path, capsys):
    spec = {"r": 0.3, "gamma": 2.0, "c": 1.0, "J": 512,
            "n_list": [64, 128, 256]}
    profile = build_profile(**{k: spec[k] for k in
                               ("r", "gamma", "c", "J", "n_list")})
    seq = make_consistent(quad_family(profile), 1.0, "lowest",
                          spec["n_list"], norm_const=1.0)
    obj = {**seq.to_json_dict(), "profile": spec}
    code = main(["classify", "--sequence", _write(tmp_path, "q.json", obj)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "purely-consistent-witness"

    obj.pop("profile")
    code = main(["classify", "--sequence", _write(tmp_path, "q2.json", obj)])
    assert code == 2
    assert "profile" in capsys.readouterr().err


def test_nulltable_to_file_and_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UNICONSIST_SEED", raising=False)
    out_path = tmp_path / "table.json"
    code = main(["nulltable", "cvm", "--alpha", "0.05", "0.1",
                 "--replicates", "2000", "--seed", "7", "--j-null", "128",
                 "--out", str(out_path)])
    assert code == 0
    assert str(out_path) in capsys.readouterr().out
    table = CvmNullTable.from_json(out_path.read_text())
    assert table.critical(0.05) > table.critical(0.1) > 0.0

    code = main(["nulltable", "cvm", "--alpha", "0.05", "0.1",
                 "--replicates", "2000", "--seed", "7", "--j-null", "128"])
    assert code == 0
    stdout_table = capsys.readouterr().out
    assert stdout_table == out_path.read_text()

    # env seed fills in when --seed is omitted
    monkeypatch.setenv("UNICONSIST_SEED", "7")
    code = main(["nulltable", "cvm", "--alpha", "0.05", "0.1",
                 "--replicates", "2000", "--j-null", "128"])
    assert code == 0
    assert capsys.readouterr().out == stdout_table


_OUT_REFUSED = {"existing file": "File exists",
                "file on the way": "Not a directory",
                "missing directory": "No such file or directory",
                "directory": "Is a directory"}


@pytest.mark.parametrize("case", sorted(_OUT_REFUSED))
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, case):
    """An --out that cannot be written exits 2 naming it, not a traceback,
    before any Monte Carlo work (the block runner fails if it is called)
    and creating nothing."""
    def no_engine(*args, **kwargs):
        raise AssertionError("the Monte Carlo run started")

    monkeypatch.setattr(cvm, "run_blocks", no_engine)
    monkeypatch.setattr(mclab, "run_blocks", no_engine)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    config = _write(tmp_path, "cfg.json", {"replicates": 100})
    if case in ("existing file", "file on the way"):
        out = taken if case == "existing file" else taken / "artifacts"
        argv = ["suite", "compactness", "--config", config, "--threads", "1"]
    else:
        out = tmp_path / "missing" / "t.json" if case == "missing directory" else tmp_path
        argv = ["nulltable", "cvm", "--alpha", "0.05", "--replicates", "200",
                "--j-null", "16"]
    before = sorted(tmp_path.rglob("*"))
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {out}: {_OUT_REFUSED[case]}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_out_taken_during_the_run_exits_2(tmp_path, capsys, monkeypatch):
    """The write keeps its own check: an --out that a file takes while the
    suite runs exits 2 naming it."""
    out = tmp_path / "artifacts"

    def run_then_take(*args, **kwargs):
        result = run_suite(*args, **kwargs)
        out.write_text("", encoding="utf-8")
        return result

    run_suite = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", run_then_take)
    code = main(["suite", "compactness", "--config",
                 _write(tmp_path, "cfg.json", {"replicates": 100}),
                 "--threads", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {out}: File exists\n"


def test_nulltable_without_series_terms_exits_2(capsys):
    code = main(["nulltable", "cvm", "--alpha", "0.05", "--replicates", "200",
                 "--j-null", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"J_null must be in [1, {_J_NULL_MAX}], got 0" in err


@pytest.mark.parametrize("j_null", [2**70, _J_NULL_MAX + 1],
                         ids=["2**70", "bound+1"])
def test_nulltable_series_too_long_exits_2(capsys, j_null):
    code = main(["nulltable", "cvm", "--alpha", "0.05", "--replicates", "200",
                 "--j-null", str(j_null)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"J_null must be in [1, {_J_NULL_MAX}]" in err and "Traceback" not in err


def test_widths_ellipsoid(tmp_path, capsys):
    code = main(["widths", "--set",
                 _write(tmp_path, "set.json",
                        {"kind": "ellipsoid", "axes": [3.0, 1.0, 2.0]}),
                 "--i-max", "5", "--epsilon", "0.5"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["widths"] == [3.0, 2.0, 1.0, 0.0, 0.0]
    assert out["first_index"] == 4
    assert "drop below" in out["verdict"]


def test_widths_unknown_kind(tmp_path, capsys):
    code = main(["widths", "--set",
                 _write(tmp_path, "bad_set.json", {"kind": "torus"})])
    assert code == 2
    assert "unknown set kind" in capsys.readouterr().err


# A valid input of every kind the CLI reads. Optional fields are present, so
# the property below also breaks them.
_VALID = [
    (["statistic", "quad"], {**_QUAD, "theta": [0.0] * 8}),
    (["statistic", "kernel"], {**_KERNEL, "sigma": 1.0, "theta": {
        "basis": "TrigFull", "coeffs": [[0.0, 0.1]]}}),
    (["statistic", "chi2"], {**_CHI2, "signal": {"basis": "TrigFull",
                                                 "coeffs": [[0.1, 0.0]]}}),
    (["statistic", "cvm"], _CVM),
    (["statistic", "fixed"], {"kappa_sq": [0.5, 0.25], "sigmas": [1.0, 1.0],
                              "z": [1.0, 0.0], "critical": 2.0}),
    (["widths"], {"kind": "points", "points": [[1.0, 0.0], [0.5, 0.5]]}),
    (["classify"], _SEQ),
]
# Never run whole: each example of the property breaks one of its fields.
_SUITE = (["suite", "consistency"], {
    "replicates": 400, "alpha": 0.05, "thresholds": {"power_band": 0.05},
    "quad": {"J": 8192, "n_list": [512, 1024], "mass_profile": "spread"}})
# Fields where null means absent, so null is a valid value.
_NULL_MEANS_ABSENT = {"theta", "signal", "sigmas", "critical"}


def _fields(obj, path=()):
    for key, value in obj.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _fields(value, path + (key,))


def _replace(obj, path, value):
    inner = value if len(path) == 1 else _replace(obj[path[0]], path[1:], value)
    return {**obj, path[0]: inner}


def _argv(command, path, tmp_path):
    if command[0] == "suite":
        return command + ["--config", path, "--out", str(tmp_path / "o")]
    return command + [_FLAG[command[0]], path]


@pytest.mark.parametrize("command, data", _VALID,
                         ids=["-".join(c) for c, _ in _VALID])
def test_valid_input_of_every_kind_exits_0(tmp_path, capsys, command, data):
    path = _write(tmp_path, "ok.json", data)
    assert main(_argv(command, path, tmp_path)) == 0, capsys.readouterr().err


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from([(command, data, path)
                             for command, data in _VALID + [_SUITE]
                             for path in _fields(data)]),
       wrong=st.sampled_from(["x", True, ["x"], {"x": 1}, None]))
def test_wrong_type_field_exits_2(tmp_path, capsys, case, wrong):
    command, data, field = case
    current = reduce(lambda obj, key: obj[key], field, data)
    assume(not (isinstance(wrong, (str, dict)) and type(wrong) is type(current)))
    assume(not (wrong is None and field[-1] in _NULL_MEANS_ABSENT))
    path = _write(tmp_path, "wrong.json", _replace(data, field, wrong))
    code = main(_argv(command, path, tmp_path))
    err = capsys.readouterr().err
    assert code == 2, (field, wrong, err)
    assert err.startswith(f"error: {path}") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _number_arrays(obj, path=()):
    """Paths of the fields of ``obj`` that hold JSON arrays of numbers."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _number_arrays(value, path + (key,))
        elif isinstance(value, list) and all(
                isinstance(x, (int, float)) for x in np.ravel(value).tolist()):
            yield path + (key,)


def _first_entry(value, entry):
    """``value``, a nested list, with its first number replaced by ``entry``."""
    if isinstance(value, list):
        return [_first_entry(value[0], entry)] + value[1:]
    return entry


_ARRAY_FIELDS = [(command, data, field) for command, data in _VALID
                 for field in _number_arrays(data)]


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command, data, field", _ARRAY_FIELDS,
                         ids=["-".join(c) + ":" + ".".join(f)
                              for c, _, f in _ARRAY_FIELDS])
def test_non_finite_array_entry_exits_2(tmp_path, capsys, command, data,
                                        field, entry):
    """Python's json reads NaN and Infinity; no array field accepts them."""
    current = reduce(lambda obj, key: obj[key], field, data)
    path = _write(tmp_path, "nan.json",
                  _replace(data, field, _first_entry(current, entry)))
    code = main(_argv(command, path, tmp_path))
    err = capsys.readouterr().err
    assert code == 2, (field, entry, err)
    assert err.startswith(f"error: {path}") and repr(field[-1]) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf],
                         ids=["NaN", "Infinity", "-Infinity"])
def test_non_finite_suite_threshold_exits_2(tmp_path, capsys, entry):
    path = _write(tmp_path, "cfg.json", {"thresholds": {"final_excess": entry}})
    code = main(["suite", "compactness", "--config", path,
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {path}") and "'thresholds.final_excess'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("table", [
    {**_TABLE, "alpha": [0.1, 0.05], "critical": [0.5, 0.4]},
    {**_TABLE, "alpha": [0.1, 0.05], "critical": [0.4, 0.5]},
    {**_TABLE, "alpha": [0.05, 0.05], "critical": [0.46, 0.46]},
    {**_TABLE, "alpha": [0.05, 1.5], "critical": [0.46, 0.1]},
], ids=["descending-pairs-swapped", "descending", "repeated", "past-1"])
def test_cvm_table_alphas_must_increase_within_unit_interval(tmp_path, capsys,
                                                             table):
    path = _write(tmp_path, "t.json", {**_CVM, "table": table})
    code = main(["statistic", "cvm", "--data", path])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {path}") and "alphas must increase" in err


_FLOAT_FLAGS = [
    (["classify", "--sequence", "seq.json"], "--c1"),
    (["classify", "--sequence", "seq.json"], "--c2"),
    (["classify", "--sequence", "seq.json"], "--eps"),
    (["classify", "--sequence", "seq.json"], "--C1"),
    (["nulltable", "cvm", "--replicates", "200"], "--alpha"),
    (["widths", "--set", "set.json"], "--epsilon"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag", _FLOAT_FLAGS,
                         ids=[flag for _, flag in _FLOAT_FLAGS])
def test_non_finite_float_flag_exits_2(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(command + [f"{flag}={value}"])
    err = capsys.readouterr().err
    assert exc.value.code == 2, err
    assert f"argument {flag}: expected a finite number" in err
    assert "Traceback" not in err
