"""End-to-end command-line runs through main(argv): exit codes and outputs."""

import json

import numpy as np
import pytest

from uniconsist.chi2 import chi2_statistic
from uniconsist.cli import main
from uniconsist.cvm import CvmNullTable, build_cvm_null_table, cvm_statistic
from uniconsist.alternatives import cvm_family, make_consistent, quad_family
from uniconsist.quad import build_profile

SMOKE_CONSISTENCY = {"replicates": 400}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
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
])
def test_suite_internal_error_names_config_file(tmp_path, capsys, name, config):
    # rejected inside the suite, not by the config merge
    cfg = _write(tmp_path, "internal.json", config)
    code = main(["suite", name, "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {cfg}: " in captured.err
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
