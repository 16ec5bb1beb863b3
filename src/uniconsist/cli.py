"""Command-line interface.

Subcommands: suite, statistic, classify, nulltable, widths. Exit codes:
0 success, 2 validation problems (malformed input files are reported with
a file:line anchor), 3 when a suite ran but failed its thresholds.

UNICONSIST_SEED in the environment overrides the seed of any suite config;
--threads caps worker threads without changing any output byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .alternatives import ClassifyThresholds, classify, sequence_from_json
from .chi2 import Chi2Config
from .chi2 import decide_and_predict as chi2_decide
from .cvm import CvmNullTable, build_cvm_null_table, decide as cvm_decide
from .errors import ThresholdError, UniconsistError, ValidationError
from .funclasses import compactness_diagnostic, greedy_widths, set_from_json
from .kernel import KernelObservations, KernelTestConfig, builtin_kernel
from .kernel import decide_and_predict as kernel_decide
from .quad import FixedKappa, QuadTestConfig, build_profile, fixed_kappa_statistic
from .quad import decide_and_predict as quad_decide
from .signals import signal_from_json
from .suites import SUITES, default_config, run_suite, write_result


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def _require(obj: dict, key: str, path: str):
    try:
        return obj[key]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: missing key {key!r}") from exc


def _profile_from(obj: dict, path: str):
    spec = _require(obj, "profile", path)
    return build_profile(
        float(_require(spec, "r", path)), float(_require(spec, "gamma", path)),
        float(_require(spec, "c", path)), int(_require(spec, "J", path)),
        _require(spec, "n_list", path))


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _env_seed() -> int | None:
    raw = os.environ.get("UNICONSIST_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"UNICONSIST_SEED must be an integer, got {raw!r}")


def cmd_suite(args) -> int:
    # The suite name and --threads come from the command line, not the
    # config: check them before config errors get the config path.
    default_config(args.name)
    if args.threads < 1:
        raise ValidationError("--threads must be at least 1")
    config = _load_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ValidationError(f"{args.config}:1: suite config must be a JSON object")
    seed = _env_seed()
    if seed is not None:
        config = {**config, "seed": seed}
    try:
        result = run_suite(args.name, config, threads=args.threads)
    except ValidationError as exc:
        if not args.config:
            raise
        raise ValidationError(f"{args.config}: {exc}") from exc
    for path in write_result(result, args.out):
        print(path)
    print(f"suite {result.name}: {'PASS' if result.passed else 'FAIL'}")
    if not result.passed:
        raise ThresholdError(f"suite {result.name} failed its thresholds")
    return 0


def _statistic_quad(data, path: str) -> dict:
    profile = _profile_from(data, path)
    config = QuadTestConfig(profile, float(_require(data, "alpha", path)))
    y = np.asarray(_require(data, "y", path), dtype=float)
    theta = data.get("theta")
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
    return quad_decide(y, config, int(_require(data, "n", path)),
                       theta).to_json_dict()


def _statistic_kernel(data, path: str) -> dict:
    kernel = builtin_kernel(_require(data, "kernel", path))
    h_rule = data.get("h_rule")
    config = KernelTestConfig(
        kernel=kernel, alpha=float(_require(data, "alpha", path)),
        noise_sigma=float(data.get("sigma", 1.0)),
        h=data.get("h"), h_rule=None if h_rule is None else tuple(h_rule))
    obs = KernelObservations(
        y0=float(_require(data, "y0", path)),
        pairs=np.asarray(_require(data, "pairs", path), dtype=float))
    theta = data.get("theta")
    if theta is not None:
        theta = signal_from_json(theta)
    return kernel_decide(obs, config, int(_require(data, "n", path)),
                         theta).to_json_dict()


def _statistic_chi2(data, path: str) -> dict:
    m_rule = data.get("m_rule")
    m = data.get("m")
    if m is not None and not isinstance(m, int):
        raise ValidationError(f"{path}: 'm' must be an integer, got {m!r}")
    config = Chi2Config(alpha=float(_require(data, "alpha", path)), m=m,
                        m_rule=None if m_rule is None else tuple(m_rule))
    points = np.asarray(_require(data, "points", path), dtype=float)
    signal = data.get("signal")
    if signal is not None:
        signal = signal_from_json(signal)
    return chi2_decide(points, config, points.size, signal).to_json_dict()


def _statistic_cvm(data, path: str) -> dict:
    table_ref = _require(data, "table", path)
    if isinstance(table_ref, str):
        table_ref = _load_json(table_ref)
    table = CvmNullTable.from_json(json.dumps(table_ref))
    points = np.asarray(_require(data, "points", path), dtype=float)
    return cvm_decide(points, table, float(_require(data, "alpha", path))
                      ).to_json_dict()


def _statistic_fixed(data, path: str) -> dict:
    fk = FixedKappa(np.asarray(_require(data, "kappa_sq", path), dtype=float),
                    None if data.get("sigmas") is None
                    else np.asarray(data["sigmas"], dtype=float))
    z = np.asarray(_require(data, "z", path), dtype=float)
    stat = fixed_kappa_statistic(z, fk)
    critical = data.get("critical")
    return {"family": "fixed", "statistic": stat, "critical": critical,
            "reject": None if critical is None else bool(stat > critical)}


_STATISTIC = {"quad": _statistic_quad, "kernel": _statistic_kernel,
              "chi2": _statistic_chi2, "cvm": _statistic_cvm,
              "fixed": _statistic_fixed}


def cmd_statistic(args) -> int:
    data = _load_json(args.data)
    _print_json(_STATISTIC[args.family](data, args.data))
    return 0


def cmd_classify(args) -> int:
    obj = _load_json(args.sequence)
    profile = _profile_from(obj, args.sequence) if "profile" in obj else None
    seq = sequence_from_json(obj, profile)
    thresholds = ClassifyThresholds(c1=args.c1, c2=args.c2, eps=args.eps,
                                    C1=args.C1)
    _print_json(classify(seq, thresholds).to_json_dict())
    return 0


def cmd_nulltable(args) -> int:
    seed = args.seed
    if seed is None:
        seed = _env_seed() or 0
    table = build_cvm_null_table(args.alpha, args.replicates, seed,
                                 J_null=args.j_null)
    if args.out:
        Path(args.out).write_text(table.to_json(), encoding="utf-8")
        print(args.out)
    else:
        sys.stdout.write(table.to_json())
    return 0


def cmd_widths(args) -> int:
    descriptor = set_from_json(_load_json(args.set))
    seq = greedy_widths(descriptor, args.i_max)
    diag = compactness_diagnostic(descriptor, args.epsilon, args.i_max)
    _print_json({"widths": [float(w) for w in seq.widths],
                 "epsilon": args.epsilon,
                 "first_index": diag.first_index,
                 "verdict": diag.verdict})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniconsist",
        description="Signal-detection test laboratory: suites, statistics, "
                    "classification, null tables, widths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run a registered experiment suite")
    p.add_argument("name", help=f"one of {sorted(SUITES)}")
    p.add_argument("--config", help="JSON config merged over the defaults")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("statistic", help="evaluate one test on one data file")
    p.add_argument("family", choices=sorted(_STATISTIC))
    p.add_argument("--data", required=True, help="JSON data file")
    p.set_defaults(fn=cmd_statistic)

    p = sub.add_parser("classify", help="classify a serialized sequence")
    p.add_argument("--sequence", required=True, help="JSON sequence file")
    p.add_argument("--c1", type=float, default=0.5)
    p.add_argument("--c2", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--C1", type=float, default=4.0)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("nulltable", help="generate a null critical-value table")
    p.add_argument("family", choices=["cvm"])
    p.add_argument("--alpha", type=float, nargs="+", required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--j-null", type=int, default=1024)
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(fn=cmd_nulltable)

    p = sub.add_parser("widths", help="greedy approximation widths of a set")
    p.add_argument("--set", required=True, help="JSON set descriptor")
    p.add_argument("--i-max", type=int, default=16)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.set_defaults(fn=cmd_widths)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ThresholdError as exc:
        print(f"threshold failure: {exc}", file=sys.stderr)
        return 3
    except UniconsistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
