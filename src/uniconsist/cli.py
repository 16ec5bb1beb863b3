"""Command-line interface.

Subcommands: suite, statistic, classify, nulltable, widths. Exit codes:
0 success, 2 validation problems (malformed JSON is reported with a
file:line anchor, a missing or mistyped field with the file and the key),
3 when a suite ran but failed its thresholds.

UNICONSIST_SEED in the environment overrides the seed of any suite config;
--threads caps worker threads without changing any output byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
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
from .rng import check_seed
from .signals import signal_from_json
from .suites import SUITES, default_config, run_suite, write_result


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}:1: expected a JSON object")
    return obj


@contextmanager
def _prefix(label: str | None):
    """Put ``label`` (a file path, a key) in front of every validation error
    raised inside; None leaves them as they are."""
    try:
        yield
    except ValidationError as exc:
        if label is None:
            raise
        raise ValidationError(f"{label}: {exc}") from exc


def _require(obj: dict, key: str):
    try:
        return obj[key]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"missing key {key!r}") from exc


# The JSON values each scalar kind accepts, and its name in errors.
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"),
            str: (str, "a string")}


def _scalar(obj: dict, key: str, kind=float):
    """``obj[key]`` as ``kind`` (float, int or str); never a boolean."""
    value = _require(obj, key)
    types, name = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValidationError(f"{key!r} must be {name}, got {value!r}")
    return kind(value)


def _array(obj: dict, key: str, ndim: int = 1) -> np.ndarray:
    value = _require(obj, key)
    try:
        arr = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.ndim != ndim:
        raise ValidationError(f"{key!r} must be a {ndim}-D array of numbers")
    return arr.astype(float)


def _pair(obj: dict, key: str) -> tuple[float, float]:
    arr = _array(obj, key)
    if arr.shape != (2,):
        raise ValidationError(f"{key!r} must be a pair of numbers")
    return float(arr[0]), float(arr[1])


def _signal(obj: dict, key: str):
    with _prefix(repr(key)):
        return signal_from_json(_require(obj, key))


def _optional(read, obj: dict, key: str, *args):
    """``read(obj, key, *args)``, or None when the key is absent or null."""
    return None if obj.get(key) is None else read(obj, key, *args)


def _profile_from(obj: dict):
    spec = _require(obj, "profile")
    return build_profile(_scalar(spec, "r"), _scalar(spec, "gamma"),
                         _scalar(spec, "c"), _scalar(spec, "J", int),
                         _array(spec, "n_list"))


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _env_seed() -> int | None:
    raw = os.environ.get("UNICONSIST_SEED")
    if raw is None:
        return None
    try:
        return check_seed(int(raw))
    except ValueError:
        raise ValidationError(f"UNICONSIST_SEED={raw!r}: seed must be an "
                              f"integer in [0, 2**64)") from None


def cmd_suite(args) -> int:
    # The suite name, --threads and UNICONSIST_SEED do not come from the
    # config: check them before config errors get the config path.
    default_config(args.name)
    if args.threads < 1:
        raise ValidationError("--threads must be at least 1")
    config = _load_json(args.config) if args.config else {}
    seed = _env_seed()
    if seed is not None:
        config = {**config, "seed": seed}
    with _prefix(args.config):
        result = run_suite(args.name, config, threads=args.threads)
    for path in write_result(result, args.out):
        print(path)
    print(f"suite {result.name}: {'PASS' if result.passed else 'FAIL'}")
    if not result.passed:
        raise ThresholdError(f"suite {result.name} failed its thresholds")
    return 0


def _statistic_quad(data) -> dict:
    config = QuadTestConfig(_profile_from(data), _scalar(data, "alpha"))
    return quad_decide(_array(data, "y"), config, _scalar(data, "n", int),
                       _optional(_array, data, "theta")).to_json_dict()


def _statistic_kernel(data) -> dict:
    config = KernelTestConfig(
        kernel=builtin_kernel(_scalar(data, "kernel", str)),
        alpha=_scalar(data, "alpha"),
        noise_sigma=_scalar(data, "sigma") if "sigma" in data else 1.0,
        h=_optional(_scalar, data, "h"),
        h_rule=_optional(_pair, data, "h_rule"))
    obs = KernelObservations(y0=_scalar(data, "y0"),
                             pairs=_array(data, "pairs", 2))
    theta = _optional(_signal, data, "theta")
    return kernel_decide(obs, config, _scalar(data, "n", int),
                         theta).to_json_dict()


def _statistic_chi2(data) -> dict:
    config = Chi2Config(alpha=_scalar(data, "alpha"),
                        m=_optional(_scalar, data, "m", int),
                        m_rule=_optional(_pair, data, "m_rule"))
    points = _array(data, "points")
    signal = _optional(_signal, data, "signal")
    return chi2_decide(points, config, points.size, signal).to_json_dict()


def _statistic_cvm(data) -> dict:
    table_ref = _require(data, "table")
    if isinstance(table_ref, str):
        table_ref = _load_json(table_ref)
    table = CvmNullTable.from_json(json.dumps(table_ref))
    return cvm_decide(_array(data, "points"), table, _scalar(data, "alpha")
                      ).to_json_dict()


def _statistic_fixed(data) -> dict:
    fk = FixedKappa(_array(data, "kappa_sq"), _optional(_array, data, "sigmas"))
    stat = fixed_kappa_statistic(_array(data, "z"), fk)
    critical = _optional(_scalar, data, "critical")
    return {"family": "fixed", "statistic": stat, "critical": critical,
            "reject": None if critical is None else bool(stat > critical)}


_STATISTIC = {"quad": _statistic_quad, "kernel": _statistic_kernel,
              "chi2": _statistic_chi2, "cvm": _statistic_cvm,
              "fixed": _statistic_fixed}


def cmd_statistic(args) -> int:
    data = _load_json(args.data)
    with _prefix(args.data):
        report = _STATISTIC[args.family](data)
    _print_json(report)
    return 0


def cmd_classify(args) -> int:
    obj = _load_json(args.sequence)
    with _prefix(args.sequence):
        profile = _profile_from(obj) if "profile" in obj else None
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
    descriptor = _load_json(args.set)
    with _prefix(args.set):
        descriptor = set_from_json(descriptor)
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
