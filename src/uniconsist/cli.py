"""Command-line interface.

Subcommands: suite, statistic, classify, nulltable, widths. Exit codes:
0 success, 2 validation problems, 3 when a suite ran but failed its
thresholds. Malformed JSON is reported with a file:line anchor, and an
input that cannot be read or an --out that cannot be written with its path;
an --out that the file system already rules out is refused before any work.
Every field of a statistic data file, cvm null table, widths set or
classify sequence is read through the typed readers of ``reports``, and a
suite config value must have its default's JSON type, so a missing,
mistyped or unrepresentable field is reported with the file and the key.

UNICONSIST_SEED in the environment overrides the seed of any suite config;
--threads (suite, nulltable) sets the worker threads, by default the CPUs
the process may use, without changing any output byte.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .alternatives import ClassifyThresholds, classify, sequence_from_json
from .chi2 import Chi2Config
from .chi2 import decide_and_predict as chi2_decide
from .cvm import CvmNullTable, build_cvm_null_table, decide as cvm_decide
from .errors import ThresholdError, UniconsistError, ValidationError, check_count
from .funclasses import compactness_diagnostic, set_from_json
from .kernel import KernelObservations, KernelTestConfig, builtin_kernel
from .kernel import decide_and_predict as kernel_decide
from .quad import FixedKappa, QuadTestConfig, build_profile, fixed_kappa_statistic
from .quad import decide_and_predict as quad_decide
from .reports import json_array, json_optional, json_require, json_value
from .rng import check_seed
from .signals import signal_from_json
from .suites import SUITES, default_config, run_suite, write_result


@contextmanager
def _file_errors(path: str):
    """Report an OSError on reading or writing ``path`` (or a file in it) as
    a validation error naming the file."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"{exc.filename or path}: "
                              f"{exc.strerror or exc}") from exc


def _check_out(path: str, directory: bool) -> None:
    """Refuse, before any work and creating nothing, an --out that the write
    after the run would refuse: a file where the suite's directory, or a
    directory to be made for it, goes; a directory as the table file; a
    table file whose directory is missing or not a directory."""
    target = path if directory else os.path.dirname(path) or os.curdir
    there = target
    while not os.path.lexists(there):
        there = os.path.dirname(there) or os.curdir
    if not directory and os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(there):
        code = errno.EEXIST if there == path else errno.ENOTDIR
    elif there != target and not directory:
        code = errno.ENOENT
    else:
        return
    raise ValidationError(f"{path}: {os.strerror(code)}")


def _load_json(path: str) -> dict:
    with _file_errors(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        where = f"{path}:{exc.lineno}" if hasattr(exc, "lineno") else path
        raise ValidationError(f"{where}: {getattr(exc, 'msg', exc)}") from exc
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


def _pair(obj: dict, key: str) -> tuple[float, float]:
    arr = json_array(obj, key)
    if arr.shape != (2,):
        raise ValidationError(f"{key!r} must be a pair of numbers")
    return float(arr[0]), float(arr[1])


def _signal(obj: dict, key: str):
    with _prefix(repr(key)):
        return signal_from_json(json_value(obj, key, dict))


def _profile_from(obj: dict):
    spec = json_value(obj, "profile", dict)
    n_list = json_require(spec, "n_list")
    if not (isinstance(n_list, list) and all(type(n) is int for n in n_list)):
        raise ValidationError("'n_list' must be an array of integers")
    return build_profile(json_value(spec, "r"), json_value(spec, "gamma"),
                         json_value(spec, "c"), json_value(spec, "J", int), n_list)


def _finite(text: str) -> float:
    """argparse type of the float flags: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


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


def _threads(args) -> int:
    """--threads, by default the CPUs this process may use: no output byte
    depends on it."""
    if args.threads is None:
        return len(os.sched_getaffinity(0))
    return check_count(args.threads, "--threads", 1)


def cmd_suite(args) -> int:
    # The suite name, --threads and UNICONSIST_SEED do not come from the
    # config: check them before config errors get the config path.
    default_config(args.name)
    threads = _threads(args)
    config = _load_json(args.config) if args.config else {}
    seed = _env_seed()
    if seed is not None:
        config = {**config, "seed": seed}
    _check_out(args.out, directory=True)
    with _prefix(args.config):
        result = run_suite(args.name, config, threads=threads)
    with _file_errors(args.out):
        paths = write_result(result, args.out)
    for path in paths:
        print(path)
    print(f"suite {result.name}: {'PASS' if result.passed else 'FAIL'}")
    if not result.passed:
        raise ThresholdError(f"suite {result.name} failed its thresholds")
    return 0


def _statistic_quad(data) -> dict:
    config = QuadTestConfig(_profile_from(data), json_value(data, "alpha"))
    return quad_decide(json_array(data, "y"), config, json_value(data, "n", int),
                       json_optional(json_array, data, "theta")).to_json_dict()


def _statistic_kernel(data) -> dict:
    config = KernelTestConfig(
        kernel=builtin_kernel(json_value(data, "kernel", str)),
        alpha=json_value(data, "alpha"),
        noise_sigma=json_value(data, "sigma") if "sigma" in data else 1.0,
        h=json_optional(json_value, data, "h"),
        h_rule=json_optional(_pair, data, "h_rule"))
    obs = KernelObservations(y0=json_value(data, "y0"),
                             pairs=json_array(data, "pairs", (2,)))
    theta = json_optional(_signal, data, "theta")
    return kernel_decide(obs, config, json_value(data, "n", int),
                         theta).to_json_dict()


def _statistic_chi2(data) -> dict:
    config = Chi2Config(alpha=json_value(data, "alpha"),
                        m=json_optional(json_value, data, "m", int),
                        m_rule=json_optional(_pair, data, "m_rule"))
    points = json_array(data, "points")
    signal = json_optional(_signal, data, "signal")
    return chi2_decide(points, config, points.size, signal).to_json_dict()


def _statistic_cvm(data) -> dict:
    table_ref = json_require(data, "table")
    if isinstance(table_ref, str):
        table_ref = _load_json(table_ref)
    table = CvmNullTable.from_json(json.dumps(table_ref))
    return cvm_decide(json_array(data, "points"), table,
                      json_value(data, "alpha")).to_json_dict()


def _statistic_fixed(data) -> dict:
    fk = FixedKappa(json_array(data, "kappa_sq"), json_optional(json_array, data, "sigmas"))
    stat = fixed_kappa_statistic(json_array(data, "z"), fk)
    critical = json_optional(json_value, data, "critical")
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
    threads = _threads(args)
    seed = args.seed
    if seed is None:
        seed = _env_seed() or 0
    if args.out:
        _check_out(args.out, directory=False)
    table = build_cvm_null_table(args.alpha, args.replicates, seed,
                                 J_null=args.j_null, threads=threads)
    if args.out:
        with _file_errors(args.out):
            Path(args.out).write_text(table.to_json(), encoding="utf-8")
        print(args.out)
    else:
        sys.stdout.write(table.to_json())
    return 0


def cmd_widths(args) -> int:
    descriptor = _load_json(args.set)
    with _prefix(args.set):
        descriptor = set_from_json(descriptor)
    diag = compactness_diagnostic(descriptor, args.epsilon, args.i_max)
    _print_json({"widths": [float(w) for w in diag.widths],
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
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=int, default=None,
                         help="worker threads (default: the CPUs this "
                              "process may use); output bytes do not depend "
                              "on it")

    p = sub.add_parser("suite", parents=[threads],
                       help="run a registered experiment suite")
    p.add_argument("name", help=f"one of {sorted(SUITES)}")
    p.add_argument("--config", help="JSON config merged over the defaults")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("statistic", help="evaluate one test on one data file")
    p.add_argument("family", choices=sorted(_STATISTIC))
    p.add_argument("--data", required=True, help="JSON data file")
    p.set_defaults(fn=cmd_statistic)

    p = sub.add_parser("classify", help="classify a serialized sequence")
    p.add_argument("--sequence", required=True, help="JSON sequence file")
    for name in ("c1", "c2", "eps", "C1"):
        p.add_argument(f"--{name}", type=_finite,
                       default=getattr(ClassifyThresholds, name))
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("nulltable", parents=[threads],
                       help="generate a null critical-value table")
    p.add_argument("family", choices=["cvm"])
    p.add_argument("--alpha", type=_finite, nargs="+", required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--j-null", type=int, default=1024)
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(fn=cmd_nulltable)

    p = sub.add_parser("widths", help="greedy approximation widths of a set")
    p.add_argument("--set", required=True, help="JSON set descriptor")
    p.add_argument("--i-max", type=int, default=16)
    p.add_argument("--epsilon", type=_finite, default=0.01)
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
