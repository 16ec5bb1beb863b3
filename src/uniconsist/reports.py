"""Formats: typed readers for JSON input fields (a missing or mistyped field
raises ValidationError naming its key), deterministic CSV, and the result
record shared by the test families and the Monte Carlo engine."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError

# The JSON values each kind accepts, and its name in errors.
JSON_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"),
              str: (str, "a string"), dict: (dict, "an object")}


def json_require(obj: dict, key: str):
    try:
        return obj[key]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"missing key {key!r}") from exc


def json_value(obj: dict, key: str, kind=float):
    """``obj[key]`` as ``kind`` (float, int, str or dict); never a boolean,
    and a number only when it is finite as a float."""
    value = json_require(obj, key)
    types, name = JSON_KINDS[kind]
    if (isinstance(value, bool) or not isinstance(value, types)
            or kind is float and not abs(value) <= sys.float_info.max):
        raise ValidationError(f"{key!r} must be {name}, got {value!r}")
    return kind(value)


def json_array(obj: dict, key: str, ndims=(1,)) -> np.ndarray:
    """``obj[key]``, a JSON array of finite numbers nested ``ndims`` deep,
    as floats."""
    value = json_require(obj, key)
    try:
        arr = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "iuf" or arr.ndim not in ndims
            or not np.all(np.isfinite(arr))):
        depth = " or ".join(map(str, ndims))
        raise ValidationError(f"{key!r} must be a {depth}-D array of finite numbers")
    return arr.astype(float)


def json_optional(read, obj: dict, key: str, *args):
    """``read(obj, key, *args)``, or None when the key is absent or null."""
    return None if obj.get(key) is None else read(obj, key, *args)


def fmt_cell(x) -> str:
    """Deterministic CSV cell: None empty, booleans 1/0, integers exact,
    other numbers as 17-significant-digit (round-trip) decimals."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def write_csv(path, columns, rows) -> None:
    """UTF-8 CSV with a header row, fixed column order, and \\n newlines."""
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} != header width {len(columns)}")
        lines.append(",".join(fmt_cell(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test application.

    ``statistic`` is the raw family statistic, ``standardized`` the value
    compared against the critical point, ``ingredients`` the family-specific
    deterministic quantities (noncentrality, variance constants, k_n, ...).
    """

    family: str
    n: int
    statistic: float
    standardized: float
    reject: bool
    predicted_beta: float | None = None
    ingredients: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "statistic": self.statistic,
            "standardized": self.standardized,
            "reject": bool(self.reject),
            "predicted_beta": self.predicted_beta,
            "ingredients": {k: (float(v) if v is not None else None)
                            for k, v in self.ingredients.items()},
        }
