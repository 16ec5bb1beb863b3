"""Result records shared by the test families and the Monte Carlo engine."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path


def fmt_float(x) -> str:
    """Deterministic shortest-roundtrip decimal for CSV cells."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    return format(xf, ".17g")


def fmt_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return fmt_float(x)


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
