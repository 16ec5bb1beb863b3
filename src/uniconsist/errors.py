"""Exception types shared across the package.

All validation failures raise subclasses of :class:`UniconsistError`, which
also inherits ``ValueError`` so callers can catch either. The CLI maps
``UniconsistError`` to exit code 2.

Two guards state the package's rule for each kind of scalar input:
:func:`check_count` for counts (sample sizes, cell counts, truncations,
replicates, seeds, threads) and :func:`check_positive` for positive
constants (rate and bandwidth constants, radii, smoothness).
"""

import math
import numbers

import numpy as np


class UniconsistError(ValueError):
    """Base class for validation and contract violations."""


class ValidationError(UniconsistError):
    """A precondition or configuration constraint was violated."""


class AssumptionError(ValidationError):
    """A named structural assumption on a weight profile failed.

    Carries the assumption label (e.g. ``"A1"``) in ``assumption``.
    """

    def __init__(self, assumption: str, message: str):
        self.assumption = assumption
        super().__init__(f"{assumption}: {message}")


class DensityError(ValidationError):
    """A claimed density 1 + f is negative somewhere on (0, 1).

    ``points`` holds locations where the minimum was attained, ``minimum``
    the offending density value.
    """

    def __init__(self, message: str, points=None, minimum=None):
        self.points = [] if points is None else list(points)
        self.minimum = minimum
        super().__init__(message)


class ThresholdError(UniconsistError):
    """A suite ran to completion but failed its configured thresholds.

    The CLI maps this to exit code 3.
    """


def check_count(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int: an int or a numpy integer in [low, high] (no
    upper bound when ``high`` is None), never a bool and never a float, not
    even an integral one such as 4.0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        kind = "an integer" if low or high is not None else "a nonnegative integer"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    if value < low or high is not None and value > high:
        rule = (f"in [{low}, {high}]" if high is not None
                else f"at least {low}" if low else "a nonnegative integer")
        raise ValidationError(f"{name} must be {rule}, got {value}")
    return int(value)


def check_positive(value, name: str) -> float:
    """``value`` as a float: a real number (not a bool) with 0 < value < inf,
    so nan is refused too."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 < value < math.inf):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)
