"""Exception hierarchy and scalar-argument readers shared across the package.

The CLI maps these onto exit codes: validation problems exit with 2 and
numerical/training failures with 3 (usage errors are handled by argparse
and exit with 1).

Every count, seed, class index and real setting is read by ``_integer`` or
``_real``, and every named option (a mode, a method, an activation, a
group) by ``_choice``: here, since every module (``rng`` too) imports this one.
"""

import math
import numbers

import numpy as np

_BOOLS = (bool, np.bool_)  # integral, but not numbers


class FtcalError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FtcalError):
    """Invalid arguments or malformed input data."""


class EmptyGroupError(ValidationError):
    """An operation needed samples from a label group that has none."""


class MissingClassError(ValidationError):
    """A requested class has no data to support the operation."""


class DegenerateInputError(ValidationError):
    """Structurally valid input that is degenerate (e.g. identical rows)."""


class ParseError(ValidationError):
    """A file could not be parsed; the message carries the 1-based line number."""


class ShapeError(ValidationError):
    """Declared or expected shape does not match the actual content."""


class TrainingError(FtcalError):
    """Training produced a non-finite loss or otherwise failed."""


def _integer(value, what: str, low: int | None = None, high: float = math.inf) -> int:
    """``value`` as an ``int`` if it is an integral number (``2.0`` is 2,
    ``True`` is not) in [``low``, ``high``), else a ``ValidationError``: "``what``
    1.5 is not an integer" without ``low``, "``what`` must be ..., got 0" with it."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):  # None, "a", nan, inf
        number = None
    if number is None or number != value or isinstance(value, _BOOLS):
        if low is None:
            raise ValidationError(f"{what} {value!r} is not an integer")
    elif low is None or low <= number < high:
        return number
    rule = {0: "a nonnegative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
    rule += f" below {high}" if high < math.inf else ""
    raise ValidationError(f"{what} must be {rule}, got {value!r}")


def _real(value, what: str, low=-math.inf, high=math.inf, low_open=False) -> float:
    """``value`` as a ``float``; raise ``ValidationError`` naming ``what``
    unless it is a finite real number (not a bool, a ``np.bool_`` or a
    string) at least ``low`` (above it if ``low_open``) and below ``high``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.nan
    if math.isfinite(number) and (low < number if low_open else low <= number) and number < high:
        return number
    bounds = f" and {'>' if low_open else '>='} {low:g}" if low > -math.inf else ""
    bounds += f" and < {high:g}" if high < math.inf else ""
    raise ValidationError(f"{what} must be finite{bounds}, got {value!r}")


def _choice(value, choices: tuple[str, ...], what: str) -> str:
    """The entry of ``choices`` equal to ``value``, as a plain ``str``; raise
    ``ValidationError`` naming ``what`` for anything else, a non-``str`` too."""
    if isinstance(value, str) and value in choices:
        return choices[choices.index(value)]
    raise ValidationError(f"{what} must be one of {choices}, got {value!r}")
