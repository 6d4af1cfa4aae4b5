"""Exception hierarchy and number checks shared across the package."""

import numpy as np


class SpinPhononError(Exception):
    """Base class for all package errors."""


class CapacityError(SpinPhononError):
    """Hilbert-space dimension exceeds the configured cap, or a point's
    Redfield arrays would not fit in physical memory."""


class ValidationError(SpinPhononError):
    """An in-memory object violates one of its invariants."""


class ParseError(SpinPhononError):
    """A data file could not be parsed.

    Carries location info so the CLI can report file/line/offset.
    """

    def __init__(self, message, path=None, line=None, offset=None):
        loc = []
        if path is not None:
            loc.append(str(path))
        if line is not None:
            loc.append(f"line {line}")
        if offset is not None:
            loc.append(f"byte offset {offset}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.path = path
        self.line = line
        self.offset = offset


class UnitTagError(ParseError):
    """A data file is missing its unit tags or declares unsupported units."""


class SumRuleError(ValidationError):
    """Force constants violate the acoustic sum rule beyond threshold and
    enforcement was not requested."""


class ConfigError(SpinPhononError):
    """Invalid or unknown configuration content."""


class NumericalError(SpinPhononError):
    """A numerical routine failed (eigensolver, fit, propagation)."""


def as_real(value):
    """``value`` as a float. A bool or a string is not a number, though
    float() would take True as 1 and "2" as 2."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def finite_number(name, value, low, strict=True):
    """``value`` as a finite float above ``low`` (or at it, not strict)."""
    try:
        x = as_real(value)
    except (TypeError, ValueError):
        x = float("nan")
    if not (np.isfinite(x) and (x > low if strict else x >= low)):
        bound = ">" if strict else ">="
        raise ValidationError(
            f"{name} must be a finite number {bound} {low:g}, got {value!r}")
    return x
