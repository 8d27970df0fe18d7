"""Exception types and input-range helpers shared across the package."""
import math

import numpy as np


_REAL = (int, float, np.integer, np.floating)  # not numbers.Real: its check is 10x slower


def _is_number(x, types=_REAL) -> bool:
    """x is one of types, never a bool: a bool is an int, but no count or amount."""
    return isinstance(x, types) and not isinstance(x, bool)


def _is_finite(x, types=_REAL) -> bool:
    """x is a finite number of types; a string or None gives False, not a TypeError.

    An int past float range gives False too, not math.isfinite's OverflowError.
    """
    if not _is_number(x, types):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _read_text(path, what: str) -> str:
    """The text of a UTF-8 file; other bytes raise a DomainError that names the file.

    A UnicodeDecodeError is a ValueError the callers would not catch, so
    the CLI would end in a traceback instead of one error line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(
            f"{what} {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


class DomainError(ValueError):
    """Raised when an input lies outside a function's mathematical domain."""


class ScenarioError(ValueError):
    """Raised on malformed scenario files; carries section/key/line context."""

    def __init__(self, message, section=None, key=None, line=None):
        self.section = section
        self.key = key
        self.line = line
        parts = []
        if section is not None:
            parts.append(f"section [{section}]")
        if key is not None:
            parts.append(f"key '{key}'")
        if line is not None:
            parts.append(f"line {line}")
        ctx = ", ".join(parts)
        super().__init__(f"{message} ({ctx})" if ctx else message)


def _as_input(x):
    """x as a float when it is a number or a 0-d array, else as a float array."""
    if isinstance(x, (int, float)):
        return float(x)
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _extremes(x):
    """(min, max) of a number or an array, as floats.

    A nan element makes both nan; an empty array gives (inf, -inf), so a
    test ``lower <= lo and hi < upper`` passes it.
    """
    if isinstance(x, (int, float)):
        return float(x), float(x)
    arr = np.asarray(x, dtype=float)
    return (float(np.minimum.reduce(arr, axis=None, initial=math.inf)),
            float(np.maximum.reduce(arr, axis=None, initial=-math.inf)))
