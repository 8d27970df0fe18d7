"""Exception types and input-range helpers shared across the package."""
import math

import numpy as np


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
