"""Concavity certificates via leading principal minors."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["ConcavityReport", "alternating_minor_verdict"]

_SIGN_SLACK = 1e-9


def alternating_minor_verdict(minors, slack=_SIGN_SLACK) -> bool:
    """True iff (-1)^k * D_k >= -slack for every leading principal minor D_k.

    The alternating sign pattern (D1 <= 0, D2 >= 0, ...) certifies a
    negative semidefinite Hessian on the region where it holds.
    """
    return all(((-1.0) ** k) * d >= -slack for k, d in enumerate(minors, start=1))


def _out_of_range(where: str, exc: ArithmeticError) -> DomainError:
    """The validation error for a report whose terms leave float range."""
    flow = "underflow" if isinstance(exc, ZeroDivisionError) else "overflow"
    return DomainError(f"concavity report {flow}s {where}; the scenario's magnitudes {flow} together")


@dataclass(frozen=True)
class ConcavityReport:
    """Hessian of a profit surface with its leading principal minors.

    ``variables`` documents the row/column ordering.  ``a2`` carries the
    bundle-specific cubic factor whose sign decides the third minor; it is
    None for the two-variable standalone report.
    """

    hessian: np.ndarray
    minors: tuple[float, ...]
    negative_semidefinite: bool
    variables: tuple[str, ...]
    a2: float | None = None
