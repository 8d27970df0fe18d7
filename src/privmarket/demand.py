"""Customer demand under uniform reservation prices.

Reservation prices are Uniform[0, 1] per service.  A standalone service at
fee p and quality u is bought iff theta >= p/u.  A two-service bundle at
fee p_b is bought iff the reservation pair lies in the buy region:

  complements (gamma >= 0):  (1+gamma)(theta1*u1 + theta2*u2) > p_b
  substitutes (gamma < 0):   the same half-plane, plus the two corner
                             strips theta1 >= p_b/u1 and theta2 >= p_b/u2

Each closed-form probability comes in two flavours: the published linear
"paper" form and an "exact" mode that measures the non-buy region inside
the unit square in closed form (inclusion-exclusion over the corners of
the box the region lives in, see _nonbuy_area).  Both modes accept numpy
arrays and broadcast.  The two agree on interior geometry and diverge
once the fee pushes the boundary outside the square (and, for
substitutes, by a (0.5+gamma^2) vs (0.5-gamma^2) factor; both are kept on
purpose, see prob_buy_substitute).  On interior geometry the exact mode
is the linear form with factor 0.5 or 0.5-gamma^2, whose stationary point
starts the exact bundle solve (bundle._exact_ascent).

Each public function validates its inputs once (floats by comparison,
arrays by one min/max reduction) and then calls its unchecked kernel
(_buy_separate, _buy_complement, _buy_substitute); the profit kernels
call those directly on points the solvers built inside the feasible box.

The input rules of every model live here, once each: _check_privacy
(finite, in [0, 1]), _check_fee (finite, >= 0), _check_positive_quality
(finite, > 0) and _check_contingency (the window of a bundle kind).  The
buy rules, the profit functions of `separate` and `bundle`, `BundleSpec`
and the Monte-Carlo `DemandRegion` and `simulate_market` all use them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _as_input, _extremes
from .quality import MAX_MAGNITUDE

__all__ = [
    "PAPER_FORM",
    "EXACT_GEOMETRY",
    "MarketSpec",
    "ContingencyInput",
    "prob_buy_separate",
    "prob_buy_complement",
    "prob_buy_substitute",
    "degree_of_contingency",
]

COMPLEMENT = "complement"
SUBSTITUTE = "substitute"

PAPER_FORM = "paper"
EXACT_GEOMETRY = "exact"
_MODES = (PAPER_FORM, EXACT_GEOMETRY)


@dataclass(frozen=True)
class MarketSpec:
    """Customer side of the market: m customers, Uniform[0,1] reservation prices."""

    m: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise DomainError(f"customer count must be a positive integer, got {self.m!r}")


@dataclass(frozen=True)
class ContingencyInput:
    """Reservation prices of a bundle and of its two standalone services."""

    theta_b: float
    theta_1: float
    theta_2: float

    def __post_init__(self):
        for name in ("theta_b", "theta_1", "theta_2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise DomainError(f"{name} must be finite and nonnegative, got {v}")


def degree_of_contingency(inp: ContingencyInput) -> float:
    """Relative bundle premium: (theta_b - theta_1 - theta_2)/(theta_1 + theta_2).

    Nonnegative values classify the services as complements, negative as
    substitutes.
    """
    denom = inp.theta_1 + inp.theta_2
    if denom <= 0:
        raise DomainError("theta_1 + theta_2 must be positive")
    return (inp.theta_b - denom) / denom


def _check_mode(mode):
    if mode not in _MODES:
        raise DomainError(f"demand mode must be one of {_MODES}, got {mode!r}")


def _check_privacy(*levels):
    for r in levels:
        lo, hi = _extremes(r)
        if not (0.0 <= lo and hi <= 1.0):
            raise DomainError("privacy levels must lie in [0, 1]")


def _check_positive_quality(*qualities):
    for u in qualities:
        lo, hi = _extremes(u)
        if not (0.0 < lo and hi < math.inf):
            raise DomainError(f"service quality must be positive and finite, got {u}")


def _check_fee(fee):
    lo, hi = _extremes(fee)
    if not (0.0 <= lo and hi < math.inf):
        raise DomainError(f"fee must be nonnegative and finite, got {fee}")


def _check_contingency(kind, gamma):
    """gamma in [0, MAX_MAGNITUDE] for complements, in (-0.5, 0) for substitutes.

    Without the ceiling, (1+gamma)**2 overflows a float from gamma ~ 1.3e154.
    The caller has checked that kind is COMPLEMENT or SUBSTITUTE.
    """
    lo, hi = _extremes(gamma)
    if kind == COMPLEMENT and not (0.0 <= lo and hi <= MAX_MAGNITUDE):
        raise DomainError(f"complement contingency must lie in [0, {MAX_MAGNITUDE:g}], got {gamma}")
    if kind == SUBSTITUTE and not (-0.5 < lo and hi < 0.0):
        raise DomainError(
            f"substitute contingency must lie in (-0.5, 0), got {gamma} "
            "(corner geometry breaks outside that window)"
        )


def _output(out):
    return float(out) if np.ndim(out) == 0 else out


def _unit(x):
    """x clamped to [0, 1] (np.clip's value, at a third of its cost on floats)."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _buy_separate(fee, u):
    """prob_buy_separate without checks."""
    return _unit(1.0 - fee / u)


def prob_buy_separate(fee, quality):
    """P(theta >= fee/quality) under Uniform[0,1], clamped to [0, 1]."""
    _check_fee(fee)
    _check_positive_quality(quality)
    return _output(_buy_separate(_as_input(fee), _as_input(quality)))


def _linear_form(fee, u1, u2, gamma, factor):
    """1 - factor*fee^2/((1+gamma)^2*u1*u2), clamped to [0, 1].

    fee*fee, not fee**2: on a float, ** is pow(), which can differ in the last bit.
    """
    return _unit(1.0 - factor * (fee * fee) / ((1.0 + gamma) ** 2 * u1 * u2))


def _nonbuy_area(q, u1, u2, width, height):
    """Area of {u1*x + u2*y <= q} inside the box [0, width] x [0, height].

    By inclusion-exclusion over the box corners the area is
    T(q) - T(q - a) - T(q - b) + T(q - a - b), with a = u1*width,
    b = u2*height and T(s) = max(s, 0)^2 / (2*u1*u2).  For q <= (a + b)/2
    the terms of the far corner and of the longer of a, b vanish, and the
    other two equal h*(2q - h)/(2*u1*u2) with h = min(q, a, b), which has
    no cancellation.  For larger q the
    box's point reflection maps the region above the line onto
    {u1*x + u2*y <= a + b - q}, so the smaller piece is always the one
    measured.  Broadcasts over arrays.
    """
    a = u1 * width
    b = u2 * height
    span = a + b
    flip = q > 0.5 * span
    q_low = np.maximum(np.where(flip, span - q, q), 0.0)
    h = np.minimum(q_low, np.minimum(a, b))
    low = h * (2.0 * q_low - h) / (2.0 * u1 * u2)
    return np.where(flip, width * height - low, low)


def _line_only_buy_probability(fee, u1, u2, gamma):
    """Exact buy probability when only the bundle line grants a purchase.

    Valid for any gamma > -1; used by the complement mode and as the
    comparison baseline for the substitute-superset property.
    """
    return _unit(1.0 - _nonbuy_area(fee / (1.0 + gamma), u1, u2, 1.0, 1.0))


def _buy_complement(fee, u1, u2, gamma, mode):
    """prob_buy_complement without checks."""
    out = _linear_form(fee, u1, u2, gamma, 0.5)
    if mode == EXACT_GEOMETRY:
        triangle = fee <= (1.0 + gamma) * np.minimum(u1, u2)
        out = np.where(triangle, out, _line_only_buy_probability(fee, u1, u2, gamma))
    return out


def prob_buy_complement(fee, u1, u2, gamma, mode=PAPER_FORM):
    """Bundle buy probability for complementary services; arrays broadcast.

    paper mode: 1 - 0.5*fee^2/((1+gamma)^2*u1*u2), clamped to [0,1].
    exact mode: one minus the area of the unit square below the bundle
    line.  Both modes evaluate the identical expression while the non-buy
    region is the interior triangle (fee <= (1+gamma)*min(u1,u2)), so they
    are bit-equal there.
    """
    _check_mode(mode)
    _check_fee(fee)
    _check_positive_quality(u1, u2)
    _check_contingency(COMPLEMENT, gamma)
    return _output(_buy_complement(*map(_as_input, (fee, u1, u2, gamma)), mode))


def _buy_substitute(fee, u1, u2, gamma, mode):
    """prob_buy_substitute without checks."""
    if mode == PAPER_FORM:
        return _linear_form(fee, u1, u2, gamma, 0.5 + gamma * gamma)
    width = np.minimum(1.0, fee / u1)
    height = np.minimum(1.0, fee / u2)
    return _unit(1.0 - _nonbuy_area(fee / (1.0 + gamma), u1, u2, width, height))


def prob_buy_substitute(fee, u1, u2, gamma, mode=PAPER_FORM):
    """Bundle buy probability for substitute services, gamma in (-0.5, 0).

    paper mode: 1 - (0.5+gamma^2)*fee^2/((1+gamma)^2*u1*u2), clamped.
    exact mode: one minus the area of the corner region
    {t1 < fee/u1} & {t2 < fee/u2} & below the bundle line, measured in
    closed form on the box [0, min(1, fee/u1)] x [0, min(1, fee/u2)];
    arrays broadcast.  The exact geometry yields a (0.5-gamma^2) factor
    where the published expression carries (0.5+gamma^2); both are
    preserved so the gap can be measured instead of silently resolved.
    """
    _check_mode(mode)
    _check_fee(fee)
    _check_positive_quality(u1, u2)
    _check_contingency(SUBSTITUTE, gamma)
    return _output(_buy_substitute(*map(_as_input, (fee, u1, u2, gamma)), mode))

