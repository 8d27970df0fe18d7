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
is the linear form with factor 0.5 or 0.5-gamma^2 (_sigma), which both
exact rules evaluate there bit for bit (_buy_bundle), and whose profit's
box maximum starts the exact bundle solve (bundle._exact_ascent).

Each public function validates its inputs once (floats by comparison,
arrays by one min/max reduction) and then calls its unchecked kernel
(_buy_separate, or _buy_bundle for both bundle kinds in both modes); the
profit kernels call those directly on points the solvers built in the box.

The input rules of every model live here, once each: _check_privacy
(finite, in [0, 1]), _check_fee (finite, >= 0), _check_positive_quality
(finite, > 0), _check_kind (complement or substitute) and
_check_contingency (the window of a bundle kind).  The buy rules, the
profit functions of `separate` and `bundle`, `BundleSpec` and the
Monte-Carlo `DemandRegion` and `simulate_market` all use them;
`MarketSpec` and `ServiceSpec` share _check_count (an integer in [1, 1e100]).
The public bundle buy rules and `gross_profit_bundle` also apply
_check_scaled_qualities (neither (1+gamma)^2*u1*u2 nor u1*u2 may underflow
to 0), and raise the nan of a fee whose square overflows with
(1+gamma)^2*u1*u2 as a DomainError (_no_joint_overflow); the profit
kernels do neither.

The standalone and paper-form kernels allocate their full-size result
once and finish it in place (_one_minus; the profit kernels then scale
and subtract into it), so a paper grid block holds one full-size array.
The exact mode does the same with the non-buy area (_nonbuy_area,
_buy_bundle).  On numbers the same expressions run as scalar arithmetic,
with the same result type.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _as_input, _extremes, _is_finite, _is_number
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
    """Customer side of the market: m customers, Uniform[0,1] reservation prices.

    m is an integer in [1, MAX_MAGNITUDE].
    """

    m: int

    def __post_init__(self):
        _check_count(self.m, "customer")


@dataclass(frozen=True)
class ContingencyInput:
    """Reservation prices of a bundle and of its two standalone services."""

    theta_b: float
    theta_1: float
    theta_2: float

    def __post_init__(self):
        for name in ("theta_b", "theta_1", "theta_2"):
            v = getattr(self, name)
            if not (_is_finite(v) and v >= 0):
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


def _check_count(n, what, ceiling=MAX_MAGNITUDE):
    """A count is an integer in [1, ceiling], compared before any arithmetic.

    Past MAX_MAGNITUDE, the ceiling of customers and participants, m*m, n*n
    and n*c leave float range in the closed forms; the Monte-Carlo draws
    have their own ceiling (oracles.MAX_DRAWS).
    """
    if not (_is_number(n, int) and n >= 1):
        raise DomainError(f"{what} count must be a positive integer, got {n!r}")
    if n > ceiling:
        got = n  # written out while short enough to read
        if n >= 10**15:
            # f"{n:g}" raises OverflowError past float range; only this message needs decimal
            from decimal import Context, Decimal

            got = f"{Decimal(n).normalize(Context(prec=6)):g}"
        raise DomainError(f"{what} count must be at most {ceiling:g}, got {got}")


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
    """fee is finite and nonnegative; returns its largest value."""
    lo, hi = _extremes(fee)
    if not (0.0 <= lo and hi < math.inf):
        raise DomainError(f"fee must be nonnegative and finite, got {fee}")
    return hi


def _check_kind(kind):
    if kind not in (COMPLEMENT, SUBSTITUTE):
        raise DomainError(f"bundle kind must be '{COMPLEMENT}' or '{SUBSTITUTE}', got {kind!r}")


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


def _one_minus(x):
    """max(1 - x, 0) for x >= 0, +inf or nan; an array x is overwritten with it.

    x is a kernel's fresh full-size quotient or area, so an array is
    finished in place: no allocation for 1 - x or for the clamp.  A number takes the
    same two ufuncs without out=, which give np.maximum(1.0 - x, 0.0).
    """
    out = x if isinstance(x, np.ndarray) else None
    return np.maximum(np.subtract(1.0, x, out=out), 0.0, out=out)


def _buy_separate(fee, u):
    """prob_buy_separate without checks; fee/u >= 0, so only the clamp at 0 can act."""
    return _one_minus(fee / u)


def prob_buy_separate(fee, quality):
    """P(theta >= fee/quality) under Uniform[0,1], clamped to [0, 1]."""
    _check_fee(fee)
    _check_positive_quality(quality)
    return _output(_buy_separate(_as_input(fee), _as_input(quality)))


def _linear_terms(fee, u1, u2, gamma, factor):
    """factor*fee^2 and (1+gamma)^2*u1*u2, the linear form's non-buy area as a quotient.

    x*x, not x**2: on a float, ** is pow(), which can be an ulp off numpy's square.
    """
    return factor * (fee * fee), (1.0 + gamma) * (1.0 + gamma) * u1 * u2


def _linear_form(fee, u1, u2, gamma, factor):
    """1 - factor*fee^2/((1+gamma)^2*u1*u2), clamped to [0, 1].

    The subtracted term is >= 0, +inf or nan for u1, u2 > 0 and factor > 0,
    so only the clamp at 0 can act; np.minimum(., 1) would pass every value.
    The quotient is the one full-size array; _one_minus finishes it in place.
    """
    area, scale = _linear_terms(fee, u1, u2, gamma, factor)
    return _one_minus(area / scale)


def _scaled_qualities_vanish(u1, u2, gamma) -> bool:
    """Whether (1+gamma)^2*u1*u2 or u1*u2 underflows to 0 somewhere.

    The one rule for tiny qualities of both bundle kinds and both modes: a
    float would divide by 0 (ZeroDivisionError), an array would warn.  The
    paper form divides by the first product and the exact area by the
    second, which a large gamma can send to 0 alone.
    """
    with np.errstate(over="ignore"):  # a product past float range is no underflow
        lo, _ = _extremes(np.minimum((1.0 + gamma) * (1.0 + gamma) * u1 * u2, u1 * u2))
    return not lo > 0.0


def _check_scaled_qualities(u1, u2, gamma):
    """Neither (1+gamma)^2*u1*u2 nor u1*u2 may underflow to 0 (_scaled_qualities_vanish)."""
    if _scaled_qualities_vanish(u1, u2, gamma):
        raise DomainError(
            "service qualities too small: (1+gamma)^2*u1*u2 or u1*u2 underflows to 0"
        )


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
    measured.  Broadcasts over arrays (a 0-d array for numbers); the area
    is allocated once, as zeros of the full shape, and finished in place.
    """
    a = u1 * width
    b = u2 * height
    span = a + b
    flip = q > 0.5 * span
    num = np.where(flip, span - q, q)
    del span
    np.maximum(num, 0.0, out=num)  # q_low
    h = np.minimum(num, np.minimum(a, b))
    np.multiply(num, 2.0, out=num)
    np.subtract(num, h, out=num)
    np.multiply(h, num, out=num)  # h*(2*q_low - h)
    area = np.zeros(num.shape)
    # 0 where h == 0 (no 0/0 when u1*u2 underflows); h != 0 lets a nan through
    np.divide(num, 2.0 * u1 * u2, out=area, where=h != 0)
    del num, h
    return np.subtract(width * height, area, out=area, where=flip)


def _sigma(kind, mode, gamma):
    """The linear form's factor: 0.5, or 0.5 +- gamma^2 for paper/exact substitutes."""
    if kind == COMPLEMENT:
        return 0.5
    return 0.5 + gamma * gamma if mode == PAPER_FORM else 0.5 - gamma * gamma


def _buy_bundle(fee, u1, u2, gamma, kind, mode):
    """The buy probability of either bundle kind in either demand mode, without checks.

    The paper form is the linear form at factor 0.5 or 0.5 + gamma^2.  The
    exact mode is the linear form at factor 0.5 or 0.5 - gamma^2 on interior
    geometry (the triangle below the bundle line inside the unit square, or
    the substitutes' corner box [0, fee/u1] x [0, fee/u2]), bit for bit.
    Only if some point is off it is the area measured on its box, with the
    interior's term divided in (its fee zeroed off the interior, where fee*fee
    can overflow), and 1 minus it clamped to [0, 1] in place (the clamp at 1
    passes the linear form's values).  [()] makes a 0-d array a number.
    """
    factor = _sigma(kind, mode, gamma)
    if mode == PAPER_FORM:
        return _linear_form(fee, u1, u2, gamma, factor)
    low = np.minimum(u1, u2)
    inside = fee <= ((1.0 + gamma) * low if kind == COMPLEMENT else low)
    if inside.all():
        return _linear_form(fee, u1, u2, gamma, factor)
    # min(1, fee/u) as fee/max(fee, u): bit for bit, and no ratio past 1 that can
    # overflow (a fee near 1e62 over a quality near 1e-263)
    width, height = ((1.0, 1.0) if kind == COMPLEMENT else
                     (fee / np.maximum(fee, u1), fee / np.maximum(fee, u2)))
    area = _nonbuy_area(fee / (1.0 + gamma), u1, u2, width, height)
    if inside.any():
        np.divide(*_linear_terms(np.where(inside, fee, 0.0), u1, u2, gamma, factor),
                  out=area, where=inside)
    buy = _one_minus(area)
    return np.minimum(buy, 1.0, out=buy)[()]


def _no_joint_overflow(what, fee_hi, kernel, *args):
    """_output(kernel(*args)), a DomainError where the result is nan: no warning.

    On inputs in range the profit kernels give nan only where the fee's
    square overflows: with a bundle's (1+gamma)^2*u1*u2 (inf/inf), or with
    m*p where nothing sells (inf*0; m <= 1e100 keeps m*p finite wherever
    p*p is); fee_hi, the largest fee, rules the check out everywhere else.
    """
    if fee_hi * fee_hi < math.inf:
        return _output(kernel(*args))
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernel(*args)
    if np.isnan(out).any():
        raise DomainError(f"{what} is NaN at fee {fee_hi:g}; "
                          "the inputs' magnitudes overflow together")
    return _output(out)


def _prob_buy_bundle(fee, u1, u2, gamma, kind, mode):
    """The public bundle buy rules: every input rule of the kind, then _buy_bundle."""
    _check_mode(mode)
    fee_hi = _check_fee(fee)
    _check_positive_quality(u1, u2)
    _check_contingency(kind, gamma)
    fee, u1, u2, gamma = map(_as_input, (fee, u1, u2, gamma))
    _check_scaled_qualities(u1, u2, gamma)
    return _no_joint_overflow("bundle buy probability", fee_hi, _buy_bundle,
                              fee, u1, u2, gamma, kind, mode)


def prob_buy_complement(fee, u1, u2, gamma, mode=PAPER_FORM):
    """Bundle buy probability for complementary services; arrays broadcast.

    paper mode: 1 - 0.5*fee^2/((1+gamma)^2*u1*u2), clamped to [0,1].
    exact mode: one minus the area of the unit square below the bundle
    line.  Both modes evaluate the identical expression while the non-buy
    region is the interior triangle (fee <= (1+gamma)*min(u1,u2)), so they
    are bit-equal there.
    """
    return _prob_buy_bundle(fee, u1, u2, gamma, COMPLEMENT, mode)


def prob_buy_substitute(fee, u1, u2, gamma, mode=PAPER_FORM):
    """Bundle buy probability for substitute services, gamma in (-0.5, 0).

    paper mode: 1 - (0.5+gamma^2)*fee^2/((1+gamma)^2*u1*u2), clamped.
    exact mode: one minus the area of the corner region
    {t1 < fee/u1} & {t2 < fee/u2} & below the bundle line, measured in
    closed form on the box [0, min(1, fee/u1)] x [0, min(1, fee/u2)];
    arrays broadcast; for fee <= min(u1, u2) that is, bit for bit, the
    linear form 1 - (0.5-gamma^2)*fee^2/((1+gamma)^2*u1*u2).  The exact
    geometry yields that (0.5-gamma^2) factor where the published expression
    carries (0.5+gamma^2); both are preserved so the gap can be measured
    instead of silently resolved.
    """
    return _prob_buy_bundle(fee, u1, u2, gamma, SUBSTITUTE, mode)
