"""Standalone-sale profit and its closed-form maximizer.

Gross profit of one service sold alone at privacy level r and fee p:

    F(r, p) = m*p*(1 - p/u(r)) - n*c*(1 - r)

The stationary point has the closed form

    p* = (m*alpha1*alpha3 - 4*n*c) / (2*m*alpha3)
    r* = log(4*n*c / (m*alpha2*alpha3)) / alpha3

F is concave on u > 0 (minors D1 = -2m/u <= 0, D2 >= 0), so the interior
stationary point is the global optimum; otherwise the maximizer sits on
the boundary of the feasible box and the fixed-privacy fee rule u(r)/2
re-optimizes the remaining variable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import oracles
from .demand import (PAPER_FORM, MarketSpec, _buy_separate, _check_count, _check_fee, _check_mode,
                     _check_positive_quality, _check_privacy, _output, prob_buy_separate)
from .errors import DomainError, _as_input, _is_finite
from .hessians import ConcavityReport, _out_of_range, alternating_minor_verdict
from .quality import MAX_MAGNITUDE, QualityParams, _quality, evaluate_quality, max_privacy

__all__ = [
    "ServiceSpec",
    "SeparateScenario",
    "OptimumSeparate",
    "privacy_cap",
    "gross_profit_separate",
    "separate_objective",
    "separate_grid",
    "optimize_separate",
    "optimal_fee_fixed_privacy",
    "concavity_report_separate",
]

# privacy stays a probability, and u must stay positive on the search box
_CAP_MARGIN = 1e-9


@dataclass(frozen=True)
class ServiceSpec:
    """One service: quality curve, crowd size n, per-participant wage c.

    n is an integer in [1, MAX_MAGNITUDE].
    """

    quality: QualityParams
    n: int
    c: float

    def __post_init__(self):
        _check_count(self.n, "participant")
        if not (_is_finite(self.c) and 0 <= self.c <= MAX_MAGNITUDE):
            raise DomainError(
                f"reservation wage c must lie in [0, {MAX_MAGNITUDE:g}], got {self.c}"
            )


@dataclass(frozen=True)
class SeparateScenario:
    """One service sold alone; it has the market members of `BundleSpec`."""

    service: ServiceSpec
    market: MarketSpec

    kind = "separate"
    gamma = None
    point_names = ("r", "p")

    @property
    def services(self) -> tuple[ServiceSpec]:
        return (self.service,)

    def optimize(self, demand_mode: str = PAPER_FORM, verify: bool = False) -> "OptimumSeparate":
        """optimize_separate, keeping the grid oracle's maximum with ``verify``.

        One service has one demand form, so a known demand_mode changes nothing.
        """
        _check_mode(demand_mode)
        opt = optimize_separate(self)
        if verify:
            opt = replace(opt, grid=oracles.grid_maximize(*self.profit_surface(demand_mode)))
        return opt

    def profit_surface(self, demand_mode: str = PAPER_FORM):
        """The profit as a function of (r, p) and the oracle lattice that certifies it."""
        _check_mode(demand_mode)
        return separate_objective(self), separate_grid(self)

    def buy_probability(self, fee, qualities, demand_mode: str = PAPER_FORM):
        _check_mode(demand_mode)
        return prob_buy_separate(fee, *qualities)


@dataclass(frozen=True, slots=True)
class OptimumSeparate:
    r_star: float
    p_star: float
    profit: float
    interior: bool
    clamped_variables: tuple[str, ...]
    concave_at_optimum: bool
    negative_profit: bool
    grid: oracles.GridMaxResult | None = None  # the certifying grid maximum, when verified

    @property
    def point(self) -> tuple[float, float]:
        return (self.r_star, self.p_star)

    @property
    def oracle_delta(self) -> float | None:
        return None if self.grid is None else self.profit - self.grid.value


def privacy_cap(params: QualityParams) -> float:
    """Upper end of the feasible privacy interval: min(1, zero-quality point), at least 0.

    A curve that reaches zero quality within the margin of r = 0 gets cap 0.
    """
    cap, step = max(0.0, min(1.0, max_privacy(params) - _CAP_MARGIN)), _CAP_MARGIN
    while _quality(cap, params) <= 0.0:  # the margin rounded away; u(0) > 0 ends this
        cap, step = max(cap - step, 0.0), 2.0 * step
    return cap


def _profit(scenario: SeparateScenario, r, p_s):
    """gross_profit_separate without checks, for (r, p_s) in the feasible box."""
    svc = scenario.service
    profit = _buy_separate(p_s, _quality(r, svc.quality))  # finished in place, as bundle._profit_at
    profit *= scenario.market.m * p_s
    profit -= svc.n * svc.c * (1.0 - r)
    return profit


def gross_profit_separate(scenario: SeparateScenario, r, p_s):
    """Subscription revenue minus realized data cost; accepts arrays.

    Validates its inputs once, then evaluates the unchecked `_profit`.
    """
    r, p_s = _as_input(r), _as_input(p_s)
    _check_privacy(r)
    _check_fee(p_s)
    _check_positive_quality(_quality(r, scenario.service.quality))
    return _output(_profit(scenario, r, p_s))


def separate_objective(scenario):
    """The grid oracle's objective: gross_profit_separate over (r, p), validated per call."""
    return lambda r, p: gross_profit_separate(scenario, r, p)


def separate_grid(scenario, r_points: int = 400, fee_points: int = 400) -> oracles.GridSpec:
    """The certificate lattice [0, cap] x [0, alpha1]: a fee past alpha1 > u(r) sells nothing."""
    q = scenario.service.quality
    return oracles.GridSpec(axes=((0.0, privacy_cap(q), r_points), (0.0, q.alpha1, fee_points)))


def optimal_fee_fixed_privacy(scenario: SeparateScenario, r: float) -> float:
    """Profit-maximizing fee when the privacy level is imposed: u(r)/2."""
    u = evaluate_quality(r, scenario.service.quality)
    _check_positive_quality(u)
    return u / 2.0


def _stationary_privacy(q: QualityParams, m: float, n: int, c: float) -> float:
    """r* = log(4*n*c/(m*alpha2*alpha3))/alpha3, unclamped; +inf if the denominator underflows."""
    denominator = m * q.alpha2 * q.alpha3
    log_arg = 4.0 * n * c / denominator if denominator > 0 else (math.inf if c > 0 else 0.0)
    return math.log(log_arg) / q.alpha3 if log_arg > 0 else -math.inf


def optimize_separate(scenario: SeparateScenario) -> OptimumSeparate:
    """Closed-form maximizer with boundary projection.

    The raw stationary point is used when it is feasible (0 <= r* <= cap,
    fee nonnegative).  Otherwise r is projected onto the violated bound and
    the fee re-optimized by the fixed-privacy rule, which is exact because
    the profit restricted to a fixed r is concave in the fee.  As in
    `optimize_bundle`, r is clamped when it lies on a bound (0 or the cap).
    """
    q = scenario.service.quality
    m, n, c = scenario.market.m, scenario.service.n, scenario.service.c
    cap = privacy_cap(q)
    r_raw = _stationary_privacy(q, m, n, c)
    if 0.0 <= r_raw <= cap:
        r_star = r_raw
        p_star = (m * q.alpha1 * q.alpha3 - 4.0 * n * c) / (2.0 * m * q.alpha3)
    else:
        # profit after optimizing the fee is concave in r, so the clamp
        # direction is the nearest bound; smaller r wins ties
        r_star = 0.0 if r_raw < 0 else cap
        p_star = max(optimal_fee_fixed_privacy(scenario, r_star), 0.0)
    clamped = ("r",) if r_star in (0.0, cap) else ()
    profit = float(_profit(scenario, r_star, p_star))
    report = concavity_report_separate(scenario, r_star, p_star)
    return OptimumSeparate(
        r_star=r_star,
        p_star=p_star,
        profit=profit,
        interior=not clamped,
        clamped_variables=clamped,
        concave_at_optimum=report.negative_semidefinite,
        negative_profit=profit < 0,
    )


def concavity_report_separate(scenario: SeparateScenario, r: float, p_s: float) -> ConcavityReport:
    """Analytic Hessian of F in (fee, privacy) order with its minors."""
    q = scenario.service.quality
    m = scenario.market.m
    u = evaluate_quality(r, q)
    _check_positive_quality(u)
    h_pp = -2.0 * m / u
    try:
        e = math.exp(q.alpha3 * r)
        h_pr = -2.0 * m * q.alpha2 * q.alpha3 * p_s * e / u**2
        h_rr = (
            -2.0 * m * q.alpha2**2 * q.alpha3**2 * p_s**2 * e**2 / u**3
            - m * q.alpha2 * q.alpha3**2 * p_s**2 * e / u**2
        )
        d2 = 2.0 * m**2 * q.alpha2 * q.alpha3**2 * p_s**2 * e / u**3
    except (OverflowError, ZeroDivisionError) as exc:  # u**2 underflows for u < 1e-162
        raise _out_of_range(f"at r={r}, fee {p_s}", exc) from None
    hessian = np.array([[h_pp, h_pr], [h_pr, h_rr]])
    d1 = h_pp
    minors = (d1, d2)
    return ConcavityReport(
        hessian=hessian,
        minors=minors,
        negative_semidefinite=alternating_minor_verdict(minors),
        variables=("p_s", "r"),
    )
