"""Two-service bundle profit, closed-form maximizers, and the bundle-vs-separate call.

Gross profit of a bundle sold at fee p with per-service privacy levels
(r1, r2), demand factor sigma = 0.5 for complements and 0.5 + gamma^2 for
substitutes (linear demand form):

    G(r1, r2, p) = m*p*(1 - sigma*p^2/((1+gamma)^2*u1*u2))
                   - n*c1*(1 - r1) - n*c2*(1 - r2)

Stationarity reduces to one quadratic in the fee,

    (m*p*alpha3 + 3*n*c1) * (m*p*beta3 + 3*n*c2)
        = (1+gamma)^2 * m^2 * alpha1*beta1*alpha3*beta3 / (3*sigma),

whose positive root gives p*; the privacy levels follow from
X = alpha2*exp(alpha3*r1) = 3*n*c1*alpha1/(m*p*alpha3 + 3*n*c1) and the
symmetric expression for r2.  `optimize_bundle` takes one path per kind
and demand mode.  A paper-mode complement takes that point; paper-mode
substitutes, and complements whose point leaves the box, ascend the
fee-eliminated profit P(r1, r2) = C*sqrt(u1*u2) - n*c1*(1 - r1)
- n*c2*(1 - r2), C = (2*m/3)*sqrt(k/(3*sigma)), k = (1+gamma)^2: G at
its fee maximizer p(r) = sqrt(k*u1*u2/(3*sigma)).  P is concave on the
box for both kinds (sqrt(u1*u2) is concave and nondecreasing, each u
concave), and each sweep sets r1, then r2, to its closed-form maximizer
of P (_paper_ascent).  The ascent starts from a 48^3 grid's best point,
which only shortens it; the grid stays while the benchmark's closed loop
keeps every op's result, since a faster `sweep` op would grow its peak
memory past the bound (ROADMAP items 1a and 2).  The substitutes'
`fee_root` is the same quadratic's root with sigma = 0.5 + gamma^2, which
reproduces the ascent's fee on the shipped substitute bundle.  Exact
demand is this form with sigma = 0.5 or 0.5 - gamma^2 on interior
geometry (demand._sigma), so the exact solve starts from P's box maximum
at that sigma (_exact_ascent), and each of its sweeps takes the fee in
closed form (_exact_fee: the exact revenue is a cubic in the fee between
breakpoints), and so are its privacy levels (_exact_slice): the exact
area is simple in u on each case of its geometry, so a privacy slice
peaks at a bound or at a piece's closed-form root (_slice_levels; at a
case boundary it can only tie), and the best of those few levels,
scored by the exact profit in one array call, is the slice's maximum,
unimodal or not.  Whichever path ran, a variable is clamped when the
returned point lies on its bound (_clamped).
A `verify` grid only certifies: it is attached to the result and changes
no returned value.  A solve builds its box [0, cap1] x [0, cap2] x
[0, p_hi] once (_box, which checks the demand mode, shared with
`bundle_grid`; _lattice lays the seed, `verify` and `bundle_grid`
lattices on it) and checks once, before any path runs, what else can
fail on it (_check_box: a nan among its eight corner profits, in exact
mode the qualities' underflow at the caps).  One rule serves both demand
modes: the corners are scored only where one of the three conditions
under which a corner can be nan holds (_corners_can_be_nan).  The closed
form, lattices and ascents then run on the unchecked `_profit`.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import oracles
from .demand import (
    COMPLEMENT,
    EXACT_GEOMETRY,
    PAPER_FORM,
    SUBSTITUTE,
    MarketSpec,
    _buy_bundle,
    _check_contingency,
    _check_fee,
    _check_kind,
    _check_mode,
    _check_positive_quality,
    _check_privacy,
    _check_scaled_qualities,
    _no_joint_overflow,
    _prob_buy_bundle,
    _scaled_qualities_vanish,
    _sigma,
)
from .errors import DomainError, _as_input
from .hessians import ConcavityReport, _out_of_range, alternating_minor_verdict
from .quality import _quality, evaluate_quality
from .separate import (
    OptimumSeparate,
    SeparateScenario,
    ServiceSpec,
    _stationary_privacy,
    optimize_separate,
    privacy_cap,
)

__all__ = [
    "COMPLEMENT",
    "SUBSTITUTE",
    "BundleSpec",
    "OptimumBundle",
    "BundlingDecision",
    "gross_profit_bundle",
    "bundle_objective",
    "bundle_grid",
    "optimize_bundle",
    "optimal_bundle_fee_fixed_privacy",
    "concavity_report_bundle",
    "bundling_decision",
]

_ASCENT_SWEEPS = 600
_ASCENT_TOL = 1e-13  # the paper ascent's updates are exact
# the exact sweeps stop once no coordinate moves by this much.  Each update is a
# coordinate's closed-form maximum, and the sweeps converge like any coordinate
# ascent: at 1e-6 some solves stop up to 2e-14 of their scale short of the
# maximum they approach, and 1e-12 takes twice the sweeps of 1e-9 to move no
# profit by more than 6e-16 of it
_SWEEP_TOL = 1e-9
_CERTIFICATE_POINTS = 120  # per axis of the certificate lattice: the verify grid, bundle_grid


@dataclass(frozen=True)
class BundleSpec:
    """Two services sold as one package at a single fee.

    Both services face the same customer pool and the same crowd size;
    mismatched participant counts are rejected up front.
    """

    s1: ServiceSpec
    s2: ServiceSpec
    market: MarketSpec
    gamma: float
    kind: str

    def __post_init__(self):
        _check_kind(self.kind)
        _check_contingency(self.kind, self.gamma)
        if self.s1.n != self.s2.n:
            raise DomainError(
                f"bundled services must share one crowd size, got {self.s1.n} and {self.s2.n}"
            )

    @property
    def n(self) -> int:
        return self.s1.n

    @property
    def demand_factor(self) -> float:
        """sigma in the paper's linear demand form: 0.5, or 0.5 + gamma^2 for substitutes."""
        return _sigma(self.kind, PAPER_FORM, self.gamma)

    # the market interface shared with SeparateScenario
    point_names = ("r1", "r2", "p_b")

    @property
    def services(self) -> tuple[ServiceSpec, ServiceSpec]:
        return (self.s1, self.s2)

    def optimize(self, demand_mode: str = PAPER_FORM, verify: bool = False) -> "OptimumBundle":
        return optimize_bundle(self, demand_mode=demand_mode, verify=verify)

    def profit_surface(self, demand_mode: str = PAPER_FORM):
        """The profit as a function of (r1, r2, p_b) and the oracle lattice that certifies it."""
        return bundle_objective(self, demand_mode), bundle_grid(self, demand_mode=demand_mode)

    def buy_probability(self, fee, qualities, demand_mode: str = PAPER_FORM):
        return _prob_buy_bundle(fee, *qualities, self.gamma, self.kind, demand_mode)


@dataclass(frozen=True, slots=True)
class OptimumBundle:
    r1_star: float
    r2_star: float
    p_b_star: float
    profit: float
    interior: bool
    clamped_variables: tuple[str, ...]
    fee_root: float
    demand_mode: str
    fallback: bool
    grid: oracles.GridMaxResult | None = None  # the certifying grid maximum, when verified

    @property
    def point(self) -> tuple[float, float, float]:
        return (self.r1_star, self.r2_star, self.p_b_star)

    @property
    def oracle_delta(self) -> float | None:
        return None if self.grid is None else self.profit - self.grid.value


@dataclass(frozen=True, slots=True)
class BundlingDecision:
    bundle_profit: float
    separate_profits: tuple[float, float]
    recommend_bundle: bool
    bundle_optimum: OptimumBundle
    separate_optima: tuple[OptimumSeparate, OptimumSeparate]


def _profit(bundle: BundleSpec, r1, r2, p_b, demand_mode):
    """gross_profit_bundle without checks, for (r1, r2, p_b) in the feasible box."""
    return _profit_at(bundle, r1, r2, _quality(r1, bundle.s1.quality),
                      _quality(r2, bundle.s2.quality), p_b, demand_mode)


def _profit_at(bundle: BundleSpec, r1, r2, u1, u2, p_b, demand_mode):
    """_profit with the qualities u1 = u(r1) and u2 = u(r2) already evaluated."""
    n = bundle.n
    # the buy probability is a fresh full-size array (or a number): finish it
    # in place; x*y == y*x bit for bit, so this is m*p_b*buy - n*c1*(1-r1) - ...
    profit = _buy_bundle(p_b, u1, u2, bundle.gamma, bundle.kind, demand_mode)
    profit *= bundle.market.m * p_b
    profit -= n * bundle.s1.c * (1.0 - r1)
    profit -= n * bundle.s2.c * (1.0 - r2)
    return profit


def gross_profit_bundle(bundle: BundleSpec, r1, r2, p_b, demand_mode=PAPER_FORM):
    """Bundle revenue minus both services' data costs; arrays OK in both demand modes.

    Validates its inputs once (_check_scaled_qualities too), then evaluates the unchecked `_profit`.
    """
    r1, r2, p_b = (_as_input(v) for v in (r1, r2, p_b))
    _check_mode(demand_mode)
    _check_privacy(r1, r2)
    fee_hi = _check_fee(p_b)
    u1, u2 = _quality(r1, bundle.s1.quality), _quality(r2, bundle.s2.quality)
    _check_positive_quality(u1, u2)
    _check_scaled_qualities(u1, u2, bundle.gamma)
    return _no_joint_overflow("bundle profit", fee_hi, _profit, bundle, r1, r2, p_b, demand_mode)


def bundle_objective(bundle, demand_mode=PAPER_FORM):
    """The grid oracle's objective: gross_profit_bundle over (r1, r2, p_b), validated per call."""
    _check_mode(demand_mode)
    return lambda r1, r2, p: gross_profit_bundle(bundle, r1, r2, p, demand_mode)


def bundle_grid(bundle, points: int = _CERTIFICATE_POINTS, demand_mode=PAPER_FORM) -> oracles.GridSpec:
    """points^3 lattice of the box optimize_bundle solves and certifies in."""
    return _lattice(_box(bundle, demand_mode), points)


def _fee_root(bundle: BundleSpec, sigma: float) -> float:
    """Positive root of the stationarity quadratic, scaled by 2*m*a3*b3.

    Past float range it is inf or nan, and the paper complement, its one
    reader, then takes the fallback (_stationary_point's r1 or p fails its box).
    """
    a = bundle.s1.quality
    b = bundle.s2.quality
    m, n = bundle.market.m, bundle.n
    c1, c2 = bundle.s1.c, bundle.s2.c
    k = (1.0 + bundle.gamma) ** 2
    gap = a.alpha3 * c2 - b.alpha3 * c1  # gap*gap, not gap**2: a square past float range is inf
    radical = math.sqrt(
        (4.0 / 3.0) * k * m * m * a.alpha1 * b.alpha1 * a.alpha3**2 * b.alpha3**2 / sigma
        + 9.0 * n * n * (gap * gap)
    )
    return radical - 3.0 * n * a.alpha3 * c2 - 3.0 * n * b.alpha3 * c1


def _stationary_point(bundle: BundleSpec, root: float, sigma: float):
    """Closed-form stationary point (r1, r2, p) of the linear form with factor sigma.

    root is `_fee_root(bundle, sigma)`.  A denominator out of float range
    (0 or inf) gives nan: no candidate, so the solve falls back.
    """
    a = bundle.s1.quality
    b = bundle.s2.quality
    m, n = bundle.market.m, bundle.n
    c1, c2 = bundle.s1.c, bundle.s2.c
    k = (1.0 + bundle.gamma) ** 2
    dens = (
        m * a.alpha3 * b.alpha3,
        m * m * a.alpha2 * a.alpha3 * b.alpha1 * b.alpha3 * k,
        m * m * a.alpha2 * a.alpha3**2 * b.alpha1 * b.alpha3 * k,
        m * m * a.alpha1 * a.alpha3 * b.alpha2 * b.alpha3 * k,
        m * m * a.alpha1 * a.alpha3 * b.alpha2 * b.alpha3**2 * k,
    )
    if not all(0.0 < d < math.inf for d in dens):
        return math.nan, math.nan, math.nan
    p = 0.5 * root / dens[0]
    arg1 = 27.0 * sigma * n * n * c1 * c2 / dens[1] + 4.5 * sigma * n * c1 * root / dens[2]
    arg2 = 27.0 * sigma * n * n * c1 * c2 / dens[3] + 4.5 * sigma * n * c2 * root / dens[4]
    r1 = math.log(arg1) / a.alpha3 if arg1 > 0 else -math.inf
    r2 = math.log(arg2) / b.alpha3 if arg2 > 0 else -math.inf
    return r1, r2, p


def _box(bundle: BundleSpec, demand_mode: str):
    """(cap1, cap2, p_hi): the privacy caps and the fee past which nothing sells at r = 0."""
    _check_mode(demand_mode)
    u1_0, u2_0 = (float(_quality(0.0, svc.quality)) for svc in bundle.services)
    if demand_mode == PAPER_FORM:
        p_hi = (1.0 + bundle.gamma) * math.sqrt(u1_0 * u2_0 / bundle.demand_factor)
    else:
        p_hi = (1.0 + bundle.gamma) * (u1_0 + u2_0)
    return privacy_cap(bundle.s1.quality), privacy_cap(bundle.s2.quality), p_hi


def _lattice(box, points) -> oracles.GridSpec:
    """The points^3 lattice of box = (cap1, cap2, p_hi), from 0 on every axis."""
    return oracles.GridSpec(tuple((0.0, hi, points) for hi in box))


def _privacy_update(quality, cost, revenue, cap):
    """The r maximizing revenue*sqrt(u(r)) - cost*(1 - r) on [0, cap], P's r-slice.

    revenue is C*sqrt(u_j), cost is n*c.  With X = alpha2*exp(alpha3*r) and
    t = revenue*alpha3/(2*cost), dP/dr = 0 at t*X = sqrt(alpha1 - X), whose
    root X = 2*alpha1/(1 + hypot(1, 2*sqrt(alpha1)*t)) squares nothing.
    """
    if cost == 0.0:
        return 0.0
    t = revenue * quality.alpha3 / (2.0 * cost)
    x = 2.0 * quality.alpha1 / (1.0 + math.hypot(1.0, 2.0 * math.sqrt(quality.alpha1) * t))
    if math.isnan(x):
        raise DomainError(f"privacy update out of floating-point range (n*c = {cost:g}, "
                          f"revenue {revenue:g}); the scenario's magnitudes overflow together")
    # X underflows to 0 where the revenue term dwarfs the wage
    r = math.log(x / quality.alpha2) / quality.alpha3 if x / quality.alpha2 > 0.0 else -math.inf
    return min(max(r, 0.0), cap)


def _exact_fee(bundle: BundleSpec, u1, u2, p_hi) -> float:
    """The fee in [0, p_hi] that maximizes the exact revenue m*p*buy(p) at qualities u1, u2.

    The data costs do not depend on the fee, so the revenue alone picks it
    (at a wage of 1e100 the profits of all fees round to one number).  It
    is worked out in units of S = u1 + u2, which keep every term in float
    range: y = p/S, lo <= hi the two u_i/S, g = 1 + gamma.  By
    _nonbuy_area's inclusion-exclusion the revenue is a cubic in y between
    breakpoints, concave on each piece below hi and falling above it:

    - complements (box [0, 1]^2, s = y/g): a triangle up to s = lo, with
      its peak at sqrt(2*lo*hi/3), then a trapezoid up to hi, a parabola
      with vertex (2*hi + lo)/4; the two join smoothly, so the revenue is
      concave up to hi, s*(1 - s)^2/(2*lo*hi) past it, which falls, and 0
      past s = 1.  The box's maximum is the peak, or the top of the box
      below it.
    - substitutes (box [0, min(1, p/u1)] x [0, min(1, p/u2)], c = -gamma):
      up to y = lo the linear form at factor 0.5 - gamma^2, with its peak
      at g*sqrt(lo*hi/(1.5 - 3*c^2)); then the worse service's side of the
      box stops growing, a kink where the slope jumps up, so a second
      peak can follow: the smaller root of 3*c^2*y^2 - 4*g*lo*y +
      g^2*lo*(2*hi + lo) (written without cancellation) until y = lo*g/c,
      where the bundle line leaves the box and only the better service's
      strip sells, so the revenue is y*(1 - y/hi) with vertex hi/2; past hi
      it falls as for complements.  The better of the two peaks, each held
      to its piece and to the box, wins on revenue.
    """
    g = 1.0 + bundle.gamma
    u1, u2 = float(u1), float(u2)
    total = u1 + u2
    # a share that underflows to 0 is taken as the least normal float: no 0/0 below
    lo = max(min(u1, u2) / total, sys.float_info.min)
    hi = max(u1, u2) / total
    top = p_hi / total
    if bundle.kind == COMPLEMENT:
        peak = math.sqrt(lo * hi / 1.5)
        y = min(g * (peak if peak < lo else 0.5 * hi + 0.25 * lo), top)
    else:
        c = -bundle.gamma
        bend = lo * g / c  # past it the bundle line misses the box
        disc = lo * (4.0 * lo - 3.0 * c * c * (2.0 * hi + lo))
        root = g * lo * (2.0 * hi + lo) / (2.0 * lo + math.sqrt(disc)) if disc >= 0.0 else math.inf
        second = min(max(root, lo) if root <= bend else max(0.5 * hi, bend), hi)

        def revenue(y):  # per m*S
            x = y / g
            if y <= lo:
                area = x * x * (1.0 - 2.0 * c * c) / (2.0 * lo * hi)
            elif y <= bend:
                area = (lo * (2.0 * x - lo) - (c * x) ** 2) / (2.0 * lo * hi)
            else:
                area = y / hi
            return y * (1.0 - area)

        first = min(g * math.sqrt(lo * hi / (1.5 - 3.0 * c * c)), lo, top)
        second = min(second, top)
        y = first if revenue(first) >= revenue(second) else second
    return min(y * total, p_hi)


# every ordered subset of the names, built once: each result shares one, as separate's ("r",)
_CLAMPED_NAMES = {flags: tuple(name for name, flag in zip(BundleSpec.point_names, flags) if flag)
                  for flags in itertools.product((False, True), repeat=3)}


def _clamped(r1, r2, p, box) -> tuple[str, ...]:
    """The names among (r1, r2, p_b) on a bound of box: r at 0 or at its cap, the fee at 0."""
    return _CLAMPED_NAMES[r1 in (0.0, box[0]), r2 in (0.0, box[1]), p == 0.0]


def _paper_ascent(bundle: BundleSpec, sigma, start, box):
    """Cyclic exact maximization of the fee-eliminated profit P over r1, r2 from a start in the box.

    P is at demand factor sigma.  Each sweep sets r1 to P's maximizer at the
    current u2, r2 at the new u1 (_privacy_update), then the fee to p(r); of
    the start, only r2 enters the first sweep.  P is concave on [0, cap1] x
    [0, cap2], box = (cap1, cap2, p_hi), so they converge to its maximum (r1, r2, p).
    """
    a, b = bundle.s1.quality, bundle.s2.quality
    n = bundle.n
    k = (1.0 + bundle.gamma) ** 2
    # P's revenue coefficient C, at the fee maximizer p(r) = sqrt(k*u1*u2/(3*sigma))
    scale = (2.0 * bundle.market.m / 3.0) * math.sqrt(k / (3.0 * sigma))
    cap1, cap2, _ = box
    r1, r2, p = start
    u2 = float(_quality(r2, b))
    for _ in range(_ASCENT_SWEEPS):
        prev = (r1, r2, p)
        r1 = _privacy_update(a, n * bundle.s1.c, scale * math.sqrt(u2), cap1)
        u1 = float(_quality(r1, a))
        r2 = _privacy_update(b, n * bundle.s2.c, scale * math.sqrt(u1), cap2)
        u2 = float(_quality(r2, b))
        p = math.sqrt(k * u1 * u2 / (3.0 * sigma))
        if max(abs(r1 - prev[0]), abs(r2 - prev[1]), abs(p - prev[2])) < _ASCENT_TOL:
            break
    return r1, r2, p


def _cubic_root(alpha1, d, k):
    """The least root X in (0, alpha1 - d) of X*((alpha1 - X)^2 - d^2) = k*(alpha1 - X)^2, or nan.

    For d, k >= 0.  In x = X/alpha1 it is x^3 - (2 + kappa)*x^2 + (1 -
    delta^2 + 2*kappa)*x - kappa = 0, delta = d/alpha1, kappa = k/alpha1,
    whose left side is below 0 at x = 0, 1 - delta and 1 + delta: so it has
    one root past 1 + delta and two, or none, below 1 - delta, and none
    there once delta or kappa reaches 1.  With e = 1 - kappa and w = e^2 +
    3*delta^2, x = (2 + kappa)/3 + y leaves y^3 - (w/3)*y + Q = 0, 27*Q =
    2*e^3 - 9*delta^2*(2 + kappa), whose trigonometric form gives the two
    greater roots x2 and x3 in terms of order 1; the least is k/(x2*x3) (the
    three multiply to kappa), which keeps its relative precision where
    kappa is tiny.  Where the pair below 1 - delta is complex the clamped
    arccos gives a real point near it, which the caller scores like any
    other level.
    """
    delta, kappa = d / alpha1, k / alpha1
    if not (delta < 1.0 and kappa < 1.0):
        return math.nan
    e, shift = 1.0 - kappa, (2.0 + kappa) / 3.0
    w = e * e + 3.0 * delta * delta
    cosine = (9.0 * delta * delta * (2.0 + kappa) - 2.0 * e * e * e) / (2.0 * w * math.sqrt(w))
    phi = math.acos(min(max(cosine, -1.0), 1.0)) / 3.0
    x3 = shift + (2.0 / 3.0) * math.sqrt(w) * math.cos(phi)
    x2 = shift + (2.0 / 3.0) * math.sqrt(w) * math.cos(phi - 2.0 * math.pi / 3.0)
    return k / (x2 * x3) if x2 > 0.0 else math.nan


def _slice_levels(bundle: BundleSpec, svc: ServiceSpec, cap, p, v) -> list[float]:
    """0, cap and the levels in between among which every maximizer of an exact slice lies.

    The slice of svc's r at fee p and the other service's quality v is
    m*p*(1 - A(u)) - n*c*(1 - r) + const, A the non-buy area
    (demand._nonbuy_area).  With X = alpha1 - u = alpha2*exp(alpha3*r),
    u'(r) = -alpha3*X, so it is stationary where X*(-A'(u)) = K0 =
    n*c/(m*p*alpha3).  Write q = p/(1+gamma) and the kink k = q for
    complements, p for substitutes, so that geometry is interior where u,
    v >= k.  On each case of A the condition has a closed form:

    - u >= k: A = B/u, so X*B = K0*u^2, whose root X = alpha1*t/((t + 0.5) +
      sqrt(t + 0.25)) < alpha1, t = K0*alpha1/B, cancels nothing.  On
      interior geometry t = K*alpha1, K = n*c*(1+gamma)^2*v/(m*sigma*p^3*alpha3),
      sigma = demand._sigma's exact factor (p^3 is p*p*p: p**3 raises
      OverflowError past float range); else B = k - max(k + v - q, 0)^2/(2*v)
      (a complement's trapezoid, or a substitute whose u fills its side
      of the box).
    - d < u < k, d = q - min(v, k): A = w - (u - d)^2/(2*u*v), w free of u
      (the bundle line cuts the box's far corner; at d = 0, a complement
      whose v is the larger side, its trapezoid), so X*(u^2 - d^2) =
      2*K0*v*u^2, a cubic (_cubic_root), linear at d = 0: X = 2*K0*v.
    - u <= d: A is constant and the slice rises with r, to cap.

    Each piece's maximum is its condition's least root: the slice rises
    below it and falls past it (the cubic's second root below alpha1 - d
    is a minimum).  So the levels are 0, cap and the two roots, each X
    mapped by r = ln(X/alpha2)/alpha3 and kept where r lies in (0, cap);
    none where K leaves float range.  Sorted, so the least level comes
    first.

    No case boundary is a level, since none can win but by a tie.  In s =
    u*x, t = v*y the non-buy region is {s + t <= q} in the box [0, u*W] x
    [0, v*H] (W = H = 1 for complements, min(1, p/u) and min(1, p/v) for
    substitutes) and A is its area over u*v.  Where W = 1 the area grows
    with u at the rate clamp(q - u, 0, v*H), which is continuous in u;
    where u*W = p it does not grow.  Per boundary:
    - u = d, which is q - v or q - p (the other of these two levels is no
      boundary, or u <= 0 there): the far corner (u, v*H) crosses the
      line.  A is C1 there and equals H below it, so -A' = 0 and the
      slope in r is n*c >= 0: at n*c > 0 the slice rises through the
      level, and at n*c = 0 it never rises (-A' >= 0 everywhere), so the
      level 0 is as good.
    - u = q (complements): the corner (u, 0) crosses the line.  A is C1
      there, so a maximum there is stationary, the root of the quadratic
      piece's condition, which has one root below alpha1 and is a level.
    - u = p (substitutes): the side u*W stops growing.  As u falls through
      p, -A' drops by min(q - p, v*H)/(p*v) > 0 (q > p), so the slope in r
      jumps up as r passes the level, a convex kink, which is no maximum.
      For complements u = p is no boundary of A, nor is u = q for
      substitutes (q > p).
    - u = v: only _nonbuy_area's min(q, a, b) switches there; A is smooth.
    Elsewhere A is smooth in u, so every maximizer in (0, cap) is a
    piece's stationary point.  tests/test_bundle.py scores the five
    boundary levels against each answer on 6,000 slices.
    """
    a, nc = svc.quality, bundle.n * svc.c
    g = 1.0 + bundle.gamma
    q = p / g
    kink = q if bundle.kind == COMPLEMENT else p
    den = bundle.market.m * p * a.alpha3
    linear = 2.0 * nc * v / den if den > 0.0 else math.inf  # 2*K0*v
    if v >= kink:
        den = bundle.market.m * _sigma(bundle.kind, EXACT_GEOMETRY, bundle.gamma) * p * p * p
        den *= a.alpha3
        t = (nc * g * g * v / den if den > 0.0 else math.inf) * a.alpha1
    else:
        over = max(kink + v - q, 0.0)
        t = linear * a.alpha1 / (2.0 * v * (kink - over * over / (2.0 * v)))
    quadratic = (a.alpha1 * t / ((t + 0.5) + math.sqrt(t + 0.25)) if 0.0 < t < math.inf
                 else math.nan)
    levels = [0.0, cap]
    for x in (quadratic, _cubic_root(a.alpha1, q - min(v, kink), linear)):
        if x / a.alpha2 > 1.0:  # else r <= 0, or nan
            r = math.log(x / a.alpha2) / a.alpha3
            if r < cap:
                levels.append(r)
    return sorted(levels)


def _exact_slice(bundle: BundleSpec, svc: ServiceSpec, cap, p, u_other, profit):
    """The r in [0, cap] maximizing the exact profit at fee p and the other quality u_other.

    profit is the slice on an array of r.  It is evaluated once, at the
    sorted levels of _slice_levels, and the best is returned, the least on
    a tie.  numpy's argmax returns the first NaN, so a NaN is the maximum
    and raises DomainError.
    """
    levels = np.array(_slice_levels(bundle, svc, cap, p, float(u_other)))
    values = profit(levels)
    best = int(values.argmax())
    if math.isnan(values[best]):
        raise DomainError(f"bundle profit is NaN at privacy level {float(levels[best])}; "
                          "the scenario's magnitudes overflow together")
    return float(levels[best])


def _exact_sweeps(bundle: BundleSpec, start, box):
    """Exact-mode coordinate ascent over r1 and r2 from a start in the box.

    Each sweep takes the fee in closed form (_exact_fee), then r1, and r2 at
    the new r1 (_exact_slice): each slice's maximum among its candidate
    levels, scored in one array call of the unchecked _profit_at (the fixed
    coordinate's quality evaluated once); a last fee update follows the
    last sweep.  Each update is a coordinate's global maximum, so the
    profit never falls from sweep to sweep, and the sweeps end, once no
    coordinate moves by _SWEEP_TOL, at (r1, r2, p) in the checked box
    [0, cap1] x [0, cap2] x [0, p_hi], box = (cap1, cap2, p_hi).
    """
    a, b = bundle.s1.quality, bundle.s2.quality
    cap1, cap2, p_hi = box
    r1, r2, p = start
    for _ in range(_ASCENT_SWEEPS):
        prev = (r1, r2, p)
        u2 = _quality(r2, b)
        p = _exact_fee(bundle, _quality(r1, a), u2, p_hi)
        r1 = _exact_slice(bundle, bundle.s1, cap1, p, u2, lambda t: _profit_at(
            bundle, t, r2, _quality(t, a), u2, p, EXACT_GEOMETRY))
        u1 = _quality(r1, a)
        r2 = _exact_slice(bundle, bundle.s2, cap2, p, u1, lambda t: _profit_at(
            bundle, r1, t, u1, _quality(t, b), p, EXACT_GEOMETRY))
        if max(abs(r1 - prev[0]), abs(r2 - prev[1]), abs(p - prev[2])) < _SWEEP_TOL:
            break
    return r1, r2, _exact_fee(bundle, _quality(r1, a), _quality(r2, b), p_hi)


def _exact_ascent(bundle: BundleSpec, box):
    """Exact-mode coordinate ascent from three starts in the box, one per set of active services.

    Both services: P's maximum at the exact interior factor sigma (0.5, or
    0.5 - gamma^2 for substitutes), by _paper_ascent from the box corner.
    One service, the other's privacy at its cap: its standalone optimum,
    quality scaled by 1 + gamma for complements.  One _profit call scores
    the starts in the checked box, and the sweeps run from the most
    profitable; ending on a cap below 1, where a service's quality
    vanishes, they also run from the others and keep the best end.  Far
    from the paper's services local maxima that no start reaches can exist
    (README).
    Returns the best end (r1, r2, p) and its profit.
    """
    cap1, cap2, _ = box
    scale = 1.0 + bundle.gamma if bundle.kind == COMPLEMENT else 1.0
    m, n = bundle.market.m * scale, bundle.n
    r1, r2 = (min(max(_stationary_privacy(svc.quality, m, n, svc.c), 0.0), cap)
              for svc, cap in ((bundle.s1, cap1), (bundle.s2, cap2)))
    sigma = _sigma(bundle.kind, EXACT_GEOMETRY, bundle.gamma)
    starts = [_paper_ascent(bundle, sigma, (0.0, 0.0, 0.0), box),
              (r1, cap2, 0.5 * scale * _quality(r1, bundle.s1.quality)),
              (cap1, r2, 0.5 * scale * _quality(r2, bundle.s2.quality))]
    order = np.argsort(-_profit(bundle, *np.array(starts).T, EXACT_GEOMETRY), kind="stable")
    first, *others = [starts[i] for i in order]
    ends = [_exact_sweeps(bundle, first, box)]
    if any(r == cap < 1.0 for r, cap in zip(ends[0], (cap1, cap2))):
        ends += [_exact_sweeps(bundle, start, box) for start in others]
    profits = [float(_profit(bundle, *end, EXACT_GEOMETRY)) for end in ends]
    best = max(range(len(ends)), key=profits.__getitem__)  # the first end on a tie
    return (*ends[best], profits[best])


def _corners_can_be_nan(bundle: BundleSpec, box) -> bool:
    """Whether a corner profit of the box can be nan: one of three conditions holds.

    With every input in range, m*p*buy - n*c1*(1 - r1) - n*c2*(1 - r2) is
    nan only by a 0/0, inf/inf or inf*0 inside buy:
    - p_hi*p_hi overflows: fee^2/((1+gamma)^2*u1*u2) is inf/inf, or m*p*0
      is inf*0 where buy clamps to 0;
    - (1+gamma)^2*u1*u2 underflows to 0 at the caps: 0/0 at fee 0;
    - exact mode only: u1*u2 underflows to 0 at the caps, a large gamma
      keeping (1+gamma)^2*u1*u2 in range, and so does _nonbuy_area's
      h*(2q - h) (0/0).
    The last two are _check_scaled_qualities' rule at the caps.  Without
    the third, exact complements with gamma of 1e10 or more would raise
    that rule's text instead of the nan one.
    """
    u1, u2 = (_quality(cap, svc.quality) for svc, cap in zip(bundle.services, box))
    return box[2] * box[2] == math.inf or _scaled_qualities_vanish(u1, u2, bundle.gamma)


def _check_box(bundle: BundleSpec, box, demand_mode: str):
    """Raise the errors that the rules of gross_profit_bundle meet on the box's eight corners.

    Two rules can fail there: a nan corner profit, and in exact mode the
    exact buy rules' underflow rule (_check_scaled_qualities) at the caps.
    The others hold on every box _box builds: privacy_cap gives caps in
    [0, 1] with u(cap) > 0; QualityParams gives u(0) = alpha1 - alpha2 > 0
    as floats and u(cap) <= u(0) < alpha1 <= 1e100; with alpha1 and gamma at
    most 1e100, p_hi is finite (below 3e200) and >= 0; and _box checks the
    mode.  Both rules can fail only where _corners_can_be_nan holds, so the
    corners are scored only there (invalid and divide ignored), and a nan
    raises first.  The extreme-magnitude tests assert all of this.
    """
    if not _corners_can_be_nan(bundle, box):
        return
    corners = np.array([*itertools.product(*((0.0, hi) for hi in box))]).T
    with np.errstate(invalid="ignore", divide="ignore"):
        oracles._check_no_nan(_profit(bundle, *corners, demand_mode))
    if demand_mode == EXACT_GEOMETRY:
        _check_scaled_qualities(*(_quality(cap, svc.quality)
                                  for svc, cap in zip(bundle.services, box)), bundle.gamma)


def optimize_bundle(
    bundle: BundleSpec,
    demand_mode: str = PAPER_FORM,
    verify: bool = False,
    seed_points: int = 48,
    verify_points: int = _CERTIFICATE_POINTS,
) -> OptimumBundle:
    """Maximize the bundle profit over (r1, r2, p_b): one path per kind and demand mode.

    A paper-mode complement takes its closed-form stationary point when it
    is feasible (finite nonnegative fee, privacy levels inside their
    boxes; a fee root past float range gives none).  The
    other paper solves take the fallback, the ascent on the concave
    fee-eliminated profit P (_paper_ascent) from a seed_points^3 grid's best
    point; the exact mode ascends from the same ascent's box maximum at the
    exact factor, or from a one-service closed form (_exact_ascent).  With
    ``verify`` an independent verify_points^3 grid maximum is attached as the
    result's certificate; it changes no returned value.  Every solve builds
    one box (_box) and checks it once, before any path runs (_check_box:
    the corners are scored only where one can be nan); the closed form,
    lattices and ascents then run on the unchecked `_profit`.
    Whichever path ran, `clamped_variables` names the returned point's
    variables on a bound of the box (_clamped); `interior` means none is.
    """
    box = _box(bundle, demand_mode)
    sigma = bundle.demand_factor
    root = _fee_root(bundle, sigma)
    fallback = True
    if bundle.kind == COMPLEMENT and demand_mode == PAPER_FORM:
        r1, r2, p = _stationary_point(bundle, root, sigma)
        fallback = not (0.0 <= r1 <= box[0] and 0.0 <= r2 <= box[1] and 0.0 <= p < math.inf)

    def lattice_max(points):
        return oracles.grid_maximize(
            lambda r1, r2, p: _profit(bundle, r1, r2, p, demand_mode), _lattice(box, points))

    # the linear form's fee^2 and (1+gamma)^2*u1*u2, each below p_hi^2 on the box, can
    # overflow together to inf/inf; its nan raises below, with no warnings first
    overflows = box[2] * box[2] == math.inf
    with np.errstate(over="ignore", invalid="ignore") if overflows else contextlib.nullcontext():
        _check_box(bundle, box, demand_mode)
        if not fallback:
            profit = float(_profit(bundle, r1, r2, p, demand_mode))
        elif demand_mode == PAPER_FORM:
            r1, r2, p = _paper_ascent(bundle, sigma, lattice_max(seed_points).coords, box)
            profit = float(_profit(bundle, r1, r2, p, demand_mode))
        else:
            r1, r2, p, profit = _exact_ascent(bundle, box)
        # the certificate changes nothing returned; a NaN surface raises its error first
        grid = lattice_max(verify_points) if verify else None
    if math.isnan(profit):  # a box's corners can be finite while (1+gamma)^2*u1*u2 overflows inside
        raise DomainError(f"bundle profit is NaN at r1={r1}, r2={r2}, fee {p}; "
                          "the scenario's magnitudes overflow together")
    clamped = _clamped(r1, r2, p, box)
    return OptimumBundle(
        r1_star=r1,
        r2_star=r2,
        p_b_star=p,
        profit=profit,
        interior=not clamped,
        clamped_variables=clamped,
        fee_root=root,
        demand_mode=demand_mode,
        fallback=fallback,
        grid=grid,
    )


def optimal_bundle_fee_fixed_privacy(bundle: BundleSpec, r1: float, r2: float) -> float:
    """Fee rule 0.82*(1+gamma)*sqrt(u1*u2) for complements with imposed privacy.

    The 0.82 coefficient is the conventional two-decimal rounding of
    sqrt(2/3), the exact maximizer of p*(1 - 0.5*p^2/((1+gamma)^2*u1*u2)).
    No substitute analogue is defined.
    """
    if bundle.kind != COMPLEMENT:
        raise DomainError("fixed-privacy bundle fee is defined for complement bundles only")
    u1 = evaluate_quality(r1, bundle.s1.quality)
    u2 = evaluate_quality(r2, bundle.s2.quality)
    _check_positive_quality(u1, u2)
    return 0.82 * (1.0 + bundle.gamma) * math.sqrt(u1 * u2)


def concavity_report_bundle(bundle: BundleSpec, r1: float, r2: float, p_b: float) -> ConcavityReport:
    """Analytic Hessian of the paper-form profit in (r1, r2, p_b) order, either bundle kind.

    Every entry is linear in the demand factor sigma, so its minors scale as
    sigma, sigma^2 and sigma^3.
    """
    a, b = bundle.s1.quality, bundle.s2.quality
    m, sigma = bundle.market.m, bundle.demand_factor
    u1 = evaluate_quality(r1, a)
    u2 = evaluate_quality(r2, b)
    _check_positive_quality(u1, u2)
    _check_fee(p_b)
    k = (1.0 + bundle.gamma) ** 2
    x = a.alpha2 * math.exp(a.alpha3 * r1)
    y = b.alpha2 * math.exp(b.alpha3 * r2)
    try:
        h00 = -sigma * m * a.alpha3**2 * x * (a.alpha1 + x) * p_b**3 / (k * u1**3 * u2)
        h01 = -sigma * m * a.alpha3 * b.alpha3 * x * y * p_b**3 / (k * u1**2 * u2**2)
        h02 = -3.0 * sigma * m * a.alpha3 * x * p_b**2 / (k * u1**2 * u2)
        h11 = -sigma * m * b.alpha3**2 * y * (b.alpha1 + y) * p_b**3 / (k * u1 * u2**3)
        h12 = -3.0 * sigma * m * b.alpha3 * y * p_b**2 / (k * u1 * u2**2)
        h22 = -6.0 * sigma * m * p_b / (k * u1 * u2)
        d2 = (
            sigma**2 * m**2 * a.alpha3**2 * b.alpha3**2 * x * y * p_b**6
            * (a.alpha1 * b.alpha1 + x * b.alpha1 + a.alpha1 * y)
            / (k**2 * u1**4 * u2**4)
        )
        a2_cubic = (
            m**3 * p_b**7 * a.alpha3**2 * b.alpha3**2 * x * y
            * (a.alpha1 * y + x * b.alpha1 - 2.0 * a.alpha1 * b.alpha1)
        )
        d3 = 3.0 * sigma**3 * a2_cubic / (k**3 * u1**5 * u2**5)
    except (OverflowError, ZeroDivisionError) as exc:  # powers of u, p_b and k at 1e100
        raise _out_of_range(f"at r1={r1}, r2={r2}, fee {p_b}", exc) from None
    hessian = np.array([[h00, h01, h02], [h01, h11, h12], [h02, h12, h22]])
    d1 = h00
    minors = (d1, d2, d3)
    return ConcavityReport(
        hessian=hessian,
        minors=minors,
        negative_semidefinite=alternating_minor_verdict(minors),
        variables=("r1", "r2", "p_b"),
        a2=a2_cubic,
    )


def bundling_decision(bundle: BundleSpec, demand_mode: str = PAPER_FORM) -> BundlingDecision:
    """Compare the bundle optimum against the pair of standalone optima.

    Recommends bundling only on a strict profit improvement; ties keep the
    services separate.

    Where it recommends bundling (paper form; README, "Where bundling
    pays"): at fixed privacy levels the bundle's best revenue is
    (2m/3)*(1+gamma)*sqrt(u1*u2/(3*sigma)), at the fee
    (1+gamma)*sqrt(u1*u2/(3*sigma)), and the standalone services' best
    revenues sum to m*(u1 + u2)/4, at the fees u_i/2.  So at equal privacy
    levels, as at zero wages, where every optimum takes r = 0, bundling
    earns more if and only if (8/3)*(1+gamma)/sqrt(3*sigma) > sqrt(rho) +
    1/sqrt(rho), rho = u1/u2, sigma = 0.5 for complements and 0.5 + gamma^2
    for substitutes.  Complements at gamma = 0 stop bundling once rho
    leaves [1/2.3073, 2.3073]; identical substitutes bundle for gamma >
    -0.0761, the root of 22*gamma^2 - 64*gamma - 5, at any wage: at equal
    levels r the bundle earns C*u(r) - 2*n*c*(1 - r), C =
    (2m/3)*(1+gamma)/sqrt(3*sigma), and the pair (m/2)*u(r) - 2*n*c*(1 -
    r), so one side wins at every r.  So the paper's two claims hold in
    part: bundling complements pays only while their qualities are close
    enough (a larger gamma widens the window), and bundling substitutes
    hurts only past a contingency slightly below 0.
    """
    opt_b = optimize_bundle(bundle, demand_mode=demand_mode)
    opt_1 = optimize_separate(SeparateScenario(service=bundle.s1, market=bundle.market))
    opt_2 = optimize_separate(SeparateScenario(service=bundle.s2, market=bundle.market))
    separate_total = opt_1.profit + opt_2.profit
    return BundlingDecision(
        bundle_profit=opt_b.profit,
        separate_profits=(opt_1.profit, opt_2.profit),
        recommend_bundle=opt_b.profit > separate_total,
        bundle_optimum=opt_b,
        separate_optima=(opt_1, opt_2),
    )
