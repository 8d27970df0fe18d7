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
symmetric expression for r2.  For complements this is evaluated directly.
Substitutes go straight to grid-seeded coordinate ascent, which is exact
here because G is concave in each coordinate wherever u1, u2 > 0; their
`fee_root` is the same quadratic's root with sigma = 0.5 + gamma^2, which
reproduces the ascent's fee on the shipped substitute bundle.  Exact
demand is this form with sigma = 0.5 or 0.5 - gamma^2 on interior
geometry, so its ascent starts from closed forms, not a grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from .demand import (
    COMPLEMENT,
    EXACT_GEOMETRY,
    PAPER_FORM,
    SUBSTITUTE,
    MarketSpec,
    _buy_complement,
    _buy_substitute,
    _check_contingency,
    _check_fee,
    _check_mode,
    _check_positive_quality,
    _check_privacy,
    _output,
    prob_buy_complement,
    prob_buy_substitute,
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
    "optimize_bundle",
    "optimal_bundle_fee_fixed_privacy",
    "concavity_report_bundle",
    "bundling_decision",
]

_ASCENT_TOL = 1e-13
_ASCENT_SWEEPS = 600
_BRACKET_POINTS = 129
_EXACT_EDGE = 1e-5  # an exact-mode coordinate this close to a bound is clamped


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
        if self.kind not in (COMPLEMENT, SUBSTITUTE):
            raise DomainError(f"bundle kind must be '{COMPLEMENT}' or '{SUBSTITUTE}', got {self.kind!r}")
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
        """sigma in the linear demand form: 0.5 +- the substitute correction."""
        return 0.5 if self.kind == COMPLEMENT else 0.5 + self.gamma**2

    # the market interface shared with SeparateScenario
    point_names = ("r1", "r2", "p_b")

    @property
    def services(self) -> tuple[ServiceSpec, ServiceSpec]:
        return (self.s1, self.s2)

    def optimize(self, demand_mode: str = PAPER_FORM, verify: bool = False) -> "OptimumBundle":
        return optimize_bundle(self, demand_mode=demand_mode, verify=verify)

    def profit_surface(self, demand_mode: str = PAPER_FORM):
        """The profit as a function of (r1, r2, p_b) and the oracle lattice that certifies it."""
        return (oracles.bundle_objective(self, demand_mode),
                oracles.bundle_grid(self, demand_mode=demand_mode))

    def buy_probability(self, fee, qualities, demand_mode: str = PAPER_FORM):
        rule = prob_buy_complement if self.kind == COMPLEMENT else prob_buy_substitute
        return rule(fee, *qualities, self.gamma, demand_mode)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class BundlingDecision:
    bundle_profit: float
    separate_profits: tuple[float, float]
    recommend_bundle: bool
    bundle_optimum: OptimumBundle
    separate_optima: tuple[OptimumSeparate, OptimumSeparate]


def _profit(bundle: BundleSpec, r1, r2, p_b, demand_mode):
    """gross_profit_bundle without checks, for (r1, r2, p_b) in the feasible box."""
    u1 = _quality(r1, bundle.s1.quality)
    u2 = _quality(r2, bundle.s2.quality)
    buy = _buy_complement if bundle.kind == COMPLEMENT else _buy_substitute
    n = bundle.n
    return (
        bundle.market.m * p_b * buy(p_b, u1, u2, bundle.gamma, demand_mode)
        - n * bundle.s1.c * (1.0 - r1)
        - n * bundle.s2.c * (1.0 - r2)
    )


def gross_profit_bundle(bundle: BundleSpec, r1, r2, p_b, demand_mode=PAPER_FORM):
    """Bundle revenue minus both services' data costs; arrays OK in both demand modes.

    Validates its inputs once, then evaluates the unchecked `_profit`.
    """
    r1, r2, p_b = (_as_input(v) for v in (r1, r2, p_b))
    _check_mode(demand_mode)
    _check_privacy(r1, r2)
    _check_fee(p_b)
    _check_positive_quality(_quality(r1, bundle.s1.quality), _quality(r2, bundle.s2.quality))
    return _output(_profit(bundle, r1, r2, p_b, demand_mode))


def _fee_root(bundle: BundleSpec, sigma: float) -> float:
    """Positive root of the stationarity quadratic, scaled by 2*m*a3*b3."""
    a = bundle.s1.quality
    b = bundle.s2.quality
    m, n = bundle.market.m, bundle.n
    c1, c2 = bundle.s1.c, bundle.s2.c
    k = (1.0 + bundle.gamma) ** 2
    try:
        radical = math.sqrt(
            (4.0 / 3.0) * k * m * m * a.alpha1 * b.alpha1 * a.alpha3**2 * b.alpha3**2 / sigma
            + 9.0 * n * n * (a.alpha3 * c2 - b.alpha3 * c1) ** 2
        )
    except OverflowError:
        raise DomainError(
            "bundle fee root overflows; the scenario's magnitudes overflow together"
        ) from None
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


def _fee_upper_bound(bundle: BundleSpec, demand_mode: str) -> float:
    u1_0 = evaluate_quality(0.0, bundle.s1.quality)
    u2_0 = evaluate_quality(0.0, bundle.s2.quality)
    if demand_mode == PAPER_FORM:
        return (1.0 + bundle.gamma) * math.sqrt(u1_0 * u2_0 / bundle.demand_factor)
    return (1.0 + bundle.gamma) * (u1_0 + u2_0)


def _privacy_update(quality, cost, kappa, cap):
    """Maximize the r-slice: smaller root of n*c*(a1-X)^2 = kappa*X in X.

    Returns (r, clamped).  kappa bundles the fee/demand prefactor; cost is
    n*c for the service being updated.
    """
    if kappa <= 0.0:
        # revenue insensitive to this privacy level: cost alone decides
        return (cap, True) if cost > 0 else (0.0, True)
    if cost == 0.0:
        return 0.0, True
    a1 = quality.alpha1
    b_term = 2.0 * cost * a1 + kappa
    x = 2.0 * cost * a1 * a1 / (b_term + math.sqrt(kappa * kappa + 4.0 * cost * a1 * kappa))
    if not x > 0.0:  # the root is positive; 0 or nan means the terms left float range
        raise DomainError(
            f"privacy update out of floating-point range (n*c = {cost:g}, kappa = {kappa:g}); "
            "the scenario's magnitudes overflow together"
        )
    r = math.log(x / quality.alpha2) / quality.alpha3
    if r < 0.0:
        return 0.0, True
    if r > cap:
        return cap, True
    return r, False


def _bracket_max(fn, lo, hi, tol):
    """Maximize a unimodal fn on [lo, hi] by shrinking lattice brackets.

    Each round evaluates fn once on a _BRACKET_POINTS lattice (one array
    call) and keeps the two cells around the argmax, which must contain
    the maximizer of a unimodal function; rounds stop once the bracket is
    narrower than tol, or once a round leaves it unchanged (float spacing
    wider than tol), and the bracket midpoint is returned.
    """
    while hi - lo > tol:
        grid = np.linspace(lo, hi, _BRACKET_POINTS)
        best = int(np.argmax(fn(grid)))
        bracket = grid[max(best - 1, 0)], grid[min(best + 1, _BRACKET_POINTS - 1)]
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    return float(0.5 * (lo + hi))


def _coordinate_ascent(bundle: BundleSpec, demand_mode: str, start):
    """Cyclic exact maximization over p, r1, r2 from a start in the box.

    In paper mode each coordinate maximizer is closed form; in exact mode
    a batched bracket search (_bracket_max) runs on the exact-geometry
    profit, evaluating each slice on a lattice in one array call per
    round.  Concavity of every slice makes the sweep converge to a joint
    maximum (in exact mode a local one).  Every point lies in the box
    [0, cap1] x [0, cap2] x [0, p_hi] that the caller has validated, so
    the slices and qualities are evaluated by the unchecked kernels
    (_profit, _quality).
    """
    a, b = bundle.s1.quality, bundle.s2.quality
    m, n = bundle.market.m, bundle.n
    sigma = bundle.demand_factor
    k = (1.0 + bundle.gamma) ** 2
    cap1, cap2 = privacy_cap(a), privacy_cap(b)
    p_hi = _fee_upper_bound(bundle, demand_mode)
    r1, r2, p = start
    clamp1 = clamp2 = False
    # near the optimum the profit is flat to float resolution over a
    # ~1e-6-wide plateau, so searched coordinates cannot be pinned tighter
    # than that; the paper mode uses exact updates instead
    paper = demand_mode == PAPER_FORM
    sweep_tol = _ASCENT_TOL if paper else 1e-6
    bracket_tol = 1e-9
    edge = 1e-9 if paper else _EXACT_EDGE
    for _ in range(_ASCENT_SWEEPS):
        prev = (r1, r2, p)
        u1 = float(_quality(r1, a))
        u2 = float(_quality(r2, b))
        if paper:
            p = math.sqrt(k * u1 * u2 / (3.0 * sigma))
            try:
                cube = p**3
            except OverflowError:
                raise DomainError(
                    f"bundle fee {p:g} overflows the coordinate ascent; "
                    "the scenario's magnitudes overflow together"
                ) from None
            kappa1 = sigma * m * cube * a.alpha3 / (k * u2)
            r1, clamp1 = _privacy_update(a, n * bundle.s1.c, kappa1, cap1)
            u1 = float(_quality(r1, a))
            kappa2 = sigma * m * cube * b.alpha3 / (k * u1)
            r2, clamp2 = _privacy_update(b, n * bundle.s2.c, kappa2, cap2)
        else:
            p = _bracket_max(
                lambda t: _profit(bundle, r1, r2, t, demand_mode), 0.0, p_hi, bracket_tol
            )
            r1 = _bracket_max(
                lambda t: _profit(bundle, t, r2, p, demand_mode), 0.0, cap1, bracket_tol
            )
            r2 = _bracket_max(
                lambda t: _profit(bundle, r1, t, p, demand_mode), 0.0, cap2, bracket_tol
            )
            clamp1 = r1 <= edge or r1 >= cap1 - edge
            clamp2 = r2 <= edge or r2 >= cap2 - edge
        if max(abs(r1 - prev[0]), abs(r2 - prev[1]), abs(p - prev[2])) < sweep_tol:
            break
    clamped = []
    if clamp1:
        clamped.append("r1")
    if clamp2:
        clamped.append("r2")
    if p <= 0.0:
        clamped.append("p_b")
    return r1, r2, p, tuple(clamped)


def _exact_ascent(bundle: BundleSpec, root: float, cap1: float, cap2: float):
    """Exact-mode coordinate ascent from closed-form starts, one per set of active services.

    Both services: the stationary point of the linear form at the exact
    interior factor sigma (left out when nan).  One service, the other's
    privacy at its cap: its standalone optimum, quality scaled by 1 + gamma
    for complements.  The ascent runs from the most profitable start;
    ending at a cap below 1, where a service's quality vanishes, it also
    runs from the others and keeps the best end.  Far from the paper's
    services local maxima that no start reaches can exist (README).
    """
    # the one validated call: the box's eight corners, with the seed grid's
    # checks of its axes and of nan values
    box = oracles.bundle_grid(bundle, points=2, demand_mode=EXACT_GEOMETRY)
    corners = np.meshgrid(*(axis[:2] for axis in box.axes), indexing="ij", sparse=True)
    oracles._check_no_nan(gross_profit_bundle(bundle, *corners, EXACT_GEOMETRY))
    if bundle.kind == COMPLEMENT:
        sigma, scale = 0.5, 1.0 + bundle.gamma
    else:
        sigma, scale = 0.5 - bundle.gamma**2, 1.0
        root = _fee_root(bundle, sigma)
    m, n = bundle.market.m * scale, bundle.n
    r1, r2 = (min(max(_stationary_privacy(svc.quality, m, n, svc.c), 0.0), cap)
              for svc, cap in ((bundle.s1, cap1), (bundle.s2, cap2)))
    starts = [(r1, cap2, 0.5 * scale * _quality(r1, bundle.s1.quality)),
              (cap1, r2, 0.5 * scale * _quality(r2, bundle.s2.quality))]
    point = _stationary_point(bundle, root, sigma)
    if not any(map(math.isnan, point)):
        starts.insert(0, point)
    axes = [np.clip(axis, 0.0, hi) for axis, hi in zip(zip(*starts), (cap1, cap2, box.axes[2][1]))]
    order = np.argsort(-_profit(bundle, *axes, EXACT_GEOMETRY), kind="stable")
    first, *others = [tuple(float(axis[i]) for axis in axes) for i in order]
    ends = [_coordinate_ascent(bundle, EXACT_GEOMETRY, first)]
    if any(r >= cap - _EXACT_EDGE and cap < 1.0 for r, cap in zip(ends[0][:2], (cap1, cap2))):
        ends += [_coordinate_ascent(bundle, EXACT_GEOMETRY, start) for start in others]
    return max(ends, key=lambda end: _profit(bundle, *end[:3], EXACT_GEOMETRY))


def optimize_bundle(
    bundle: BundleSpec,
    demand_mode: str = PAPER_FORM,
    verify: bool = False,
    seed_points: int = 48,
    verify_points: int = 120,
) -> OptimumBundle:
    """Maximize the bundle profit over (r1, r2, p_b).

    For complements in paper mode the closed-form stationary point is
    evaluated first and accepted when it is feasible (nonnegative fee,
    privacy levels inside their boxes).  Paper-mode substitutes and
    infeasible or distrusted candidates take the fallback: a dense-grid
    seed refined by coordinate ascent; the exact mode ascends from closed
    forms (_exact_ascent).  With ``verify`` the result keeps an independent
    grid maximization (evaluated once) as its certificate, and a candidate
    that loses to that grid by more than rounding is re-solved through the
    fallback.
    """
    cap1, cap2 = privacy_cap(bundle.s1.quality), privacy_cap(bundle.s2.quality)
    root = _fee_root(bundle, bundle.demand_factor)
    fallback = True
    if bundle.kind == COMPLEMENT:
        r1, r2, p = _stationary_point(bundle, root, 0.5)
        fallback = not (
            demand_mode == PAPER_FORM
            and 0.0 <= r1 <= cap1
            and 0.0 <= r2 <= cap2
            and math.isfinite(p)
            and p >= 0.0
        )
    clamped: tuple[str, ...] = ()

    def lattice_max(points):
        return oracles.grid_maximize(
            oracles.bundle_objective(bundle, demand_mode),
            oracles.bundle_grid(bundle, points=points, demand_mode=demand_mode),
        )

    grid = None
    if verify and not fallback:
        grid = lattice_max(verify_points)
        profit = float(_profit(bundle, r1, r2, p, demand_mode))
        fallback = profit - grid.value < -1e-7 * (1.0 + abs(grid.value))
    if fallback and demand_mode == PAPER_FORM:
        r1, r2, p, clamped = _coordinate_ascent(bundle, demand_mode, lattice_max(seed_points).coords)
    elif fallback:
        r1, r2, p, clamped = _exact_ascent(bundle, root, cap1, cap2)
    if fallback and verify and grid is None:
        grid = lattice_max(verify_points)
    profit = float(_profit(bundle, r1, r2, p, demand_mode))
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
    """Analytic Hessian of the complement profit in (r1, r2, p_b) order."""
    if bundle.kind != COMPLEMENT:
        raise DomainError("the bundle concavity report covers complement bundles only")
    a, b = bundle.s1.quality, bundle.s2.quality
    m = bundle.market.m
    u1 = evaluate_quality(r1, a)
    u2 = evaluate_quality(r2, b)
    _check_positive_quality(u1, u2)
    _check_fee(p_b)
    k = (1.0 + bundle.gamma) ** 2
    x = a.alpha2 * math.exp(a.alpha3 * r1)
    y = b.alpha2 * math.exp(b.alpha3 * r2)
    try:
        h00 = -0.5 * m * a.alpha3**2 * x * (a.alpha1 + x) * p_b**3 / (k * u1**3 * u2)
        h01 = -0.5 * m * a.alpha3 * b.alpha3 * x * y * p_b**3 / (k * u1**2 * u2**2)
        h02 = -1.5 * m * a.alpha3 * x * p_b**2 / (k * u1**2 * u2)
        h11 = -0.5 * m * b.alpha3**2 * y * (b.alpha1 + y) * p_b**3 / (k * u1 * u2**3)
        h12 = -1.5 * m * b.alpha3 * y * p_b**2 / (k * u1 * u2**2)
        h22 = -3.0 * m * p_b / (k * u1 * u2)
        d2 = (
            0.25 * m**2 * a.alpha3**2 * b.alpha3**2 * x * y * p_b**6
            * (a.alpha1 * b.alpha1 + x * b.alpha1 + a.alpha1 * y)
            / (k**2 * u1**4 * u2**4)
        )
        a2_cubic = (
            m**3 * p_b**7 * a.alpha3**2 * b.alpha3**2 * x * y
            * (a.alpha1 * y + x * b.alpha1 - 2.0 * a.alpha1 * b.alpha1)
        )
        d3 = 0.375 * a2_cubic / (k**3 * u1**5 * u2**5)
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
