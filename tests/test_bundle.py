import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from privmarket import (
    BundleSpec,
    COMPLEMENT,
    DomainError,
    EXACT_GEOMETRY,
    MarketSpec,
    PAPER_FORM,
    QualityParams,
    SUBSTITUTE,
    ServiceSpec,
    bundle_grid,
    bundle_objective,
    bundling_decision,
    concavity_report_bundle,
    grid_maximize,
    gross_profit_bundle,
    optimal_bundle_fee_fixed_privacy,
    optimize_bundle,
    prob_buy_substitute,
)

import privmarket.bundle as bundle_mod
import privmarket.demand as demand_mod
from privmarket.bundle import (
    _exact_sweeps,
    _paper_ascent,
    _profit_at,
)
from privmarket.quality import _quality
from privmarket.separate import privacy_cap

from conftest import assert_grid_agreement, fd_gradient, fd_hessian, hessians_close, random_bundle


class TestSpec:
    def test_demand_factor_is_the_paper_kernels_factor(self, sb2_bundle, monkeypatch):
        # gamma**2 and gamma*gamma differ in the last bit here
        bundle = replace(sb2_bundle, gamma=-0.29348673337941544)
        factors = []
        real = demand_mod._linear_form
        monkeypatch.setattr(demand_mod, "_linear_form",
                            lambda *args: factors.append(args[-1]) or real(*args))
        prob_buy_substitute(0.5, 0.8, 0.8, bundle.gamma)
        assert [f.hex() for f in factors] == [bundle.demand_factor.hex()]

    def test_kind_gamma_coupling(self, s1_service, s3_service, market):
        with pytest.raises(DomainError):
            BundleSpec(s1=s1_service, s2=s3_service, market=market, gamma=-0.1, kind=COMPLEMENT)
        with pytest.raises(DomainError):
            BundleSpec(s1=s1_service, s2=s3_service, market=market, gamma=0.1, kind=SUBSTITUTE)
        with pytest.raises(DomainError):
            BundleSpec(s1=s1_service, s2=s3_service, market=market, gamma=-0.6, kind=SUBSTITUTE)

    def test_shared_crowd_required(self, s1_service, market):
        other = ServiceSpec(quality=s1_service.quality, n=50, c=0.1)
        with pytest.raises(DomainError):
            BundleSpec(s1=s1_service, s2=other, market=market, gamma=0.1, kind=COMPLEMENT)


class TestGrossProfit:
    def test_zero_fee_full_privacy_is_zero(self, sb1_bundle):
        assert gross_profit_bundle(sb1_bundle, 1.0, 1.0, 0.0) == 0.0

    def test_complement_reference_point(self, sb1_bundle):
        assert gross_profit_bundle(sb1_bundle, 0.513, 0.499, 0.754) == pytest.approx(
            483.072431, abs=1e-5
        )

    def test_substitute_reference_point(self, sb2_bundle):
        # privacy levels matched to the reported qualities (0.811, 0.793)
        r1 = math.log((0.822 - 0.811) / 0.004) / 2.813
        r2 = math.log((0.856 - 0.793) / 0.013) / 1.861
        assert gross_profit_bundle(sb2_bundle, r1, r2, 0.58) == pytest.approx(373.134591, abs=1e-5)

    @pytest.mark.parametrize("mode", [PAPER_FORM, EXACT_GEOMETRY])
    @pytest.mark.parametrize("as_fee", [float, np.float64, lambda v: np.array([0.5, v])],
                             ids=["float", "numpy-scalar", "array"])
    def test_fee_and_quality_scale_overflowing_together_is_a_domain_error(
            self, sb1_bundle, mode, as_fee):
        # fee^2 and (1+gamma)^2*u1*u2 both overflow: the profit was nan, after
        # overflow and invalid-value RuntimeWarnings
        huge = replace(_with_quality(sb1_bundle, 1e100), gamma=1e100)
        with np.errstate(over="raise", invalid="raise"), \
                pytest.raises(DomainError, match="NaN at fee 1e\\+200; .*overflow together"):
            gross_profit_bundle(huge, 0.0, 0.0, as_fee(1e200), mode)
        # a fee whose square overflows alone still sells nothing, with no warning
        with np.errstate(over="raise", invalid="raise"):
            profit = gross_profit_bundle(sb1_bundle, 0.0, 0.0, as_fee(1e200), mode)
        assert np.ravel(profit)[-1] == gross_profit_bundle(sb1_bundle, 0.0, 0.0, 0.0, mode)

    @pytest.mark.parametrize("mode", [PAPER_FORM, EXACT_GEOMETRY])
    @pytest.mark.parametrize("as_input", [float, np.float64, lambda v: np.array([v, v])],
                             ids=["float", "numpy-scalar", "array"])
    def test_qualities_whose_product_underflows_are_a_domain_error(
            self, sb1_bundle, mode, as_input):
        # (1+gamma)^2*u1*u2 underflows to 0: the profit at fee 0 was 0/0, nan after
        # an invalid-value RuntimeWarning, where the public buy rules raise
        quality = QualityParams(1e-170, 1e-180, 50.0)
        tiny = replace(sb1_bundle, s1=replace(sb1_bundle.s1, quality=quality),
                       s2=replace(sb1_bundle.s2, quality=quality))
        zero = as_input(0.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                pytest.raises(DomainError, match="underflows to 0"):
            gross_profit_bundle(tiny, zero, zero, zero, mode)


class TestOptimizeComplement:
    def test_reference_optimum(self, sb1_bundle):
        opt = optimize_bundle(sb1_bundle)
        assert opt.r1_star == pytest.approx(0.620411154, abs=1e-8)
        assert opt.r2_star == pytest.approx(0.502271357, abs=1e-8)
        assert opt.p_b_star == pytest.approx(0.744012227, abs=1e-8)
        assert opt.profit == pytest.approx(483.439088, abs=1e-5)
        assert not opt.fallback
        assert opt.interior
        assert opt.clamped_variables == ()

    def test_close_to_reported_rounded_optimum(self, sb1_bundle):
        # fee and profit sit close to the published optimum; the privacy
        # argmax is the one coordinate that drifts furthest under the
        # rounded curve parameters (the surface is nearly flat there)
        opt = optimize_bundle(sb1_bundle)
        assert abs(opt.p_b_star - 0.754) / 0.754 < 0.10
        assert abs(opt.r2_star - 0.499) / 0.499 < 0.15
        assert abs(opt.profit - 487.84) / 487.84 < 0.05

    def test_oracle_certification(self, sb1_bundle):
        opt = optimize_bundle(sb1_bundle, verify=True)
        assert opt.oracle_delta is not None
        assert opt.oracle_delta >= -1e-2

    def test_profit_field_consistent_with_evaluation(self, sb1_bundle, sb2_bundle):
        for bundle in (sb1_bundle, sb2_bundle):
            opt = optimize_bundle(bundle)
            evaluated = gross_profit_bundle(bundle, opt.r1_star, opt.r2_star, opt.p_b_star)
            assert opt.profit == pytest.approx(evaluated, abs=1e-9)

    def test_symmetric_bundle(self, s1_service, market):
        bundle = BundleSpec(s1=s1_service, s2=s1_service, market=market, gamma=0.0, kind=COMPLEMENT)
        opt = optimize_bundle(bundle)
        assert opt.r1_star == pytest.approx(opt.r2_star, abs=1e-12)

    def test_swap_symmetry(self, sb1_bundle, market):
        swapped = BundleSpec(
            s1=sb1_bundle.s2, s2=sb1_bundle.s1, market=market,
            gamma=sb1_bundle.gamma, kind=sb1_bundle.kind,
        )
        a = optimize_bundle(sb1_bundle)
        b = optimize_bundle(swapped)
        assert a.r1_star == pytest.approx(b.r2_star, abs=1e-9)
        assert a.r2_star == pytest.approx(b.r1_star, abs=1e-9)
        assert a.p_b_star == pytest.approx(b.p_b_star, abs=1e-9)
        assert a.profit == pytest.approx(b.profit, abs=1e-9)

    def test_stationarity(self, sb1_bundle):
        opt = optimize_bundle(sb1_bundle)
        grad = fd_gradient(
            lambda x: gross_profit_bundle(sb1_bundle, x[0], x[1], x[2]),
            [opt.r1_star, opt.r2_star, opt.p_b_star],
            h=1e-6,
        )
        assert np.all(np.abs(grad) < 1e-4)

    def test_free_data_clamps_privacy(self, sb1_bundle, market):
        free = ServiceSpec(quality=sb1_bundle.s1.quality, n=sb1_bundle.s1.n, c=0.0)
        bundle = BundleSpec(s1=free, s2=sb1_bundle.s2, market=market, gamma=0.1, kind=COMPLEMENT)
        opt = optimize_bundle(bundle)
        assert opt.r1_star == 0.0
        assert opt.fallback
        assert "r1" in opt.clamped_variables

    def test_profit_increases_with_contingency(self, sb1_bundle, market):
        profits = []
        fees = []
        for gamma in np.linspace(0.0, 0.5, 6):
            bundle = BundleSpec(
                s1=sb1_bundle.s1, s2=sb1_bundle.s2, market=market, gamma=float(gamma),
                kind=COMPLEMENT,
            )
            opt = optimize_bundle(bundle)
            profits.append(opt.profit)
            fees.append(opt.p_b_star)
        assert np.all(np.diff(profits) > 0)
        assert np.all(np.diff(fees) > 0)

    def test_wage_raises_privacy_and_cuts_profit(self, sb1_bundle, market):
        r1s = []
        profits = []
        for c1 in np.linspace(0.05, 0.4, 6):
            svc = ServiceSpec(quality=sb1_bundle.s1.quality, n=sb1_bundle.s1.n, c=float(c1))
            bundle = BundleSpec(s1=svc, s2=sb1_bundle.s2, market=market, gamma=0.1, kind=COMPLEMENT)
            opt = optimize_bundle(bundle)
            r1s.append(opt.r1_star)
            profits.append(opt.profit)
        assert np.all(np.diff(r1s) > 0)
        assert np.all(np.diff(profits) < 0)

    def test_oracle_agreement_random_complements(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            bundle = random_bundle(rng, COMPLEMENT)
            opt = optimize_bundle(bundle)
            grid = bundle_grid(bundle, points=120)
            best = grid_maximize(bundle_objective(bundle), grid)
            assert_grid_agreement(
                opt.profit, (opt.r1_star, opt.r2_star, opt.p_b_star), best, grid, 1e-2,
                lambda r1, r2, p: gross_profit_bundle(bundle, r1, r2, p),
            )


class TestOptimizeSubstitute:
    def test_reference_optimum_via_fallback(self, sb2_bundle):
        opt = optimize_bundle(sb2_bundle)
        assert opt.fallback  # substitutes are solved by grid-seeded ascent
        # the stationarity quadratic's root with sigma = 0.5 + gamma^2 gives the ascent's fee
        a3, b3 = sb2_bundle.s1.quality.alpha3, sb2_bundle.s2.quality.alpha3
        fee = 0.5 * opt.fee_root / (sb2_bundle.market.m * a3 * b3)
        assert fee == pytest.approx(opt.p_b_star, rel=1e-12)
        assert opt.r1_star == pytest.approx(0.704040742, abs=1e-7)
        assert opt.r2_star == pytest.approx(0.665019913, abs=1e-7)
        assert opt.p_b_star == pytest.approx(0.583576087, abs=1e-7)
        assert opt.profit == pytest.approx(376.431938, abs=1e-4)
        assert opt.interior

    def test_close_to_reported_fee(self, sb2_bundle):
        opt = optimize_bundle(sb2_bundle)
        assert abs(opt.p_b_star - 0.58) / 0.58 < 0.10

    def test_bundle_is_detrimental(self, sb2_bundle, s1_scenario, s2_scenario):
        from privmarket import optimize_separate

        opt = optimize_bundle(sb2_bundle)
        total = optimize_separate(s1_scenario).profit + optimize_separate(s2_scenario).profit
        assert opt.profit < total

    def test_stationarity(self, sb2_bundle):
        opt = optimize_bundle(sb2_bundle)
        grad = fd_gradient(
            lambda x: gross_profit_bundle(sb2_bundle, x[0], x[1], x[2]),
            [opt.r1_star, opt.r2_star, opt.p_b_star],
            h=1e-6,
        )
        assert np.all(np.abs(grad) < 1e-4)

    def test_swap_symmetry(self, sb2_bundle, market):
        swapped = BundleSpec(
            s1=sb2_bundle.s2, s2=sb2_bundle.s1, market=market,
            gamma=sb2_bundle.gamma, kind=sb2_bundle.kind,
        )
        a = optimize_bundle(sb2_bundle)
        b = optimize_bundle(swapped)
        assert a.r1_star == pytest.approx(b.r2_star, abs=1e-9)
        assert a.r2_star == pytest.approx(b.r1_star, abs=1e-9)
        assert a.p_b_star == pytest.approx(b.p_b_star, abs=1e-9)
        assert a.profit == pytest.approx(b.profit, abs=1e-9)

    def test_profit_shrinks_as_contingency_drops(self, sb2_bundle, market):
        profits = []
        fees = []
        for gamma in np.linspace(-0.4, -0.05, 6):
            bundle = BundleSpec(
                s1=sb2_bundle.s1, s2=sb2_bundle.s2, market=market, gamma=float(gamma),
                kind=SUBSTITUTE,
            )
            opt = optimize_bundle(bundle)
            profits.append(opt.profit)
            fees.append(opt.p_b_star)
        assert np.all(np.diff(profits) > 0)  # increasing gamma -> higher profit
        assert np.all(np.diff(fees) > 0)

    def test_oracle_agreement_random_substitutes(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            bundle = random_bundle(rng, SUBSTITUTE)
            opt = optimize_bundle(bundle)
            grid = bundle_grid(bundle, points=120)
            best = grid_maximize(bundle_objective(bundle), grid)
            assert_grid_agreement(
                opt.profit, (opt.r1_star, opt.r2_star, opt.p_b_star), best, grid, 1e-2,
                lambda r1, r2, p: gross_profit_bundle(bundle, r1, r2, p),
            )

    def test_draw_that_stalled_the_fee_ascent_ends_above_its_grid(self):
        # the fee-coordinate ascent stopped here at its 600-sweep cap, at -64.99819
        rng = np.random.default_rng(11)
        for i in range(316):
            bundle = random_bundle(rng, (COMPLEMENT, SUBSTITUTE)[i % 2])
        opt = optimize_bundle(bundle, verify=True, verify_points=60)
        assert opt.profit == pytest.approx(-64.98285, abs=1e-5)
        assert opt.profit >= opt.grid.value

    @pytest.mark.parametrize("seed", [11, 7])
    def test_ascent_from_the_box_corner_reaches_the_seeded_optimum(self, seed):
        # P(r1, r2) is concave, so the seed grid only shortens the ascent
        rng = np.random.default_rng(seed)
        for _ in range(20):
            bundle = random_bundle(rng, SUBSTITUTE)
            opt = optimize_bundle(bundle)
            box = (privacy_cap(bundle.s1.quality), privacy_cap(bundle.s2.quality), math.inf)
            point = _paper_ascent(bundle, bundle.demand_factor, (0.0, 0.0, 0.0), box)
            profit = gross_profit_bundle(bundle, *point)
            cost = bundle.n * (bundle.s1.c + bundle.s2.c)
            assert profit >= opt.profit - 8 * math.ulp(max(abs(opt.profit) + cost, 1.0))

    def test_exact_geometry_mode(self, sb2_bundle):
        opt = optimize_bundle(sb2_bundle, demand_mode=EXACT_GEOMETRY, seed_points=24)
        assert opt.fallback
        assert opt.demand_mode == EXACT_GEOMETRY
        # clipped-geometry demand is higher, so the optimum cannot be worse
        paper = optimize_bundle(sb2_bundle)
        assert opt.profit >= paper.profit - 1e-6


def _with_quality(bundle, alpha1):
    return replace(bundle, s1=replace(bundle.s1, quality=replace(bundle.s1.quality, alpha1=alpha1)),
                   s2=replace(bundle.s2, quality=replace(bundle.s2.quality, alpha1=alpha1)))


def _with_s1(bundle, **fields):
    return replace(bundle, s1=replace(bundle.s1, **fields))


# paper-mode inputs whose fee-coordinate ascent raised "overflow together":
# each magnitude is in range, and the ascent on the fee-eliminated profit solves them
SOLVED_OVERFLOWS = {
    "substitute-alpha1": lambda sb1, sb2: _with_quality(sb2, 1e100),
    "substitute-ceilings": lambda sb1, sb2: replace(
        _with_wages(_with_quality(sb2, 1e100), 1e100), market=MarketSpec(m=int(1e100))),
    "complement-alpha1-wage": lambda sb1, sb2: _with_s1(
        sb1, quality=replace(sb1.s1.quality, alpha1=1e100), c=1e100),
    "complement-alpha1-gamma": lambda sb1, sb2: replace(
        _with_s1(sb1, quality=replace(sb1.s1.quality, alpha1=1e100)), gamma=1e100),
    "complement-M-gamma": lambda sb1, sb2: replace(sb1, market=MarketSpec(m=10**100), gamma=1e100),
}


@pytest.mark.parametrize("case", list(SOLVED_OVERFLOWS))
def test_inputs_that_overflowed_end_above_their_grid(case, sb1_bundle, sb2_bundle):
    bundle = SOLVED_OVERFLOWS[case](sb1_bundle, sb2_bundle)
    opt = optimize_bundle(bundle, verify=True, verify_points=60)
    assert opt.fallback
    assert math.isfinite(opt.profit) and opt.profit >= opt.grid.value


def _paper_like_bundle(rng, kind):
    """The paper's services (S1 with S3, or S1 with S2) with perturbed curves, wages and M."""
    def service(a1, a2, a3, lo, hi):
        quality = QualityParams(a1 * rng.uniform(0.97, 1.03), a2 * rng.uniform(0.8, 1.25),
                                a3 * rng.uniform(0.9, 1.1))
        return ServiceSpec(quality, n=100, c=float(rng.uniform(lo, hi)))

    s1 = service(0.822, 0.004, 2.813, 0.1, 0.3)
    if kind == COMPLEMENT:
        s2, gamma = service(0.867, 0.001, 4.2, 0.05, 0.2), rng.uniform(0.02, 0.4)
    else:
        s2, gamma = service(0.856, 0.013, 1.861, 0.1, 0.3), rng.uniform(-0.4, -0.02)
    return BundleSpec(s1, s2, MarketSpec(m=int(rng.integers(500, 2001))), float(gamma), kind)


def _grid_seeded_exact_optimum(bundle, points=48):
    """The exact-mode ascent from the best point of a points^3 grid, with its profit."""
    lattice = bundle_grid(bundle, points=points, demand_mode=EXACT_GEOMETRY)
    grid = grid_maximize(bundle_objective(bundle, EXACT_GEOMETRY), lattice)
    box = tuple(hi for _, hi, _ in lattice.axes)
    point = _exact_sweeps(bundle, grid.coords, box)
    clamped = bundle_mod._clamped(*point, box)
    return point, clamped, gross_profit_bundle(bundle, *point, EXACT_GEOMETRY)


def _with_wages(bundle, wage):
    if wage is None:
        return bundle
    return replace(bundle, s1=replace(bundle.s1, c=wage), s2=replace(bundle.s2, c=wage))


class TestExactSeed:
    """The exact-mode ascent starts from closed forms, not from a seed grid."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([COMPLEMENT, SUBSTITUTE]),
           st.sampled_from([None, 0.0, 5.0]))
    def test_agrees_with_the_grid_seeded_ascent(self, seed, kind, wage):
        # near the paper's services the exact optimum is unique: same point, same clamps
        bundle = _with_wages(_paper_like_bundle(np.random.default_rng(seed), kind), wage)
        opt = optimize_bundle(bundle, demand_mode=EXACT_GEOMETRY)
        point, clamped, reference = _grid_seeded_exact_optimum(bundle)
        assert (reference - opt.profit) / abs(reference) <= 1e-11
        assert np.max(np.abs(np.subtract(opt.point, point))) <= 1e-6
        assert opt.clamped_variables == clamped

    def test_ends_on_a_worse_maximum_no_more_often_than_a_small_seed_grid(self):
        # far from the paper's services the exact profit can have several local
        # maxima, one per set of active services and more, and no local search
        # is sure to find the best; the closed-form starts may miss it (as found
        # from a 48^3 seed grid) no more often than an ascent from a 16^3 grid
        rng = np.random.default_rng(2024)
        misses = {"closed form": 0, "16^3 grid": 0}
        for i in range(150):
            bundle = _with_wages(random_bundle(rng, (COMPLEMENT, SUBSTITUTE)[i % 2]),
                                 (None, 0.0, 5.0)[i % 3])
            best = _grid_seeded_exact_optimum(bundle)[2]
            profits = {"closed form": optimize_bundle(bundle, demand_mode=EXACT_GEOMETRY).profit,
                       "16^3 grid": _grid_seeded_exact_optimum(bundle, points=16)[2]}
            for name, profit in profits.items():
                misses[name] += (best - profit) / abs(best) > 1e-9
        assert misses["closed form"] <= misses["16^3 grid"]

    def test_complement_that_ended_on_a_lower_corner_reaches_the_higher_maximum(self):
        # the starts once took the linear form's clipped stationary point, and all
        # three collapsed onto the corner (1, cap2), where the sweeps ended at -140.9147
        bundle = _with_wages(random_bundle(np.random.default_rng(3078761725), COMPLEMENT), 5.0)
        opt = optimize_bundle(bundle, demand_mode=EXACT_GEOMETRY)
        assert opt.profit >= -139.2853
        assert opt.r2_star < bundle_mod._box(bundle, EXACT_GEOMETRY)[1] - 0.05

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([COMPLEMENT, SUBSTITUTE]),
           st.sampled_from([None, 0.0, 5.0]))
    @example(seed=3078761725, kind=COMPLEMENT, wage=5.0)  # start -139.2852, parent -140.9147
    def test_not_below_the_fee_eliminated_maximum(self, seed, kind, wage):
        # the maximum of P, the linear form's profit with the fee maximized out, at
        # the exact interior factor starts the exact solve: its exact profit is a
        # floor, to rounding; each slice returns a level it scored, so a slice
        # whose maximum lies on a bound, as P's does, ends on it
        bundle = _with_wages(random_bundle(np.random.default_rng(seed), kind), wage)
        box = bundle_mod._box(bundle, EXACT_GEOMETRY)
        sigma = 0.5 if kind == COMPLEMENT else 0.5 - bundle.gamma * bundle.gamma
        start = _paper_ascent(bundle, sigma, (0.0, 0.0, 0.0), box)
        floor = gross_profit_bundle(bundle, *start, EXACT_GEOMETRY)
        opt = optimize_bundle(bundle, demand_mode=EXACT_GEOMETRY)
        scale = abs(opt.profit) + bundle.n * (bundle.s1.c + bundle.s2.c)
        assert opt.profit >= floor - 2e-12 * scale

    def test_sweeps_that_end_at_a_cap_below_one_run_again_from_the_other_starts(self, monkeypatch):
        # a substitute whose best-ranked start ends with r1 at its cap 0.4725, at
        # -283.0732; the sweeps from the other starts reach -274.8242
        rng = np.random.default_rng(2024)
        for i in range(228):
            bundle = random_bundle(rng, (COMPLEMENT, SUBSTITUTE)[i % 2])
        bundle = _with_wages(bundle, 5.0)
        ends = []
        real = bundle_mod._exact_sweeps
        monkeypatch.setattr(bundle_mod, "_exact_sweeps",
                            lambda *args: ends.append(real(*args)) or ends[-1])
        opt = optimize_bundle(bundle, demand_mode=EXACT_GEOMETRY)
        cap1 = bundle_mod._box(bundle, EXACT_GEOMETRY)[0]
        assert cap1 < 1.0 and ends[0][0] == cap1
        assert gross_profit_bundle(bundle, *ends[0], EXACT_GEOMETRY) < -283.0
        assert opt.profit >= -274.8243

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0),
           st.floats(-0.499, -1e-6))
    def test_interior_substitute_demand_is_linear_at_half_minus_gamma_squared(
            self, share, u1, u2, gamma):
        # inclusion-exclusion on the box [0, p/u1] x [0, p/u2] while p <= min(u1, u2)
        fee = share * min(u1, u2)
        linear = 1.0 - (0.5 - gamma**2) * fee**2 / ((1.0 + gamma) ** 2 * u1 * u2)
        assert prob_buy_substitute(fee, u1, u2, gamma, EXACT_GEOMETRY) == pytest.approx(
            linear, rel=0, abs=1e-12)


class TestClampRule:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([COMPLEMENT, SUBSTITUTE]),
           st.sampled_from([PAPER_FORM, EXACT_GEOMETRY]), st.sampled_from([None, 0.0, 5.0]))
    def test_clamped_exactly_the_variables_on_a_bound(self, seed, kind, mode, wage):
        # a privacy level at 0 or at its cap, a fee at 0, whichever path the solve took
        bundle = _with_wages(random_bundle(np.random.default_rng(seed), kind), wage)
        opt = optimize_bundle(bundle, demand_mode=mode)
        cap1, cap2 = (privacy_cap(svc.quality) for svc in bundle.services)
        on_bound = {"r1": opt.r1_star in (0.0, cap1), "r2": opt.r2_star in (0.0, cap2),
                    "p_b": opt.p_b_star == 0.0}
        assert opt.clamped_variables == tuple(name for name, flag in on_bound.items() if flag)
        assert opt.interior == (opt.clamped_variables == ())


class TestExactFee:
    """The exact ascent takes each fee in closed form (_exact_fee), with no search."""

    @pytest.mark.parametrize("kind, seed", [(COMPLEMENT, 1701), (SUBSTITUTE, 1702)])
    def test_never_below_a_dense_fee_lattice(self, kind, seed):
        # 1,000 slices (r1, r2) of random bundles, each against a 200,001-point
        # lattice of the kernel on [0, p_hi], evaluated in 2^14-point blocks; the
        # fee may lose only by rounding, relative to the terms the profit nets out
        rng = np.random.default_rng(seed)
        steps = np.linspace(0.0, 1.0, 200_001)
        between = 0
        for _ in range(1000):
            b = random_bundle(rng, kind)
            r1, r2 = (rng.uniform(0.0, privacy_cap(svc.quality)) for svc in b.services)
            u1, u2 = _quality(r1, b.s1.quality), _quality(r2, b.s2.quality)
            p_hi = bundle_mod._box(b, EXACT_GEOMETRY)[2]
            fee = bundle_mod._exact_fee(b, u1, u2, p_hi)
            assert type(fee) is float and 0.0 <= fee <= p_hi
            best = max(_profit_at(b, r1, r2, u1, u2, steps[i:i + (1 << 14)] * p_hi,
                                  EXACT_GEOMETRY).max() for i in range(0, steps.size, 1 << 14))
            scale = abs(best) + b.n * (b.s1.c + b.s2.c)
            assert _profit_at(b, r1, r2, u1, u2, fee, EXACT_GEOMETRY) >= best - 1e-15 * scale
            between += min(u1, u2) < fee < max(u1, u2)
        # substitutes: the piece where only the worse service's side of the box is full
        assert between >= (200 if kind == SUBSTITUTE else 0)

    @pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
    def test_each_sweep_searches_only_the_privacy_levels(self, kind, sb1_bundle, sb2_bundle,
                                                         monkeypatch):
        b = sb1_bundle if kind == COMPLEMENT else sb2_bundle
        box = bundle_mod._box(b, EXACT_GEOMETRY)
        sweeps, slices, scored = [], [], []
        real_fee, real_slice = bundle_mod._exact_fee, bundle_mod._exact_slice
        monkeypatch.setattr(bundle_mod, "_exact_fee",
                            lambda *args: sweeps.append(len(slices)) or real_fee(*args))

        def counted_slice(bundle, svc, cap, p, u_other, profit):
            slices.append(cap)
            return real_slice(bundle, svc, cap, p, u_other,
                              lambda t: scored.append(t.size) or profit(t))

        monkeypatch.setattr(bundle_mod, "_exact_slice", counted_slice)
        # from a corner of the box, so that the ascent takes more than one sweep
        _exact_sweeps(b, (0.0, 0.0, 0.0), box)
        # a fee, then r1 on [0, cap1] and r2 on [0, cap2], each sweep; one more fee at the end
        assert len(sweeps) >= 3 and sweeps == [2 * i for i in range(len(sweeps))]
        assert slices == [box[0], box[1]] * (len(sweeps) - 1)
        # each slice scores its few candidate levels in one call, with no search
        assert len(scored) == len(slices) and max(scored) <= 9


def _slice_profit(b, levels, qualities, i, p):
    """The exact profit on an array of r_i, the other level and both qualities as given."""
    def profit(t):
        lv, qs = list(levels), list(qualities)
        lv[i], qs[i] = t, _quality(t, b.services[i].quality)
        return _profit_at(b, *lv, *qs, p, EXACT_GEOMETRY)
    return profit


def _lattice_shortfall(b, i, cap, p, u_other, profit):
    """(shortfall, best): how far _exact_slice's answer earns below a 100,001-point lattice of
    the slice, less 1e-15 of the terms the profit nets out, and the lattice's best level."""
    r = bundle_mod._exact_slice(b, b.services[i], cap, p, u_other, profit)
    steps = np.linspace(0.0, cap, 100_001)
    values = profit(steps)
    best = values.max()
    ours = profit(np.array([r]))[0]
    shortfall = best - ours - 1e-15 * (abs(best) + b.n * b.services[i].c)
    return shortfall, float(steps[values.argmax()])


class TestExactSlice:
    """Each exact privacy slice is scored at a few levels (_slice_levels), with no search."""

    def test_not_below_a_dense_lattice(self):
        # slices of r_i at random points of random bundles, at the exact fee or
        # at a random fee in [0, p_hi], with drawn wages, 0 or 5; the answer may
        # lose only by rounding, relative to the terms the profit nets out
        rng = np.random.default_rng(2606)
        off, wage_zero = {COMPLEMENT: 0, SUBSTITUTE: 0}, 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(240):
                kind = (COMPLEMENT, SUBSTITUTE)[j % 2]
                b = _with_wages(random_bundle(rng, kind), (None, 0.0, 5.0)[j // 2 % 3])
                box = bundle_mod._box(b, EXACT_GEOMETRY)
                r = [rng.uniform(0.0, box[0]), rng.uniform(0.0, box[1])]
                u = [_quality(level, svc.quality) for level, svc in zip(r, b.services)]
                p = bundle_mod._exact_fee(b, *u, box[2]) if j % 4 < 2 else rng.uniform(0.0, box[2])
                i = j // 4 % 2
                shortfall, best = _lattice_shortfall(b, i, box[i], p, u[1 - i],
                                                     _slice_profit(b, r, u, i, p))
                assert shortfall <= 0.0, (j, shortfall)
                # off interior geometry at the lattice's best level; for a
                # substitute, past the kink at p = min(u1, u2)
                low = min(_quality(best, b.services[i].quality), u[1 - i])
                off[kind] += p > (1.0 + b.gamma) * low if kind == COMPLEMENT else p > low
                wage_zero += b.s1.c == 0.0
        assert min(off.values()) >= 20 and wage_zero >= 60

    @pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
    @pytest.mark.parametrize("alpha1, wage", [(1e100, 0.2), (1e100, 0.0), (0.8, 0.0)])
    def test_extreme_slices_warn_nothing(self, kind, alpha1, wage, sb1_bundle, sb2_bundle):
        # a ceiling of 1e100 and a wage of 0, both slices of each kind at the
        # exact fee of a point inside the box and at the box's largest fee
        b = sb1_bundle if kind == COMPLEMENT else sb2_bundle
        svc = replace(b.s1, quality=replace(b.s1.quality, alpha1=alpha1), c=wage)
        b = replace(b, s1=svc, s2=replace(b.s2, c=wage))
        box = bundle_mod._box(b, EXACT_GEOMETRY)
        r = [0.5 * box[0], 0.5 * box[1]]
        u = [_quality(level, s.quality) for level, s in zip(r, b.services)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (bundle_mod._exact_fee(b, *u, box[2]), box[2]):
                for i in (0, 1):
                    shortfall, _ = _lattice_shortfall(b, i, box[i], p, u[1 - i],
                                                      _slice_profit(b, r, u, i, p))
                    assert shortfall <= 0.0, (p, i, shortfall)

    def test_nan_slice_value_raises(self, sb1_bundle):
        # argmax would pick the nan at the least level over the maximum at the cap
        def profit(t):
            values = np.array(t, dtype=float)
            values[0] = np.nan
            return values

        with pytest.raises(DomainError, match="NaN at privacy level 0.0.*overflow together"):
            bundle_mod._exact_slice(sb1_bundle, sb1_bundle.s1, 1.0, 0.5, 0.5, profit)


class TestFixedPrivacyFee:
    def test_unit_quality_reference(self, market):
        # u(0) = alpha1 - alpha2 = 1 on both sides, so the rule returns 0.82
        from privmarket import QualityParams

        unit = ServiceSpec(quality=QualityParams(1.5, 0.5, 1.0), n=10, c=0.1)
        bundle = BundleSpec(s1=unit, s2=unit, market=market, gamma=0.0, kind=COMPLEMENT)
        assert optimal_bundle_fee_fixed_privacy(bundle, 0.0, 0.0) == pytest.approx(0.82, abs=1e-12)

    def test_exact_stationary_constant_is_sqrt_two_thirds(self):
        # calculus oracle: maximize p*(1 - 0.5 p^2) on [0, sqrt(2)]
        ps = np.linspace(0.0, math.sqrt(2.0), 2_000_001)
        vals = ps * (1.0 - 0.5 * ps**2)
        best = ps[int(np.argmax(vals))]
        assert best == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-6)
        # the published 0.82 coefficient is that constant rounded
        assert abs(0.82 - math.sqrt(2.0 / 3.0)) < 0.005

    def test_reference_bundle_point(self, sb1_bundle):
        fee = optimal_bundle_fee_fixed_privacy(sb1_bundle, 0.513, 0.499)
        assert fee == pytest.approx(0.750041551, abs=1e-8)
        # stationarity of the revenue at the exact constant, near-zero at 0.82
        from privmarket import evaluate_quality

        u1 = evaluate_quality(0.513, sb1_bundle.s1.quality)
        u2 = evaluate_quality(0.499, sb1_bundle.s2.quality)
        exact_fee = math.sqrt(2.0 / 3.0) * 1.1 * math.sqrt(u1 * u2)
        assert abs(fee - exact_fee) / exact_fee < 0.005

    def test_substitute_unsupported(self, sb2_bundle):
        with pytest.raises(DomainError):
            optimal_bundle_fee_fixed_privacy(sb2_bundle, 0.3, 0.3)


class TestConcavity:
    def test_sign_pattern_at_optimum(self, sb1_bundle):
        opt = optimize_bundle(sb1_bundle)
        report = concavity_report_bundle(sb1_bundle, opt.r1_star, opt.r2_star, opt.p_b_star)
        d1, d2, d3 = report.minors
        assert d1 <= 1e-9 and d2 >= -1e-9 and d3 <= 1e-9
        assert report.a2 <= 0
        assert report.negative_semidefinite
        assert report.variables == ("r1", "r2", "p_b")

    def test_zero_fee_degenerates(self, sb1_bundle):
        report = concavity_report_bundle(sb1_bundle, 0.4, 0.4, 0.0)
        assert report.minors[0] == 0.0
        assert np.all(report.hessian == 0.0)

    def test_sign_pattern_random_points(self, sb1_bundle):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            r1 = rng.uniform(0.0, 1.0)
            r2 = rng.uniform(0.0, 1.0)
            p = rng.uniform(0.0, 1.2)
            report = concavity_report_bundle(sb1_bundle, r1, r2, p)
            assert report.minors[0] <= 1e-9
            assert report.minors[1] >= -1e-9
            assert report.minors[2] <= 1e-9
            assert report.negative_semidefinite

    def test_matches_finite_differences(self, sb1_bundle):
        rng = np.random.default_rng(19)
        for _ in range(25):
            r1 = rng.uniform(0.1, 0.9)
            r2 = rng.uniform(0.1, 0.9)
            p = rng.uniform(0.1, 1.0)
            report = concavity_report_bundle(sb1_bundle, r1, r2, p)
            numeric = fd_hessian(
                lambda x: gross_profit_bundle(sb1_bundle, x[0], x[1], x[2]), [r1, r2, p], h=1e-4
            )
            assert hessians_close(report.hessian, numeric, rel=1e-4)

    def test_minors_match_eigen_oracle(self, sb1_bundle):
        report = concavity_report_bundle(sb1_bundle, 0.5, 0.45, 0.7)
        h = report.hessian
        assert report.minors[0] == pytest.approx(h[0, 0], rel=1e-12)
        assert report.minors[1] == pytest.approx(np.linalg.det(h[:2, :2]), rel=1e-9)
        assert report.minors[2] == pytest.approx(np.linalg.det(h), rel=1e-9)
        assert np.all(np.linalg.eigvalsh(h) <= 1e-9)

    @pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
    def test_matches_finite_differences_on_random_bundles(self, kind):
        # points inside the box where the paper demand is not clamped, so
        # the profit is smooth within the finite-difference step
        rng = np.random.default_rng(29 if kind == COMPLEMENT else 31)
        for _ in range(100):
            bundle = random_bundle(rng, kind)
            r1 = rng.uniform(0.05, 0.95) * privacy_cap(bundle.s1.quality)
            r2 = rng.uniform(0.05, 0.95) * privacy_cap(bundle.s2.quality)
            u1, u2 = _quality(r1, bundle.s1.quality), _quality(r2, bundle.s2.quality)
            p_max = (1.0 + bundle.gamma) * math.sqrt(u1 * u2 / bundle.demand_factor)
            p = rng.uniform(0.1, 0.9) * p_max
            report = concavity_report_bundle(bundle, r1, r2, p)
            numeric = fd_hessian(lambda x: bundle_mod._profit(bundle, *x, bundle_mod.PAPER_FORM),
                                 [r1, r2, p], h=1e-4)
            assert hessians_close(report.hessian, numeric, rel=1e-4)

    @pytest.mark.parametrize("edit", ["alpha1", "gamma"])
    def test_magnitude_ceiling_is_a_validation_error(self, sb1_bundle, edit):
        # u1**5 and k**3 overflow at the 1e100 ceiling
        if edit == "alpha1":
            s1 = replace(sb1_bundle.s1, quality=replace(sb1_bundle.s1.quality, alpha1=1e100))
            huge = replace(sb1_bundle, s1=s1)
        else:
            huge = replace(sb1_bundle, gamma=1e100)
        with pytest.raises(DomainError, match="overflow together"):
            concavity_report_bundle(huge, 0.5, 0.5, 0.9)


class TestDecision:
    def test_complements_recommended(self, sb1_bundle):
        decision = bundling_decision(sb1_bundle)
        assert decision.recommend_bundle
        assert decision.bundle_profit == pytest.approx(483.439088, abs=1e-4)
        assert decision.separate_profits[0] == pytest.approx(192.335981, abs=1e-4)
        assert decision.separate_profits[1] == pytest.approx(209.735226, abs=1e-4)

    def test_substitutes_rejected(self, sb2_bundle):
        decision = bundling_decision(sb2_bundle)
        assert not decision.recommend_bundle
        assert decision.bundle_profit < sum(decision.separate_profits)

    def test_tie_keeps_separate_sales(self, sb1_bundle, monkeypatch):
        decision = bundling_decision(sb1_bundle)
        tied = decision.separate_profits[0] + decision.separate_profits[1]

        real_optimize = bundle_mod.optimize_bundle

        def tied_optimize(bundle, demand_mode=bundle_mod.PAPER_FORM, **kw):
            opt = real_optimize(bundle, demand_mode=demand_mode, **kw)
            object.__setattr__(opt, "profit", tied)
            return opt

        monkeypatch.setattr(bundle_mod, "optimize_bundle", tied_optimize)
        assert not bundle_mod.bundling_decision(sb1_bundle).recommend_bundle

    def test_records_are_slotted(self, sb2_bundle):
        # a caller may keep many optima: the records carry no per-instance __dict__
        decision = bundling_decision(sb2_bundle)
        verified = optimize_bundle(sb2_bundle, verify=True, verify_points=9)
        for record in (decision, decision.bundle_optimum, decision.separate_optima[0], verified):
            assert not hasattr(record, "__dict__")
            assert pickle.loads(pickle.dumps(record)) == record
            assert replace(record) == record
        assert replace(verified, grid=None) != verified
        assert replace(decision, recommend_bundle=True) != decision


def _two_services(alpha1_ratio, gamma, kind, wage=0.0):
    """Services of ceilings alpha1_ratio and 1, alpha2 = 1e-6, in one bundle of m = 1000."""
    s1, s2 = (ServiceSpec(QualityParams(a, 1e-6, 2.0), 100, wage) for a in (alpha1_ratio, 1.0))
    return BundleSpec(s1, s2, MarketSpec(m=1000), gamma, kind)


def _flip(decisions):
    """The index of the first decision that differs from the one before; each side is constant."""
    flips = [i for i in range(1, len(decisions)) if decisions[i] != decisions[i - 1]]
    assert len(flips) == 1
    return flips[0]


class TestWhereBundlingPays:
    """At zero wages every optimum takes r = 0, and bundling pays iff
    (8/3)*(1+gamma)/sqrt(3*sigma) > sqrt(rho) + 1/sqrt(rho), rho = u1/u2 (README)."""

    @pytest.mark.parametrize("kind, gamma", [(COMPLEMENT, 0.0), (COMPLEMENT, 0.3),
                                             (SUBSTITUTE, -0.2), (SUBSTITUTE, -0.01)])
    @pytest.mark.parametrize("ratio", [0.4, 1.0, 1.7])
    def test_revenues_at_zero_wages(self, kind, gamma, ratio):
        # the bundle's best revenue (2m/3)*(1+gamma)*sqrt(u1*u2/(3*sigma)) against
        # the standalone services' m*(u1 + u2)/4
        b = _two_services(ratio, gamma, kind)
        u1, u2 = (svc.quality.alpha1 - svc.quality.alpha2 for svc in b.services)
        decision = bundling_decision(b)
        bundled = (2.0 * 1000 / 3.0) * (1.0 + gamma) * math.sqrt(u1 * u2 / (3.0 * b.demand_factor))
        assert decision.bundle_profit == pytest.approx(bundled, rel=1e-13)
        assert sum(decision.separate_profits) == pytest.approx(1000 * (u1 + u2) / 4.0, rel=1e-13)
        assert decision.bundle_optimum.point[:2] == (0.0, 0.0)

    def test_complements_stop_bundling_past_a_quality_ratio(self):
        # at gamma = 0, 8/(3*sqrt(1.5)) = sqrt(rho) + 1/sqrt(rho) at rho = 2.30734
        step, ceilings = 0.001, [2.25 + 0.001 * i for i in range(121)]
        decisions = [bundling_decision(_two_services(a, 0.0, COMPLEMENT)).recommend_bundle
                     for a in ceilings]
        flip = _flip(decisions)
        assert decisions[0] and not decisions[flip]
        rho = [(a - 1e-6) / (1.0 - 1e-6) for a in ceilings]  # u1/u2 at r = 0
        side = (8.0 / 3.0) / math.sqrt(1.5)
        root = ((side + math.sqrt(side * side - 4.0)) / 2.0) ** 2
        assert rho[flip - 1] <= root <= rho[flip] < rho[flip - 1] + 1.5 * step

    @pytest.mark.parametrize("wage", [0.0, 5.0])
    def test_identical_substitutes_bundle_above_a_contingency(self, wage):
        # at rho = 1, (4/3)*(1+gamma) = sqrt(1.5 + 3*gamma^2) at gamma = -0.076133, the
        # root of 22*gamma^2 - 64*gamma - 5; at equal levels one side earns more at
        # every r, so no wage moves it
        step, gammas = 0.0005, [-0.086 + 0.0005 * i for i in range(41)]
        decisions = [bundling_decision(_two_services(1.0, g, SUBSTITUTE, wage)).recommend_bundle
                     for g in gammas]
        flip = _flip(decisions)
        assert decisions[flip] and not decisions[0]
        root = (64.0 - math.sqrt(64.0 * 64.0 + 4.0 * 22.0 * 5.0)) / 44.0
        assert gammas[flip - 1] <= root <= gammas[flip] < gammas[flip - 1] + 1.5 * step


def test_exact_solve_runs_without_linspace(sb1_bundle, sb2_bundle, monkeypatch):
    expected = [optimize_bundle(b, EXACT_GEOMETRY) for b in (sb1_bundle, sb2_bundle)]

    def no_linspace(*args, **kwargs):
        raise AssertionError("np.linspace called")

    monkeypatch.setattr(bundle_mod.np, "linspace", no_linspace)
    assert [optimize_bundle(b, EXACT_GEOMETRY) for b in (sb1_bundle, sb2_bundle)] == expected
