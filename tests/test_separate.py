import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket import (
    DomainError,
    MarketSpec,
    QualityParams,
    SeparateScenario,
    ServiceSpec,
    concavity_report_separate,
    evaluate_quality,
    grid_maximize,
    gross_profit_separate,
    optimal_fee_fixed_privacy,
    optimize_separate,
    privacy_cap,
    separate_grid,
    separate_objective,
)

from conftest import (
    S1_PARAMS,
    assert_grid_agreement,
    fd_gradient,
    fd_hessian,
    hessians_close,
    random_separate_scenario,
)


class TestGrossProfit:
    def test_zero_fee_full_privacy_is_zero(self, s1_scenario):
        assert gross_profit_separate(s1_scenario, 1.0, 0.0) == 0.0

    def test_reference_point(self, s1_scenario):
        assert gross_profit_separate(s1_scenario, 0.62, 0.406) == pytest.approx(
            192.127562, abs=1e-5
        )

    def test_zero_privacy_half_demand(self, s1_scenario):
        # u(0)=0.818, fee u(0)/2 leaves half the customers buying
        assert gross_profit_separate(s1_scenario, 0.0, 0.409) == pytest.approx(184.5, abs=1e-12)

    def test_rejects_dead_quality(self, market):
        svc = ServiceSpec(quality=QualityParams(0.5, 0.3, 3.0), n=10, c=0.1)
        scenario = SeparateScenario(service=svc, market=market)
        with pytest.raises(DomainError):
            gross_profit_separate(scenario, 0.9, 0.1)  # u(0.9) < 0


class TestOptimize:
    def test_reference_optimum(self, s1_scenario):
        opt = optimize_separate(s1_scenario)
        assert opt.r_star == pytest.approx(0.697291413, abs=1e-8)
        assert opt.p_star == pytest.approx(0.396780306, abs=1e-8)
        assert opt.profit == pytest.approx(192.335981, abs=1e-5)
        assert opt.interior
        assert opt.clamped_variables == ()
        assert opt.concave_at_optimum
        assert not opt.negative_profit

    def test_close_to_reported_rounded_optimum(self, s1_scenario):
        # reported optimum (0.406, 0.62, 195.5) came from unrounded curve
        # parameters; the rounded inputs land within the loose windows
        opt = optimize_separate(s1_scenario)
        assert abs(opt.p_star - 0.406) / 0.406 < 0.15
        assert abs(opt.r_star - 0.62) / 0.62 < 0.15
        assert abs(opt.profit - 195.5) / 195.5 < 0.05

    def test_profit_consistent_with_evaluation(self, s1_scenario):
        opt = optimize_separate(s1_scenario)
        assert opt.profit == pytest.approx(
            gross_profit_separate(s1_scenario, opt.r_star, opt.p_star), abs=1e-9
        )

    def test_free_data_means_no_privacy(self, s1_scenario):
        scenario = SeparateScenario(
            service=ServiceSpec(quality=s1_scenario.service.quality, n=100, c=0.0),
            market=s1_scenario.market,
        )
        opt = optimize_separate(scenario)
        assert opt.r_star == 0.0
        assert opt.p_star == pytest.approx(evaluate_quality(0.0, scenario.service.quality) / 2)
        assert not opt.interior
        assert opt.clamped_variables == ("r",)

    def test_stationary_point_on_its_bound_is_clamped(self):
        # r* = log(4*n*c/(m*alpha2*alpha3))/alpha3 = log(1) = 0 exactly: the point is
        # the stationary one, and r lies on its bound, so r is clamped
        service = ServiceSpec(QualityParams(0.9, 0.1, 1.0), n=100, c=0.25)
        scenario = SeparateScenario(service=service, market=MarketSpec(m=1000))
        opt = optimize_separate(scenario)
        assert opt.r_star == 0.0
        assert opt.p_star == pytest.approx(evaluate_quality(0.0, scenario.service.quality) / 2)
        assert not opt.interior
        assert opt.clamped_variables == ("r",)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_clamped_exactly_when_on_a_bound(self, seed):
        scenario = random_separate_scenario(np.random.default_rng(seed))
        opt = optimize_separate(scenario)
        on_bound = opt.r_star in (0.0, privacy_cap(scenario.service.quality))
        assert opt.clamped_variables == (("r",) if on_bound else ())
        assert opt.interior == (opt.clamped_variables == ())

    def test_stationarity_at_interior_optimum(self, s1_scenario):
        opt = optimize_separate(s1_scenario)
        grad = fd_gradient(
            lambda x: gross_profit_separate(s1_scenario, x[0], x[1]),
            [opt.r_star, opt.p_star],
            h=1e-6,
        )
        assert np.all(np.abs(grad) < 1e-4)

    def test_negative_profit_scenario_flagged(self, market):
        # the quality curve dies at r=0.17, so data cost can never be
        # recovered: the solver still reports the least-bad boundary point
        svc = ServiceSpec(quality=QualityParams(0.5, 0.3, 3.0), n=100, c=1.0)
        opt = optimize_separate(SeparateScenario(service=svc, market=MarketSpec(m=10)))
        assert opt.negative_profit
        assert opt.profit < 0
        assert opt.clamped_variables == ("r",)
        assert opt.r_star == pytest.approx(privacy_cap(svc.quality))

    def test_oracle_agreement_random_scenarios(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            scenario = random_separate_scenario(rng)
            opt = optimize_separate(scenario)
            grid = separate_grid(scenario, r_points=400, fee_points=400)
            best = grid_maximize(separate_objective(scenario), grid)
            assert_grid_agreement(
                opt.profit, (opt.r_star, opt.p_star), best, grid, 1e-3,
                lambda r, p: gross_profit_separate(scenario, r, p),
            )


    @pytest.mark.parametrize("params", [QualityParams(0.5, 0.4999999999, 1.0),
                                        QualityParams(0.822, 0.004, 1e100)],
                             ids=["alpha2~alpha1", "alpha3=1e100"])
    def test_cap_is_zero_when_quality_vanishes_within_its_margin(self, params, market):
        # the zero-quality point lies within privacy_cap's 1e-9 margin of r = 0;
        # the cap was negative, and every grid over [0, cap] raised
        assert privacy_cap(params) == 0.0
        scenario = SeparateScenario(service=ServiceSpec(params, n=100, c=0.2), market=market)
        assert optimize_separate(scenario).r_star == 0.0
        best = grid_maximize(separate_objective(scenario), separate_grid(scenario, 20, 20))
        assert best.coords[0] == 0.0


class TestFixedPrivacyFee:
    def test_half_quality_rule(self, s1_scenario):
        assert optimal_fee_fixed_privacy(s1_scenario, 0.0) == pytest.approx(0.409, abs=1e-12)
        assert optimal_fee_fixed_privacy(s1_scenario, 0.62) == pytest.approx(0.3995590, abs=1e-6)

    def test_identity_with_joint_optimum(self, s1_scenario):
        opt = optimize_separate(s1_scenario)
        assert abs(optimal_fee_fixed_privacy(s1_scenario, opt.r_star) - opt.p_star) < 1e-12

    def test_identity_over_random_interior_scenarios(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 40:
            scenario = random_separate_scenario(rng)
            opt = optimize_separate(scenario)
            if not opt.interior:
                continue
            assert abs(optimal_fee_fixed_privacy(scenario, opt.r_star) - opt.p_star) < 1e-12
            checked += 1

    def test_rejects_dead_quality(self, s1_scenario):
        with pytest.raises(DomainError):
            optimal_fee_fixed_privacy(s1_scenario, 1.9)


class TestConcavity:
    def test_reference_first_minor(self, s1_scenario):
        report = concavity_report_separate(s1_scenario, 0.62, 0.4)
        assert report.minors[0] == pytest.approx(-2502.76, abs=0.01)
        assert report.variables == ("p_s", "r")

    def test_sign_pattern_random_points(self, s1_scenario):
        rng = np.random.default_rng(11)
        cap = privacy_cap(s1_scenario.service.quality)
        for _ in range(1000):
            r = rng.uniform(0.0, cap)
            p = rng.uniform(0.0, s1_scenario.service.quality.alpha1)
            report = concavity_report_separate(s1_scenario, r, p)
            assert report.minors[0] <= 1e-9
            assert report.minors[1] >= -1e-9
            assert report.negative_semidefinite

    def test_zero_fee_is_semidefinite_boundary(self, s1_scenario):
        report = concavity_report_separate(s1_scenario, 0.4, 0.0)
        assert report.minors[1] == 0.0
        assert report.negative_semidefinite

    def test_matches_finite_differences(self, s1_scenario):
        rng = np.random.default_rng(13)
        for _ in range(25):
            r = rng.uniform(0.05, 0.9)
            p = rng.uniform(0.05, 0.4)
            report = concavity_report_separate(s1_scenario, r, p)
            # profit ordering is (fee, privacy) in the report
            numeric = fd_hessian(
                lambda x: gross_profit_separate(s1_scenario, x[1], x[0]), [p, r], h=1e-4
            )
            assert hessians_close(report.hessian, numeric, rel=1e-5)

    def test_determinant_matches_second_minor(self, s1_scenario):
        report = concavity_report_separate(s1_scenario, 0.5, 0.3)
        assert report.minors[1] == pytest.approx(np.linalg.det(report.hessian), rel=1e-9)


@pytest.mark.parametrize("field, value, accepted", [
    ("n", 1, True), ("n", True, False), ("n", False, False), ("n", 10.0, False),
    ("n", "10", False), ("n", None, False),
    ("c", 0, True), ("c", 1, True), ("c", 0.2, True), ("c", np.float64(0.5), True),
    ("c", True, False), ("c", False, False), ("c", "x", False),
    ("c", None, False), ("c", 1j, False),
])
def test_service_spec_accepts_real_numbers_only(field, value, accepted):
    values = {"quality": S1_PARAMS, "n": 100, "c": 0.2, field: value}
    if accepted:
        ServiceSpec(**values)
    else:
        message = ("participant count must be a positive integer" if field == "n"
                   else "reservation wage c must lie in")
        with pytest.raises(DomainError, match=message):
            ServiceSpec(**values)


def test_int_past_float_range_is_a_domain_error():
    # math.isfinite raised OverflowError on such an int, so no DomainError was reached
    with pytest.raises(DomainError, match="reservation wage c must lie in"):
        ServiceSpec(quality=S1_PARAMS, n=100, c=10**400)
