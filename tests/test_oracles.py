import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket import oracles
from privmarket import (
    COMPLEMENT,
    SUBSTITUTE,
    BundleSpec,
    DemandRegion,
    DomainError,
    EXACT_GEOMETRY,
    GridSpec,
    MarketSpec,
    ServiceSpec,
    SimResult,
    SimulationSpec,
    estimate_buy_probability,
    grid_maximize,
    gross_profit_separate,
    optimize_bundle,
    optimize_separate,
    participant_reports,
    prob_buy_complement,
    prob_buy_separate,
    prob_buy_substitute,
    separate_grid,
    separate_objective,
    simulate_market,
)
from privmarket.oracles import bundle_grid, bundle_objective

from conftest import S1_PARAMS, S3_PARAMS


class TestGridMaximize:
    def test_matches_closed_form(self, s1_scenario):
        best = grid_maximize(separate_objective(s1_scenario), separate_grid(s1_scenario))
        opt = optimize_separate(s1_scenario)
        grid = separate_grid(s1_scenario)
        assert abs(best.coords[0] - opt.r_star) <= (grid.axes[0][1] - grid.axes[0][0]) / 399 + 1e-12
        assert abs(best.coords[1] - opt.p_star) <= (grid.axes[1][1] - grid.axes[1][0]) / 399 + 1e-12
        assert best.value <= opt.profit

    def test_constant_objective_breaks_ties_low(self):
        grid = GridSpec(axes=((0.0, 1.0, 5), (2.0, 3.0, 4)))
        best = grid_maximize(lambda x, y: np.zeros_like(x * y), grid)
        assert best.coords == (0.0, 2.0)
        assert best.index == (0, 0)

    def test_bundle_grid_certifies_closed_form(self, sb1_bundle):
        best = grid_maximize(bundle_objective(sb1_bundle), bundle_grid(sb1_bundle, points=120))
        opt = optimize_bundle(sb1_bundle)
        assert abs(best.value - opt.profit) <= 1e-2 * 10  # coarse lattice sits just below
        assert opt.profit >= best.value

    def test_nested_refinement_never_decreases(self, s1_scenario):
        fn = separate_objective(s1_scenario)
        values = []
        count = 50
        for _ in range(3):
            grid = separate_grid(s1_scenario, r_points=count, fee_points=count)
            values.append(grid_maximize(fn, grid).value)
            count = 2 * count - 1  # nested lattice keeps every old point
        assert values[0] <= values[1] <= values[2]

    def test_rejects_degenerate_axes(self):
        with pytest.raises(DomainError):
            GridSpec(axes=((0.0, 1.0, 1),))
        with pytest.raises(DomainError):
            GridSpec(axes=((1.0, 0.0, 10),))


class TestSimulateMarket:
    def test_deterministic_for_fixed_seed(self, s1_scenario):
        sim = SimulationSpec(draws=300_000, seed=99)
        opt = optimize_separate(s1_scenario)
        a = simulate_market(s1_scenario, (opt.r_star, opt.p_star), sim)
        b = simulate_market(s1_scenario, (opt.r_star, opt.p_star), sim)
        assert a == b

    def test_seed_changes_stream(self, s1_scenario):
        opt = optimize_separate(s1_scenario)
        a = simulate_market(s1_scenario, (opt.r_star, opt.p_star), SimulationSpec(draws=100_000, seed=1))
        b = simulate_market(s1_scenario, (opt.r_star, opt.p_star), SimulationSpec(draws=100_000, seed=2))
        assert a.mean != b.mean

    def test_unbiased_at_reference_optimum(self, s1_scenario):
        opt = optimize_separate(s1_scenario)
        res = simulate_market(s1_scenario, (opt.r_star, opt.p_star), SimulationSpec(draws=1_000_000, seed=5))
        assert abs(res.mean - opt.profit) <= 3.0 * res.std_error

    def test_full_privacy_never_pays_data_cost(self, s1_scenario):
        # r=1 never triggers a true-data payment; a fee above the quality
        # ceiling kills revenue, so every draw is exactly zero
        res = simulate_market(s1_scenario, (1.0, 0.9), SimulationSpec(draws=50_000, seed=3))
        assert res.mean == 0.0
        assert res.std_error == 0.0

    def test_overpriced_service_earns_nothing(self, s1_scenario):
        # with r=0 every participant is paid, so each draw realizes -n*c
        res = simulate_market(s1_scenario, (0.0, 0.9), SimulationSpec(draws=50_000, seed=3))
        n, c = s1_scenario.service.n, s1_scenario.service.c
        assert res.mean == pytest.approx(-n * c, abs=1e-12)
        assert res.std_error == 0.0

    def test_bundle_unbiased(self, sb1_bundle):
        opt = optimize_bundle(sb1_bundle)
        point = (opt.r1_star, opt.r2_star, opt.p_b_star)
        res = simulate_market(sb1_bundle, point, SimulationSpec(draws=1_000_000, seed=17))
        assert abs(res.mean - opt.profit) <= 3.0 * res.std_error

    def test_rejects_invalid_point(self, s1_scenario):
        with pytest.raises(DomainError):
            simulate_market(s1_scenario, (1.5, 0.3), SimulationSpec(draws=10, seed=0))
        with pytest.raises(DomainError):
            simulate_market("not a scenario", (0.1, 0.1), SimulationSpec(draws=10, seed=0))

    @pytest.mark.parametrize("fee", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_fee(self, s1_scenario, fee):
        # the fee goes through the DemandRegion's rule, not a mean of nan
        with pytest.raises(DomainError):
            simulate_market(s1_scenario, (0.3, fee), SimulationSpec(draws=10, seed=0))



# float.hex of (simulate_market mean, std_error, estimate_buy_probability
# mean, std_error) recorded from an earlier release; 300,001 draws span
# three Philox chunks, so a change in draw order or chunking shows here
PINNED_DRAWS = {
    "separate": ("s1_scenario", (0.3, 0.35), DemandRegion(kind="separate", fee=0.4, u1=0.8),
                 ("0x1.732795cc4337fp+7", "0x1.445c13a0cb28ep-2",
                  "0x1.00bac6e7fdd60p-1", "0x1.de9ac2a1186cap-11")),
    "complement": ("sb1_bundle", (0.5, 0.6, 0.9),
                   DemandRegion(kind="complement", fee=0.9, u1=0.7, u2=0.8, gamma=0.1),
                   ("0x1.c14bc4a01156fp+8", "0x1.a492f70ef9435p-1",
                    "0x1.a98bb158c9569p-2", "0x1.d7bbe94b907c4p-11")),
    "substitute": ("sb2_bundle", (0.5, 0.6, 0.6),
                   DemandRegion(kind="substitute", fee=0.58, u1=0.811, u2=0.793, gamma=-0.1),
                   ("0x1.806489364e1afp+8", "0x1.07ec86f4df4d3p-1",
                    "0x1.5ed69aa54ab4ep-1", "0x1.bc8d6e97fac36p-11")),
}


@pytest.mark.parametrize("kind", list(PINNED_DRAWS))
def test_seeded_results_match_recorded_bits(kind, request):
    fixture, point, region, expected = PINNED_DRAWS[kind]
    sim = SimulationSpec(draws=300_001, seed=11)
    profit = simulate_market(request.getfixturevalue(fixture), point, sim)
    buy = estimate_buy_probability(region, sim)
    got = (profit.mean, profit.std_error, buy.mean, buy.std_error)
    assert tuple(v.hex() for v in got) == expected
    assert profit.draws == buy.draws == 300_001


def _cores(monkeypatch, count):
    monkeypatch.setattr(oracles, "_usable_cores", lambda: count)


@pytest.mark.parametrize("draws", [3 * oracles._CHUNK + 17, oracles._CHUNK, 1_000],
                         ids=["ragged-chunks", "one-chunk", "under-one-chunk"])
def test_results_do_not_depend_on_worker_count(draws, monkeypatch, request):
    sim = SimulationSpec(draws=draws, seed=23)
    results = []
    for cores in (1, 3):
        _cores(monkeypatch, cores)
        got = []
        for fixture, point, region, _ in PINNED_DRAWS.values():
            got.append(simulate_market(request.getfixturevalue(fixture), point, sim))
            got.append(estimate_buy_probability(region, sim))
        results.append(got)
    assert results[0] == results[1]
    assert all(isinstance(r, SimResult) and r.draws == draws for r in results[0])


def test_thread_pool_never_exceeds_parts(monkeypatch, s1_scenario):
    sizes = []

    class SpyExecutor(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyExecutor)
    _cores(monkeypatch, 64)
    simulate_market(s1_scenario, (0.3, 0.35), SimulationSpec(draws=2 * oracles._CHUNK + 1, seed=1))
    estimate_buy_probability(DemandRegion(kind="separate", fee=0.4, u1=0.8),
                             SimulationSpec(draws=oracles._CHUNK, seed=1))  # one chunk: inline
    rows = oracles._SLAB // 400
    grid_maximize(lambda x, y: x * y, GridSpec(axes=((0.0, 1.0, 2 * rows + 1), (0.0, 1.0, 400))))
    assert sizes == [3, 3]


class TestGridSlabs:
    """grid_maximize against one np.argmax over the whole lattice."""

    # 121 x 120 x 120 splits along the first axis into slabs of 9 rows, the last of 4
    GRID = GridSpec(axes=((0.0, 1.0, 121), (0.0, 2.0, 120), (-1.0, 1.0, 120)))
    ROWS = oracles._SLAB // (120 * 120)
    AXES = [np.linspace(lo, hi, count) for lo, hi, count in GRID.axes]

    def _full_argmax(self, objective):
        mesh = np.meshgrid(*self.AXES, indexing="ij", sparse=True)
        values = np.broadcast_to(np.asarray(objective(*mesh), dtype=float), (121, 120, 120))
        index = np.unravel_index(int(np.argmax(values)), values.shape)
        return tuple(int(i) for i in index), float(values[index])

    def _check(self, objective, expected_index):
        best = grid_maximize(objective, self.GRID)
        assert (best.index, best.value) == self._full_argmax(objective)
        assert best.index == expected_index
        assert best.coords == tuple(float(ax[i]) for ax, i in zip(self.AXES, best.index))

    def test_grid_splits_with_ragged_last_slab(self):
        assert self.ROWS == 9 and 121 % self.ROWS == 4

    def test_constant_objective(self):
        self._check(lambda x, y, z: np.zeros(np.broadcast_shapes(x.shape, y.shape, z.shape)),
                    (0, 0, 0))

    def test_plateau_across_slab_boundary_keeps_earlier_index(self):
        lo, hi = self.AXES[0][self.ROWS - 1], self.AXES[0][self.ROWS]
        self._check(lambda x, y, z: ((x >= lo) & (x <= hi) & (y >= 1.0)) + 0.0 * z,
                    (self.ROWS - 1, 60, 0))

    def test_maximum_in_last_slab(self):
        x0, y0, z0 = self.AXES[0][119], self.AXES[1][37], self.AXES[2][90]
        self._check(lambda x, y, z: -((x - x0) ** 2) - (y - y0) ** 2 - (z - z0) ** 2,
                    (119, 37, 90))

    def test_nan_in_last_slab_only(self):
        edge = self.AXES[0][-2]
        with pytest.raises(DomainError):
            grid_maximize(lambda x, y, z: np.where(x > edge, np.nan, 0.0) + 0.0 * y * z,
                          self.GRID)

    def test_bundle_grid_memory_stays_below_one_full_array(self, monkeypatch, sb1_bundle):
        _cores(monkeypatch, 2)  # a fixed worker count, so the bound does not follow the host
        grid = bundle_grid(sb1_bundle, points=120)
        objective = bundle_objective(sb1_bundle)
        tracemalloc.start()
        try:
            grid_maximize(objective, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 120**3 * 8  # 13.8 MB: one float array over the whole lattice


class TestParticipantReports:
    def test_full_privacy_all_noisy(self):
        rng = np.random.default_rng(0)
        emitted, true_mask = participant_reports(rng, 20_000, 1.0, 2.0)
        assert not true_mask.any()
        assert emitted.var() == pytest.approx(1.0 + 4.0, rel=0.05)

    def test_zero_privacy_all_true(self):
        rng = np.random.default_rng(0)
        emitted, true_mask = participant_reports(rng, 20_000, 0.0, 2.0)
        assert true_mask.all()
        assert emitted.var() == pytest.approx(1.0, rel=0.05)

    def test_true_fraction_tracks_privacy(self):
        rng = np.random.default_rng(1)
        _, true_mask = participant_reports(rng, 200_000, 0.3, 1.0)
        assert true_mask.mean() == pytest.approx(0.7, abs=0.005)


class TestEstimateBuyProbability:
    def test_separate_reference(self):
        res = estimate_buy_probability(
            DemandRegion(kind="separate", fee=0.4, u1=0.8), SimulationSpec(draws=1_000_000, seed=4)
        )
        assert abs(res.mean - 0.5) <= 3.0 * res.std_error

    def test_complement_unit_square(self):
        res = estimate_buy_probability(
            DemandRegion(kind="complement", fee=1.0, u1=1.0, u2=1.0, gamma=0.0),
            SimulationSpec(draws=1_000_000, seed=4),
        )
        assert abs(res.mean - 0.5) <= 3.0 * res.std_error

    def test_substitute_adjudicates_demand_forms(self):
        # the clipped-geometry probability matches simulation; the linear
        # form's (0.5+gamma^2) factor sits far outside the noise band
        region = DemandRegion(kind="substitute", fee=0.58, u1=0.811, u2=0.793, gamma=-0.1)
        res = estimate_buy_probability(region, SimulationSpec(draws=1_000_000, seed=4))
        exact = prob_buy_substitute(0.58, 0.811, 0.793, -0.1, EXACT_GEOMETRY)
        paper = prob_buy_substitute(0.58, 0.811, 0.793, -0.1)
        assert abs(res.mean - exact) <= 3.0 * res.std_error
        assert abs(res.mean - paper) > 3.0 * res.std_error

    def test_exact_geometry_agreement_random_regions(self):
        rng = np.random.default_rng(8)
        sim = SimulationSpec(draws=200_000, seed=12)
        for _ in range(10):
            u1, u2 = rng.uniform(0.3, 1.0, size=2)
            fee = rng.uniform(0.05, 1.2)
            kind = rng.choice(["separate", "complement", "substitute"])
            if kind == "separate":
                region = DemandRegion(kind="separate", fee=fee, u1=u1)
                expected = prob_buy_separate(fee, u1)
            elif kind == "complement":
                gamma = rng.uniform(0.0, 0.5)
                region = DemandRegion(kind="complement", fee=fee, u1=u1, u2=u2, gamma=gamma)
                expected = prob_buy_complement(fee, u1, u2, gamma, EXACT_GEOMETRY)
            else:
                gamma = rng.uniform(-0.45, -0.01)
                region = DemandRegion(kind="substitute", fee=fee, u1=u1, u2=u2, gamma=gamma)
                expected = prob_buy_substitute(fee, u1, u2, gamma, EXACT_GEOMETRY)
            res = estimate_buy_probability(region, sim)
            assert abs(res.mean - expected) <= max(3.0 * res.std_error, 1e-9)

    def test_region_validation(self):
        with pytest.raises(DomainError):
            DemandRegion(kind="bundle", fee=0.5, u1=0.8)
        with pytest.raises(DomainError):
            DemandRegion(kind="complement", fee=0.5, u1=0.8)  # missing u2/gamma
        with pytest.raises(DomainError):
            DemandRegion(kind="substitute", fee=0.5, u1=0.8, u2=0.8, gamma=0.2)

    @pytest.mark.parametrize("fields", [
        dict(kind="separate", fee=math.nan, u1=0.5),
        dict(kind="separate", fee=math.inf, u1=0.5),
        dict(kind="complement", fee=math.nan, u1=0.5, u2=0.6, gamma=0.1),
        dict(kind="separate", fee=0.3, u1=math.inf),
        dict(kind="complement", fee=0.3, u1=math.inf, u2=0.6, gamma=0.1),
        dict(kind="complement", fee=0.3, u1=0.5, u2=math.inf, gamma=0.1),
        dict(kind="complement", fee=0.3, u1=0.5, u2=0.6, gamma=math.nan),
    ], ids=["nan-fee", "inf-fee", "nan-bundle-fee", "inf-u1", "inf-bundle-u1", "inf-u2",
            "nan-gamma"])
    def test_region_rejects_non_finite_inputs(self, fields):
        with pytest.raises(DomainError):
            DemandRegion(**fields)


# the two windows' edges and the values just past them, with the non-finite ones
WINDOW_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e100, math.nextafter(1e100, math.inf),
                -0.5, math.nextafter(-0.5, 0.0), math.nextafter(-0.5, -1.0),
                math.nan, math.inf, -math.inf)
_MARKET = MarketSpec(m=1000)
_SERVICES = (ServiceSpec(S1_PARAMS, n=100, c=0.2), ServiceSpec(S3_PARAMS, n=100, c=0.1))


def _accepts(build):
    try:
        build()
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(gamma=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(WINDOW_EDGES))
def test_contingency_window_is_one_rule(kind, gamma):
    rule = prob_buy_complement if kind == COMPLEMENT else prob_buy_substitute
    accepted = _accepts(lambda: rule(0.5, 0.7, 0.8, gamma))
    assert _accepts(lambda: DemandRegion(kind=kind, fee=0.5, u1=0.7, u2=0.8, gamma=gamma)) == accepted
    assert _accepts(lambda: BundleSpec(*_SERVICES, _MARKET, gamma, kind)) == accepted


def test_simulation_spec_validation():
    with pytest.raises(DomainError):
        SimulationSpec(draws=0, seed=1)
    with pytest.raises(DomainError):
        SimulationSpec(draws=10, seed=-1)
    with pytest.raises(DomainError):
        SimulationSpec(draws=10, seed=1, sigma_z=-0.5)
