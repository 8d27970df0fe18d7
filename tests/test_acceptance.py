"""Acceptance gate: every criterion prints one PASS/FAIL line and asserts.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Reference values come from the published benchmark table for the rounded
parameter triples; tolerance windows are fixed here, not tuned.
"""
import math
import time

import numpy as np
import pytest

from privmarket import (
    COMPLEMENT,
    SUBSTITUTE,
    BundleSpec,
    CharacteristicFunction,
    DemandRegion,
    MarketSpec,
    QualityParams,
    SeparateScenario,
    ServiceSpec,
    SimulationSpec,
    bundle_grid,
    bundle_objective,
    bundling_decision,
    concavity_report_bundle,
    concavity_report_separate,
    core_check,
    core_interval_two,
    estimate_buy_probability,
    evaluate_quality,
    fit_quality_curve,
    grid_maximize,
    gross_profit_bundle,
    gross_profit_separate,
    optimal_fee_fixed_privacy,
    optimize_bundle,
    optimize_separate,
    prob_buy_complement,
    prob_buy_separate,
    prob_buy_substitute,
    separate_grid,
    separate_objective,
    shapley_allocation,
    simulate_market,
)
from privmarket.demand import EXACT_GEOMETRY
from privmarket.quality import QualitySample

from conftest import (
    S1_PARAMS,
    S2_PARAMS,
    S3_PARAMS,
    assert_grid_agreement,
    fd_hessian,
    hessians_close,
    random_separate_scenario,
)

MARKET = MarketSpec(m=1000)
S1 = ServiceSpec(quality=S1_PARAMS, n=100, c=0.2)
S2 = ServiceSpec(quality=S2_PARAMS, n=100, c=0.2)
S3 = ServiceSpec(quality=S3_PARAMS, n=100, c=0.1)
SC1 = SeparateScenario(service=S1, market=MARKET)
SC2 = SeparateScenario(service=S2, market=MARKET)
SC3 = SeparateScenario(service=S3, market=MARKET)
SB1 = BundleSpec(s1=S1, s2=S3, market=MARKET, gamma=0.1, kind=COMPLEMENT)
SB2 = BundleSpec(s1=S1, s2=S2, market=MARKET, gamma=-0.1, kind=SUBSTITUTE)


def _report(number, name, checks):
    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{label} [{info}]" for label, passed, info in checks if not passed)
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}): {detail}"


def _best_runtime(fn, repeats=5):
    fn()  # warmup
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_criterion_01_standalone_optimum():
    opt = optimize_separate(SC1)
    runtime = _best_runtime(lambda: optimize_separate(SC1))
    checks = [
        ("p* within 15% of 0.406", abs(opt.p_star - 0.406) / 0.406 <= 0.15,
         f"p*={opt.p_star:.6f}"),
        ("r* within 15% of 0.62", abs(opt.r_star - 0.62) / 0.62 <= 0.15,
         f"r*={opt.r_star:.6f}"),
        ("profit within 5% of 195.5", abs(opt.profit - 195.5) / 195.5 <= 0.05,
         f"profit={opt.profit:.4f}"),
        ("runtime < 1 ms", runtime < 1e-3, f"{runtime * 1e3:.3f} ms"),
    ]
    _report(1, "standalone optimum", checks)


def _criterion2_sample():
    rng = np.random.default_rng(20240807)
    return [random_separate_scenario(rng) for _ in range(100)]


def test_criterion_02_standalone_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    for i, scenario in enumerate(_criterion2_sample()):
        opt = optimize_separate(scenario)
        grid = separate_grid(scenario, r_points=400, fee_points=400)
        best = grid_maximize(separate_objective(scenario), grid)
        try:
            assert_grid_agreement(
                opt.profit, (opt.r_star, opt.p_star), best, grid, 1e-3,
                lambda r, p: gross_profit_separate(scenario, r, p),
            )
        except AssertionError as exc:
            failures.append(f"scenario {i}: {exc}")
    elapsed = time.perf_counter() - start
    checks = [
        ("100 scenarios agree with 400x400 grid", not failures,
         "; ".join(failures[:3])),
        ("runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f} s"),
    ]
    _report(2, "standalone oracle equivalence", checks)


def test_criterion_03_fixed_privacy_identity():
    worst = 0.0
    interior = 0
    for scenario in _criterion2_sample():
        opt = optimize_separate(scenario)
        if not opt.interior:
            continue
        interior += 1
        worst = max(worst, abs(optimal_fee_fixed_privacy(scenario, opt.r_star) - opt.p_star))
    checks = [
        ("identity holds to 1e-12 on interior optima", worst < 1e-12,
         f"worst gap {worst:.3e} over {interior} scenarios"),
        ("sample contains interior optima", interior > 0, str(interior)),
    ]
    _report(3, "fixed-privacy fee identity", checks)


def test_criterion_04_complement_bundle():
    opt = optimize_bundle(SB1)
    runtime = _best_runtime(lambda: optimize_bundle(SB1))
    cert_start = time.perf_counter()
    certified = optimize_bundle(SB1, verify=True)
    cert_elapsed = time.perf_counter() - cert_start
    decision = bundling_decision(SB1)
    checks = [
        ("p_b* within 10% of 0.754", abs(opt.p_b_star - 0.754) / 0.754 <= 0.10,
         f"p_b*={opt.p_b_star:.6f}"),
        # a known failure of the reference data, not of the solver (the grid
        # oracle certifies this argmax).  The fee p* solves
        # (m*p*a3 + 3n*c1)*(m*p*b3 + 3n*c2) = k*m^2*a1*b1*a3*b3/(3*sigma), which
        # holds no alpha2, and r1* = ln(X1/a2)/a3 with
        # X1 = 3n*c1*a1/(m*p*a3 + 3n*c1); so S1's alpha2 moves r1* alone:
        # r1*(a2) = 0.620411 - ln(a2/0.004)/2.813 (pinned by
        # test_criterion_04_r1_follows_alpha2_alone).  The printed 0.004 spans
        # [0.0035, 0.0045] at half a digit, r1* in [0.5785, 0.6679]; this window
        # needs a2 >= 0.004358, and r1* = 0.513 needs a2 = 0.005411, whose
        # profit 481.29 is further from 487.84 than 483.44 here
        ("r1* within 15% of 0.513", abs(opt.r1_star - 0.513) / 0.513 <= 0.15,
         f"r1*={opt.r1_star:.6f}, deviation {abs(opt.r1_star - 0.513) / 0.513:.1%}, "
         f"oracle delta {certified.oracle_delta:+.4f}"),
        ("r2* within 15% of 0.499", abs(opt.r2_star - 0.499) / 0.499 <= 0.15,
         f"r2*={opt.r2_star:.6f}"),
        ("profit within 5% of 487.84", abs(opt.profit - 487.84) / 487.84 <= 0.05,
         f"profit={opt.profit:.4f}"),
        ("bundling recommended over 195.5+206.02", decision.recommend_bundle,
         f"bundle {decision.bundle_profit:.2f} vs {sum(decision.separate_profits):.2f}"),
        ("closed form < 1 ms", runtime < 1e-3, f"{runtime * 1e3:.3f} ms"),
        ("oracle certification < 10 s", cert_elapsed < 10.0, f"{cert_elapsed:.2f} s"),
        ("certified against 120^3 grid", certified.oracle_delta >= -1e-2,
         f"delta {certified.oracle_delta:+.4f}"),
    ]
    _report(4, "complement bundle optimum", checks)


def test_criterion_04_r1_follows_alpha2_alone():
    # the analytic account of criterion 4's r1 subcheck: S1's alpha2 enters
    # neither the fee quadratic nor X2, so r2* and p* keep their bits and r1*
    # moves by -ln(alpha2/0.004)/alpha3
    base = optimize_bundle(SB1)
    for alpha2 in (0.003, 0.0035, 0.004358, 0.0045, 0.005, 0.005411, 0.006, 0.008):
        quality = QualityParams(S1_PARAMS.alpha1, alpha2, S1_PARAMS.alpha3)
        opt = optimize_bundle(BundleSpec(s1=ServiceSpec(quality=quality, n=100, c=0.2), s2=S3,
                                         market=MARKET, gamma=0.1, kind=COMPLEMENT))
        assert (opt.r2_star, opt.p_b_star) == (base.r2_star, base.p_b_star)
        expected = base.r1_star - math.log(alpha2 / S1_PARAMS.alpha2) / S1_PARAMS.alpha3
        assert opt.r1_star == pytest.approx(expected, rel=0, abs=1e-15)


def test_criterion_05_substitute_bundle_detrimental():
    opt = optimize_bundle(SB2)
    separate_total = optimize_separate(SC1).profit + optimize_separate(SC2).profit
    checks = [
        ("bundle profit strictly below separate total", opt.profit < separate_total,
         f"{opt.profit:.4f} vs {separate_total:.4f}"),
        ("p_b* within 10% of 0.58", abs(opt.p_b_star - 0.58) / 0.58 <= 0.10,
         f"p_b*={opt.p_b_star:.6f}"),
    ]
    _report(5, "substitute bundle detrimental", checks)


def test_criterion_06_concavity_suites():
    rng = np.random.default_rng(606)
    sep_cap = 1.0  # quality stays positive up to r=1 for these parameters
    sep_sign_ok = True
    for _ in range(1000):
        report = concavity_report_separate(
            SC1, rng.uniform(0.0, sep_cap), rng.uniform(0.0, S1_PARAMS.alpha1)
        )
        sep_sign_ok &= report.minors[0] <= 1e-9 and report.minors[1] >= -1e-9
    bun_sign_ok = True
    for _ in range(1000):
        report = concavity_report_bundle(
            SB1, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.2)
        )
        bun_sign_ok &= (
            report.minors[0] <= 1e-9
            and report.minors[1] >= -1e-9
            and report.minors[2] <= 1e-9
            and report.a2 <= 1e-9
        )
    sep_fd_ok = True
    for _ in range(100):
        r, p = rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.4)
        analytic = concavity_report_separate(SC1, r, p).hessian
        numeric = fd_hessian(lambda x: gross_profit_separate(SC1, x[1], x[0]), [p, r], h=1e-4)
        sep_fd_ok &= hessians_close(analytic, numeric, rel=1e-3)
    bun_fd_ok = True
    for _ in range(100):
        point = [rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.1, 1.0)]
        analytic = concavity_report_bundle(SB1, *point).hessian
        numeric = fd_hessian(lambda x: gross_profit_bundle(SB1, x[0], x[1], x[2]), point, h=1e-4)
        bun_fd_ok &= hessians_close(analytic, numeric, rel=1e-3)
    checks = [
        ("standalone sign pattern at 1000 points", sep_sign_ok, ""),
        ("bundle sign pattern at 1000 points", bun_sign_ok, ""),
        ("standalone Hessian matches finite differences", sep_fd_ok, ""),
        ("bundle Hessian matches finite differences", bun_fd_ok, ""),
    ]
    _report(6, "concavity suites", checks)


def test_criterion_07_demand_geometry():
    rng = np.random.default_rng(707)
    sim = SimulationSpec(draws=1_000_000, seed=4242)
    mismatches = []
    for kind in ("separate", "complement", "substitute"):
        for i in range(50):
            u1, u2 = rng.uniform(0.3, 1.0, size=2)
            fee = rng.uniform(0.05, 1.1)
            if kind == "separate":
                region = DemandRegion(kind=kind, fee=fee, u1=u1)
                expected = prob_buy_separate(fee, u1)
            elif kind == "complement":
                gamma = rng.uniform(0.0, 0.5)
                region = DemandRegion(kind=kind, fee=fee, u1=u1, u2=u2, gamma=gamma)
                expected = prob_buy_complement(fee, u1, u2, gamma, EXACT_GEOMETRY)
            else:
                gamma = rng.uniform(-0.45, -0.01)
                region = DemandRegion(kind=kind, fee=fee, u1=u1, u2=u2, gamma=gamma)
                expected = prob_buy_substitute(fee, u1, u2, gamma, EXACT_GEOMETRY)
            res = estimate_buy_probability(region, sim)
            if abs(res.mean - expected) > max(3.0 * res.std_error, 1e-9):
                mismatches.append(f"{kind} #{i}")
    # the substitute closed-form family disagrees with the clipped
    # geometry by 2*gamma^2*fee^2/((1+gamma)^2*u1*u2); report it in the open
    gap = prob_buy_substitute(0.58, 0.811, 0.793, -0.1, EXACT_GEOMETRY) - prob_buy_substitute(
        0.58, 0.811, 0.793, -0.1
    )
    print(f"    substitute demand-form gap at the reference point: {gap:+.6f} "
          "(clipped geometry above the linear form)")
    checks = [
        ("exact geometry within 3 std errors of simulation, 150 regions",
         not mismatches, "; ".join(mismatches[:5])),
        ("substitute form gap reported", gap > 0, f"{gap:+.6f}"),
    ]
    _report(7, "demand geometry vs simulation", checks)


def test_criterion_08_simulation_unbiasedness():
    opt = optimize_separate(SC1)
    point = (opt.r_star, opt.p_star)
    hits = 0
    for seed in range(30):
        res = simulate_market(SC1, point, SimulationSpec(draws=1_000_000, seed=seed))
        if abs(res.mean - opt.profit) <= 3.0 * res.std_error:
            hits += 1
    checks = [("within 3 std errors for >= 28 of 30 seeds", hits >= 28, f"hits={hits}")]
    _report(8, "simulation unbiasedness", checks)


def test_criterion_09_profit_sharing():
    cf = CharacteristicFunction.from_two_player(195.5, 206.02, 487.84, names=("S1", "S3"))
    alloc = shapley_allocation(cf)
    verdict = core_check(cf, alloc)
    sub_bundle = optimize_bundle(SB2).profit
    sub_interval = core_interval_two(
        optimize_separate(SC1).profit, optimize_separate(SC2).profit, sub_bundle
    )
    dominance_ok = True
    for c1 in np.linspace(0.05, 0.4, 8):
        svc = ServiceSpec(quality=S1_PARAMS, n=100, c=float(c1))
        bundle = BundleSpec(s1=svc, s2=S3, market=MARKET, gamma=0.1, kind=COMPLEMENT)
        decision = bundling_decision(bundle)
        game = CharacteristicFunction.from_two_player(
            decision.separate_profits[0], decision.separate_profits[1],
            decision.bundle_profit, names=("S1", "S3"),
        )
        payoff = shapley_allocation(game)
        dominance_ok &= payoff["S1"] > decision.separate_profits[0]
        dominance_ok &= payoff["S3"] > decision.separate_profits[1]
    checks = [
        ("Shapley split is (238.66, 249.18)",
         abs(alloc["S1"] - 238.66) < 1e-9 and abs(alloc["S3"] - 249.18) < 1e-9,
         f"({alloc['S1']:.4f}, {alloc['S3']:.4f})"),
        ("Shapley allocation lies in the core", verdict.in_core, ""),
        ("substitute bundle core is empty", sub_interval is None, str(sub_interval)),
        ("Shapley beats standalone across the c1 sweep", dominance_ok, ""),
    ]
    _report(9, "profit sharing", checks)


def test_criterion_10_sweep_shapes():
    start = time.perf_counter()
    # wage sweep: profit falls (strictly while the privacy cap is slack)
    profits_c, caps = [], []
    for c in np.linspace(0.01, 0.5, 25):
        opt = optimize_separate(
            SeparateScenario(service=ServiceSpec(quality=S1_PARAMS, n=100, c=float(c)), market=MARKET)
        )
        profits_c.append(opt.profit)
        caps.append(bool(opt.clamped_variables))
    wage_ok = all(a >= b for a, b in zip(profits_c, profits_c[1:])) and all(
        profits_c[i] > profits_c[i + 1]
        for i in range(len(profits_c) - 1)
        if not caps[i] and not caps[i + 1]
    )
    # customer sweep: profit and fee climb, privacy level falls
    profits_m, fees_m, privacy_m = [], [], []
    for m in np.linspace(100, 5000, 25):
        opt = optimize_separate(SeparateScenario(service=S1, market=MarketSpec(m=int(m))))
        profits_m.append(opt.profit)
        fees_m.append(opt.p_star)
        privacy_m.append(opt.r_star)
    m_ok = (
        all(a <= b for a, b in zip(profits_m, profits_m[1:]))
        and all(a <= b for a, b in zip(fees_m, fees_m[1:]))
        and all(a >= b for a, b in zip(privacy_m, privacy_m[1:]))
    )
    # contingency sweeps: complements climb with gamma, substitutes sink as it drops
    comp_profits = [
        optimize_bundle(
            BundleSpec(s1=S1, s2=S3, market=MARKET, gamma=float(g), kind=COMPLEMENT)
        ).profit
        for g in np.linspace(0.0, 0.5, 11)
    ]
    sub_profits = [
        optimize_bundle(
            BundleSpec(s1=S1, s2=S2, market=MARKET, gamma=float(g), kind=SUBSTITUTE)
        ).profit
        for g in np.linspace(-0.4, -0.05, 11)
    ]
    elapsed = time.perf_counter() - start
    checks = [
        ("profit monotone decreasing in wage", wage_ok, ""),
        ("profit and fee monotone increasing in customers", m_ok, ""),
        ("complement profit increasing in contingency",
         all(a < b for a, b in zip(comp_profits, comp_profits[1:])), ""),
        ("substitute profit falls as contingency drops",
         all(a < b for a, b in zip(sub_profits, sub_profits[1:])), ""),
        ("sweep suite < 2 min", elapsed < 120.0, f"{elapsed:.1f} s"),
    ]
    _report(10, "sweep shapes", checks)


def test_criterion_11_fit_recovery():
    checks = []
    for label, params in (("S1", S1_PARAMS), ("S2", S2_PARAMS), ("S3", S3_PARAMS)):
        rs = np.linspace(0.0, 1.0, 11)
        samples = [QualitySample(r=float(r), tau=evaluate_quality(float(r), params)) for r in rs]
        fit = fit_quality_curve(samples)
        recovered = (
            abs(fit.params.alpha1 - params.alpha1) < 1e-6
            and abs(fit.params.alpha2 - params.alpha2) < 1e-6
            and abs(fit.params.alpha3 - params.alpha3) < 1e-6
        )
        checks.append(
            (f"{label} round trip", fit.residual_sum_squares <= 1e-12 and recovered,
             f"rss={fit.residual_sum_squares:.2e}")
        )
    _report(11, "fit recovery", checks)
