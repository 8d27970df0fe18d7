"""Batch command-line front end.

Every command reads one scenario file, runs the requested computation,
prints a CSV table, and writes the same table to <out>/<command>.csv.
Numbers are rendered with 9 significant digits so identical inputs (and
seed) give byte-identical outputs.

Exit status: 0 on success, 2 on validation errors, 3 when --strict is set
and a solver had to fall back from its closed form to the search path.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import replace

from . import oracles
from .bundle import SUBSTITUTE, BundleSpec, bundling_decision
from .demand import EXACT_GEOMETRY, PAPER_FORM
from .errors import DomainError, ScenarioError
from .quality import evaluate_quality, fit_quality_curve, load_samples
from .scenario import LoadedScenario, SweepSpec, load_scenario, sweep_values
from .separate import gross_profit_separate, optimal_fee_fixed_privacy
from .sharing import CharacteristicFunction, core_check, core_interval_two, shapley_allocation

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FALLBACK = 3

_SCHEMAS = {
    "fit": ["service", "alpha1", "alpha2", "alpha3", "residual_sum_squares", "iterations", "converged"],
    "optimize": ["kind", "target", "r1_star", "r2_star", "p_star", "profit", "interior",
                 "fallback", "clamped", "oracle_delta"],
    "decide": ["bundle", "bundle_profit", "profit_1", "profit_2", "recommend_bundle"],
    "share": ["player", "standalone_value", "shapley_payoff", "core_lo", "core_hi", "in_core"],
    "simulate": ["target", "r1", "r2", "p", "mean", "std_error", "draws", "analytic", "abs_z"],
    "verify": ["kind", "target", "r1_star", "r2_star", "p_star", "closed_profit", "grid_profit",
               "profit_delta", "within_one_cell"],
    "demand": ["kind", "fee", "u1", "u2", "gamma", "paper_form", "exact_geometry",
               "mc_mean", "mc_std_error"],
    "sweep": ["param", "value", "r1_star", "r2_star", "p_star", "profit", "data_cost",
              "revenue", "error"],
}


def _fmt(value):
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _emit(command: str, rows, out_dir: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SCHEMAS[command])
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{command}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return path


def _load(args) -> LoadedScenario:
    loaded = load_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        loaded = replace(loaded, sim=replace(loaded.sim, seed=args.seed))
    return loaded


def _pick_service(loaded: LoadedScenario, args) -> str:
    return args.service if args.service is not None else loaded.single_service_name()


def _require_bundle(loaded: LoadedScenario, kind: str | None = None) -> BundleSpec:
    if loaded.bundle is None:
        raise ScenarioError("this command needs a [bundle] section")
    if kind is not None and loaded.bundle.kind != kind:
        raise ScenarioError(f"scenario bundle is a {loaded.bundle.kind}, command expects {kind}")
    return loaded.bundle


def _market(loaded: LoadedScenario, args, kind: str | None = None):
    """The command's market and its label.

    That is the scenario's bundle unless --service names a service, or,
    when `kind` is given (``optimize <kind>``), the market of that kind;
    a bundle kind ignores --service.
    """
    if kind is None:
        bundled = loaded.bundle is not None and args.service is None
    else:
        bundled = kind != "separate"
    if bundled:
        return _require_bundle(loaded, kind), "+".join(loaded.bundle_members)
    name = _pick_service(loaded, args)
    return loaded.separate(name), name


def _cells(point):
    """A market point (r, p) or (r1, r2, p_b) as the (r1, r2-or-blank, p) cells."""
    return (point[0], point[1] if len(point) == 3 else "", point[-1])


def _cmd_fit(args) -> int:
    loaded = _load(args) if args.scenario else None
    rows = []
    if args.samples:
        fit = fit_quality_curve(load_samples(args.samples))
        rows.append(["samples", fit.params.alpha1, fit.params.alpha2, fit.params.alpha3,
                     fit.residual_sum_squares, fit.iterations, fit.converged])
    if loaded is not None:
        for name, fit in loaded.fits.items():
            rows.append([name, fit.params.alpha1, fit.params.alpha2, fit.params.alpha3,
                         fit.residual_sum_squares, fit.iterations, fit.converged])
    if not rows:
        raise ScenarioError("fit needs --samples or a scenario with sample-driven services")
    _emit("fit", rows, args.out)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    loaded = _load(args)
    target, label = _market(loaded, args, args.kind)
    # substitutes are always certified: their optimum comes from the search path
    opt = target.optimize(args.demand_mode, verify=args.verify or args.kind == SUBSTITUTE)
    # a single service has no fallback path (blank cell)
    fallback = getattr(opt, "fallback", "")
    _emit("optimize", [[target.kind, label, *_cells(opt.point), opt.profit, opt.interior,
                        fallback, ";".join(opt.clamped_variables), opt.oracle_delta]], args.out)
    return EXIT_FALLBACK if args.strict and fallback else EXIT_OK


def _cmd_decide(args) -> int:
    loaded = _load(args)
    bundle = _require_bundle(loaded)
    decision = bundling_decision(bundle, demand_mode=args.demand_mode)
    target = "+".join(loaded.bundle_members)
    _emit("decide", [[target, decision.bundle_profit, decision.separate_profits[0],
                      decision.separate_profits[1], decision.recommend_bundle]], args.out)
    if args.strict and decision.bundle_optimum.fallback:
        return EXIT_FALLBACK
    return EXIT_OK


def _parse_values(text):
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise ScenarioError(f"cannot parse --values {text!r} as comma-separated floats") from None
    if len(parts) != 3:
        raise ScenarioError("--values needs exactly v1,v2,v12")
    return parts


def _read_coalition_file(path) -> CharacteristicFunction:
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows or [c.strip() for c in rows[0]] != ["coalition", "value"]:
        raise ScenarioError(f"coalition file {path} must start with header 'coalition,value'")
    values = {}
    players: list[str] = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ScenarioError(f"coalition file {path}: expected two columns per row")
        members = tuple(p.strip() for p in row[0].split("+") if p.strip())
        values[frozenset(members)] = float(row[1])
        for p in members:
            if p not in players:
                players.append(p)
    return CharacteristicFunction(players=tuple(players), values=values)


def _cmd_share(args) -> int:
    fallback = False
    if args.values:
        v1, v2, v12 = _parse_values(args.values)
        cf = CharacteristicFunction.from_two_player(v1, v2, v12, names=("1", "2"))
    elif args.coalitions:
        cf = _read_coalition_file(args.coalitions)
    elif args.scenario is None:
        raise ScenarioError("share needs a scenario file, --values or --coalitions")
    else:
        loaded = _load(args)
        bundle = _require_bundle(loaded)
        decision = bundling_decision(bundle, demand_mode=args.demand_mode)
        fallback = decision.bundle_optimum.fallback
        names = loaded.bundle_members
        cf = CharacteristicFunction.from_two_player(
            decision.separate_profits[0], decision.separate_profits[1],
            decision.bundle_profit, names=names,
        )
    alloc = shapley_allocation(cf)
    verdict = core_check(cf, alloc)
    rows = []
    two_player = len(cf.players) == 2
    for player in cf.players:
        alone = cf.value({player})
        if two_player:
            other = next(q for q in cf.players if q != player)
            interval = core_interval_two(alone, cf.value({other}), cf.value(cf.players))
            lo, hi = interval if interval is not None else ("", "")
        else:
            lo = hi = ""
        rows.append([player, alone, alloc[player], lo, hi, verdict.in_core])
    _emit("share", rows, args.out)
    if args.strict and fallback:
        return EXIT_FALLBACK
    return EXIT_OK


def _parse_at(text, want):
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise ScenarioError(f"cannot parse --at {text!r} as comma-separated floats") from None
    if len(parts) != want:
        raise ScenarioError(f"--at needs exactly {want} comma-separated values")
    return parts


def _cmd_simulate(args) -> int:
    loaded = _load(args)
    target, label = _market(loaded, args)
    if args.at:
        point = _parse_at(args.at, len(target.point_names))
    else:
        point = target.optimize(args.demand_mode).point
    analytic = target.profit_surface(args.demand_mode)[0](*point)
    result = oracles.simulate_market(target, point, loaded.sim)
    z = abs(result.mean - analytic) / result.std_error if result.std_error > 0 else 0.0
    row = [label, *_cells(point), result.mean, result.std_error, result.draws, analytic, z]
    _emit("simulate", [row], args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    loaded = _load(args)
    target, label = _market(loaded, args)
    opt = target.optimize(args.demand_mode, verify=True)
    best = opt.grid  # the certificate; verify evaluates no grid of its own
    axes = target.profit_surface(args.demand_mode)[1].axes
    steps = [(hi - lo) / (count - 1) for lo, hi, count in axes]
    within = all(abs(c - g) <= step + 1e-12 for c, g, step in zip(opt.point, best.coords, steps))
    _emit("verify", [[target.kind, label, *_cells(opt.point), opt.profit, best.value,
                      opt.oracle_delta, within]], args.out)
    return EXIT_FALLBACK if args.strict and getattr(opt, "fallback", False) else EXIT_OK


def _cmd_demand(args) -> int:
    loaded = _load(args)
    target, _ = _market(loaded, args)
    *levels, p = target.optimize(PAPER_FORM).point
    fee = args.fee if args.fee is not None else p
    qualities = [evaluate_quality(r, svc.quality) for r, svc in zip(levels, target.services)]
    paper, exact = (target.buy_probability(fee, qualities, mode)
                    for mode in (PAPER_FORM, EXACT_GEOMETRY))
    mc_mean = mc_se = None
    if args.verify:
        region = oracles.DemandRegion(target.kind, fee, *qualities, gamma=target.gamma)
        est = oracles.estimate_buy_probability(region, loaded.sim)
        mc_mean, mc_se = est.mean, est.std_error
    u1, u2, _ = _cells((*qualities, fee))
    _emit("demand", [[target.kind, fee, u1, u2, target.gamma, paper, exact, mc_mean, mc_se]],
          args.out)
    return EXIT_OK


def _apply_param(loaded: LoadedScenario, param: str, value: float) -> LoadedScenario:
    parts = param.split(".")
    services = dict(loaded.services)
    market = loaded.market
    bundle = loaded.bundle
    if parts == ["market", "M"]:
        market = replace(market, m=int(round(value)))
    elif len(parts) == 3 and parts[0] == "service" and parts[2] in ("c", "N"):
        name = parts[1]
        if name not in services:
            raise ScenarioError(f"sweep references unknown service {name!r}")
        svc = services[name]
        services[name] = replace(svc, c=value) if parts[2] == "c" else replace(svc, n=int(round(value)))
    elif parts == ["bundle", "gamma"]:
        if bundle is None:
            raise ScenarioError("sweep over bundle.gamma needs a [bundle] section")
        bundle = replace(bundle, gamma=value)
        return replace(loaded, bundle=bundle)
    else:
        raise ScenarioError(
            f"unsupported sweep parameter {param!r}; use market.M, service.<name>.c, "
            "service.<name>.N, service.<name>.r or bundle.gamma"
        )
    if bundle is not None and loaded.bundle_members is not None:
        a, b = loaded.bundle_members
        bundle = BundleSpec(s1=services[a], s2=services[b], market=market,
                            gamma=bundle.gamma, kind=bundle.kind)
    return replace(loaded, market=market, services=services, bundle=bundle)


def _sweep_row(loaded: LoadedScenario, args, param: str, value: float):
    parts = param.split(".")
    fixed_privacy = len(parts) == 3 and parts[0] == "service" and parts[2] == "r"
    if fixed_privacy:
        name = parts[1]
        scenario = loaded.separate(name)
        fee = optimal_fee_fixed_privacy(scenario, value)
        profit = gross_profit_separate(scenario, value, fee)
        cost = scenario.service.n * scenario.service.c * (1.0 - value)
        return [param, value, value, "", fee, profit, cost, profit + cost, ""]
    sub = _apply_param(loaded, param, value)
    # the bundle whenever the scenario has one, whatever --service names
    if sub.bundle is not None:
        target = sub.bundle
    else:
        target = sub.separate(parts[1] if parts[0] == "service" else _pick_service(sub, args))
    opt = target.optimize(args.demand_mode)
    # the privacy levels lead the point; zip leaves out the fee
    cost = sum(svc.n * svc.c * (1.0 - r) for svc, r in zip(target.services, opt.point))
    return [param, value, *_cells(opt.point), opt.profit, cost, opt.profit + cost, ""]


def _cmd_sweep(args) -> int:
    loaded = _load(args)
    sweep = SweepSpec(param=args.param, start=args.start, stop=args.stop, steps=args.steps)
    rows = []
    for value in sweep_values(sweep):
        try:
            rows.append(_sweep_row(loaded, args, sweep.param, value))
        except (DomainError, ScenarioError) as exc:
            rows.append([sweep.param, value, "", "", "", "", "", "", str(exc)])
    _emit("sweep", rows, args.out)
    return EXIT_OK


# the shared flags; each command declares the ones it reads
_FLAGS = {
    "seed": dict(type=int, default=None, help="override the [sim] seed"),
    "verify": dict(action="store_true", help="cross-check against oracles"),
    "strict": dict(action="store_true", help="exit 3 when a solver falls back"),
    "demand-mode": dict(choices=[PAPER_FORM, EXACT_GEOMETRY], default=PAPER_FORM),
    "service": dict(default=None, help="service name for standalone commands"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privmarket",
                                     description="Privacy-aware pricing and bundling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, flags, scenario_required=True):
        """The scenario, --out, and the shared flags this command reads."""
        if scenario_required:
            p.add_argument("scenario", help="scenario file path")
        else:
            p.add_argument("scenario", nargs="?", default=None, help="scenario file path")
        p.add_argument("--out", default=".", help="output directory for CSV reports")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])

    p_fit = sub.add_parser("fit", help="fit quality curves from samples")
    common(p_fit, (), scenario_required=False)
    p_fit.add_argument("--samples", default=None, help="fit a standalone r,quality CSV")
    p_fit.set_defaults(func=_cmd_fit)

    p_opt = sub.add_parser("optimize", help="maximize a profit surface")
    p_opt.add_argument("kind", choices=["separate", "complement", "substitute"])
    common(p_opt, ("verify", "strict", "demand-mode", "service"))
    p_opt.set_defaults(func=_cmd_optimize)

    p_dec = sub.add_parser("decide", help="bundle-vs-separate recommendation")
    common(p_dec, ("strict", "demand-mode"))
    p_dec.set_defaults(func=_cmd_decide)

    p_share = sub.add_parser("share", help="divide a bundle profit among providers")
    common(p_share, ("strict", "demand-mode"), scenario_required=False)
    p_share.add_argument("--values", default=None, help="v1,v2,v12 for a two-player split")
    p_share.add_argument("--coalitions", default=None, help="coalition,value CSV for K > 2")
    p_share.set_defaults(func=_cmd_share)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo profit at a decision point")
    common(p_sim, ("seed", "demand-mode", "service"))
    p_sim.add_argument("--at", default=None, help="decision point r,p or r1,r2,pb (default: optimum)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="grid-oracle certification of an optimum")
    common(p_ver, ("strict", "demand-mode", "service"))
    p_ver.set_defaults(func=_cmd_verify)

    p_dem = sub.add_parser("demand", help="buy probabilities in both demand modes")
    common(p_dem, ("seed", "verify", "service"))
    p_dem.add_argument("--fee", type=float, default=None, help="fee to price (default: optimum)")
    p_dem.set_defaults(func=_cmd_demand)

    p_sweep = sub.add_parser("sweep", help="re-optimize along one parameter range")
    common(p_sweep, ("demand-mode", "service"))
    p_sweep.add_argument("--param", required=True,
                         help="market.M | service.<name>.c | service.<name>.N | "
                              "service.<name>.r | bundle.gamma")
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
