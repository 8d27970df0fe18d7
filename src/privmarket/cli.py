"""Batch command-line front end.

Every command reads one scenario file, runs the requested computation,
prints a CSV table, and writes the same table to <out>/<command>.csv.
Numbers are rendered with 9 significant digits so identical inputs (and
seed) give byte-identical outputs.

Each command returns its rows and whether a solver fell back; `main`
alone writes the table and maps every command's outcome to its exit
status: 0 on success, 2 on validation errors, 3 when --strict is set and
a solver had to fall back from its closed form to the search path.
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
from .errors import DomainError, ScenarioError, _read_text
from .quality import evaluate_quality, fit_quality_curve, load_samples
from .scenario import LoadedScenario, SweepSpec, load_scenario, sweep_values
from .separate import SeparateScenario, gross_profit_separate, optimal_fee_fixed_privacy
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


def _emit(command: str, rows, out_dir: str) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SCHEMAS[command])
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{command}.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    sys.stdout.write(text)


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


def _cmd_fit(args):
    fits = list(_load(args).fits.items()) if args.scenario else []
    if args.samples:
        fits.insert(0, ("samples", fit_quality_curve(load_samples(args.samples))))
    if not fits:
        raise ScenarioError("fit needs --samples or a scenario with sample-driven services")
    return [[name, fit.params.alpha1, fit.params.alpha2, fit.params.alpha3,
             fit.residual_sum_squares, fit.iterations, fit.converged] for name, fit in fits], False


def _cmd_optimize(args):
    loaded = _load(args)
    target, label = _market(loaded, args, args.kind)
    # substitutes are always certified: their optimum comes from the search path
    opt = target.optimize(args.demand_mode, verify=args.verify or args.kind == SUBSTITUTE)
    # a single service has no fallback path (blank cell)
    fallback = getattr(opt, "fallback", "")
    return [[target.kind, label, *_cells(opt.point), opt.profit, opt.interior, fallback,
             ";".join(opt.clamped_variables), opt.oracle_delta]], bool(fallback)


def _decision(args):
    """The scenario bundle's bundling decision and the bundle's member names."""
    loaded = _load(args)
    decision = bundling_decision(_require_bundle(loaded), demand_mode=args.demand_mode)
    return decision, loaded.bundle_members


def _cmd_decide(args):
    decision, members = _decision(args)
    return [["+".join(members), decision.bundle_profit, *decision.separate_profits,
             decision.recommend_bundle]], decision.bundle_optimum.fallback


def _parse_values(text, flag, count):
    """The comma-separated floats of a flag's value, exactly count of them."""
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise ScenarioError(f"cannot parse {flag} {text!r} as comma-separated floats") from None
    if len(parts) != count:
        raise ScenarioError(f"{flag} needs exactly {count} comma-separated values")
    return parts


def _read_coalition_file(path) -> CharacteristicFunction:
    reader = csv.reader(io.StringIO(_read_text(path, "coalition file")))
    rows = [(reader.line_num, row) for row in reader if row and any(c.strip() for c in row)]
    if not rows or [c.strip() for c in rows[0][1]] != ["coalition", "value"]:
        raise ScenarioError(f"coalition file {path} must start with header 'coalition,value'")
    values = {}
    players: dict[str, None] = {}  # in order of first appearance
    for line_no, row in rows[1:]:
        if len(row) != 2:
            raise ScenarioError(f"coalition file {path}: expected two columns per row",
                                line=line_no)
        members = tuple(p.strip() for p in row[0].split("+") if p.strip())
        coalition = frozenset(members)
        if coalition in values:
            raise ScenarioError(f"coalition file {path}: duplicate coalition {row[0]!r}",
                                line=line_no)
        try:
            values[coalition] = float(row[1])
        except ValueError:
            raise ScenarioError(f"coalition file {path}: cannot parse {row[1]!r} as float",
                                line=line_no) from None
        players.update(dict.fromkeys(members))
    return CharacteristicFunction(players=tuple(players), values=values)


def _cmd_share(args):
    fallback = False
    if args.values:
        v1, v2, v12 = _parse_values(args.values, "--values", 3)
        cf = CharacteristicFunction.from_two_player(v1, v2, v12, names=("1", "2"))
    elif args.coalitions:
        cf = _read_coalition_file(args.coalitions)
    elif args.scenario is None:
        raise ScenarioError("share needs a scenario file, --values or --coalitions")
    else:
        decision, names = _decision(args)
        fallback = decision.bundle_optimum.fallback
        cf = CharacteristicFunction.from_two_player(*decision.separate_profits,
                                                    decision.bundle_profit, names=names)
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
    return rows, fallback


def _cmd_simulate(args):
    loaded = _load(args)
    target, label = _market(loaded, args)
    if args.at:
        point = _parse_values(args.at, "--at", len(target.point_names))
    else:
        point = target.optimize(args.demand_mode).point
    analytic = target.profit_surface(args.demand_mode)[0](*point)
    result = oracles.simulate_market(target, point, loaded.sim)
    if result.std_error > 0:
        z = abs(result.mean - analytic) / result.std_error
    else:  # undefined (a blank cell) unless the mean is the analytic profit
        z = 0.0 if result.mean == analytic else None
    row = [label, *_cells(point), result.mean, result.std_error, result.draws, analytic, z]
    return [row], False


def _cmd_verify(args):
    loaded = _load(args)
    target, label = _market(loaded, args)
    opt = target.optimize(args.demand_mode, verify=True)
    best = opt.grid  # the certificate; verify evaluates no grid of its own
    axes = target.profit_surface(args.demand_mode)[1].axes
    steps = [(hi - lo) / (count - 1) for lo, hi, count in axes]
    within = all(abs(c - g) <= step + 1e-12 for c, g, step in zip(opt.point, best.coords, steps))
    return [[target.kind, label, *_cells(opt.point), opt.profit, best.value, opt.oracle_delta,
             within]], getattr(opt, "fallback", False)


def _cmd_demand(args):
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
    return [[target.kind, fee, u1, u2, target.gamma, paper, exact, mc_mean, mc_se]], False


_SWEEP_PARAMS = ("market.M", "service.<name>.c", "service.<name>.N", "service.<name>.r",
                 "bundle.gamma")


def _sweep_row(loaded: LoadedScenario, args):
    """The function from a swept value to its row, with --param resolved once.

    A malformed path (no supported parameter, an unknown service,
    bundle.gamma without a [bundle], or no one market to re-optimize)
    raises here, before any value is swept.
    """
    param = args.param
    parts = param.split(".")
    name = parts[1] if len(parts) == 3 else None
    if (param if name is None else f"{parts[0]}.<name>.{parts[2]}") not in _SWEEP_PARAMS:
        raise ScenarioError(f"unsupported sweep parameter {param!r}; use "
                            f"{', '.join(_SWEEP_PARAMS[:-1])} or {_SWEEP_PARAMS[-1]}")
    key, bundle = parts[-1], loaded.bundle
    if bundle is None and key == "gamma":
        raise ScenarioError("sweep over bundle.gamma needs a [bundle] section")
    if bundle is None and name is None:  # market.M re-optimizes one service
        name = _pick_service(loaded, args)
    if name is not None and name not in loaded.services:
        raise ScenarioError(f"sweep references unknown service {name!r}")
    if bundle is not None and key in ("c", "N"):  # these re-optimize the bundle
        if name not in loaded.bundle_members:
            raise ScenarioError(f"sweep over {param} re-optimizes the bundle, which does not "
                                f"include service {name!r}")
        if key == "N":
            raise ScenarioError(f"sweep over {param} cannot change one member's crowd size: "
                                "bundled services share one")
    if key == "r":
        scenario = loaded.separate(name)

        def fixed_privacy(value):
            fee = optimal_fee_fixed_privacy(scenario, value)
            profit = gross_profit_separate(scenario, value, fee)
            cost = scenario.service.n * scenario.service.c * (1.0 - value)
            return [param, value, value, "", fee, profit, cost, profit + cost, ""]
        return fixed_privacy

    def reoptimized(value):
        market, services = loaded.market, dict(loaded.services)
        if key == "M":
            market = replace(market, m=int(round(value)))
        elif key == "c":
            services[name] = replace(services[name], c=value)
        elif key == "N":
            services[name] = replace(services[name], n=int(round(value)))
        # the bundle whenever the scenario has one, whatever --service names
        if bundle is None:
            target = SeparateScenario(service=services[name], market=market)
        else:
            s1, s2 = (services[member] for member in loaded.bundle_members)
            target = BundleSpec(s1=s1, s2=s2, market=market, kind=bundle.kind,
                                gamma=value if key == "gamma" else bundle.gamma)
        opt = target.optimize(args.demand_mode)
        # the privacy levels lead the point; zip leaves out the fee
        cost = sum(svc.n * svc.c * (1.0 - r) for svc, r in zip(target.services, opt.point))
        return [param, value, *_cells(opt.point), opt.profit, cost, opt.profit + cost, ""]
    return reoptimized


def _cmd_sweep(args):
    loaded = _load(args)
    sweep = SweepSpec(param=args.param, start=args.start, stop=args.stop, steps=args.steps)
    row = _sweep_row(loaded, args)
    rows = []
    for value in sweep_values(sweep):
        try:
            rows.append(row(value))
        except DomainError as exc:
            rows.append([sweep.param, value, "", "", "", "", "", "", str(exc)])
    return rows, False


# every argument's argparse keywords; each command lists the ones it reads
_FLAGS = {
    "kind": dict(choices=["separate", "complement", "substitute"]),
    "scenario": dict(help="scenario file path"),
    "--out": dict(default=".", help="output directory for CSV reports"),
    "--seed": dict(type=int, default=None, help="override the [sim] seed"),
    "--verify": dict(action="store_true", help="cross-check against oracles"),
    "--strict": dict(action="store_true", help="exit 3 when a solver falls back"),
    "--demand-mode": dict(choices=[PAPER_FORM, EXACT_GEOMETRY], default=PAPER_FORM),
    "--service": dict(default=None, help="service name for standalone commands"),
    "--samples": dict(default=None, help="fit a standalone r,quality CSV"),
    "--values": dict(default=None, help="v1,v2,v12 for a two-player split"),
    "--coalitions": dict(default=None, help="coalition,value CSV for K > 2"),
    "--at": dict(default=None, help="decision point r,p or r1,r2,pb (default: optimum)"),
    "--fee": dict(type=float, default=None, help="fee to price (default: optimum)"),
    "--param": dict(required=True, help=" | ".join(_SWEEP_PARAMS)),
    "--start": dict(type=float, required=True),
    "--stop": dict(type=float, required=True),
    "--steps": dict(type=int, required=True),
}

# command: (handler, help, whether the scenario is required, arguments in
# usage order); every command also takes --out
_COMMANDS = {
    "fit": (_cmd_fit, "fit quality curves from samples", False, ("scenario", "--samples")),
    "optimize": (_cmd_optimize, "maximize a profit surface", True,
                 ("kind", "scenario", "--verify", "--strict", "--demand-mode", "--service")),
    "decide": (_cmd_decide, "bundle-vs-separate recommendation", True,
               ("scenario", "--strict", "--demand-mode")),
    "share": (_cmd_share, "divide a bundle profit among providers", False,
              ("scenario", "--strict", "--demand-mode", "--values", "--coalitions")),
    "simulate": (_cmd_simulate, "Monte-Carlo profit at a decision point", True,
                 ("scenario", "--seed", "--demand-mode", "--service", "--at")),
    "verify": (_cmd_verify, "grid-oracle certification of an optimum", True,
               ("scenario", "--strict", "--demand-mode", "--service")),
    "demand": (_cmd_demand, "buy probabilities in both demand modes", True,
               ("scenario", "--seed", "--verify", "--service", "--fee")),
    "sweep": (_cmd_sweep, "re-optimize along one parameter range", True,
              ("scenario", "--demand-mode", "--service", "--param", "--start", "--stop",
               "--steps")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privmarket",
                                     description="Privacy-aware pricing and bundling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, scenario_required, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        # argparse orders the positionals and the options apart, so --out
        # can go first: it leads every command's options
        for flag in ("--out", *flags):
            optional = flag == "scenario" and not scenario_required
            command.add_argument(flag, **_FLAGS[flag], **({"nargs": "?"} if optional else {}))
    return parser


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser, by command name."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # reported with the command's own usage line, which lists the flags it takes
        _commands(parser)[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        rows, fell_back = args.func(args)
        _emit(args.command, rows, args.out)
    except (ScenarioError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_FALLBACK if fell_back and getattr(args, "strict", False) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
