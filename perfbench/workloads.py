"""Workloads of the privmarket benchmark.

Each workload turns the generator seed into inputs when it is built,
defines one op as a fixed composite of library calls (``op``), and checks
an op's result outside the timed region (``check``, which returns a list of
problems, empty when the result is right).  Ops come in cycles of
``cycle`` ops: a run measures whole cycles, so every run holds the same mix
of op kinds and its median does not jump between the modes of a mix.

All library calls go through module attributes (``pm.optimize_bundle``),
never through names bound here, so the traced run sees every call.

``tiny`` shrinks the grids and draw counts for the smoke test only.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import privmarket as pm

# paper triples (alpha1, alpha2, alpha3) that the draws perturb
_S1 = (0.822, 0.004, 2.813)
_S2 = (0.856, 0.013, 1.861)
_S3 = (0.867, 0.001, 4.2)

_POOL = 64  # draws per workload; ops cycle through them
_NEIGHBOUR_STEP = 1e-4
_LARGE_WAGE = 5.0  # clamps every privacy level at its cap
# exact-mode seed grid per axis: 16^3 points, 27 times fewer than the default
# 48^3, so that an op takes under a second and a run holds tens of ops; the
# grid is still most of an op
_EXACT_SEED_POINTS = 16

# the CSV schemas the CLI promises, written out independently of cli.py
CSV_HEADERS = {
    "fit": "service,alpha1,alpha2,alpha3,residual_sum_squares,iterations,converged",
    "optimize": "kind,target,r1_star,r2_star,p_star,profit,interior,fallback,clamped,oracle_delta",
    "decide": "bundle,bundle_profit,profit_1,profit_2,recommend_bundle",
    "share": "player,standalone_value,shapley_payoff,core_lo,core_hi,in_core",
    "simulate": "target,r1,r2,p,mean,std_error,draws,analytic,abs_z",
    "verify": "kind,target,r1_star,r2_star,p_star,closed_profit,grid_profit,profit_delta,"
              "within_one_cell",
    "demand": "kind,fee,u1,u2,gamma,paper_form,exact_geometry,mc_mean,mc_std_error",
    "sweep": "param,value,r1_star,r2_star,p_star,profit,data_cost,revenue,error",
}


@dataclass(frozen=True)
class Draw:
    """One seeded market: three perturbed services and the two bundles over them."""

    market: pm.MarketSpec
    separate: tuple[pm.SeparateScenario, pm.SeparateScenario]
    complement: pm.BundleSpec
    substitute: pm.BundleSpec


def _quality(rng, base):
    a1, a2, a3 = base
    return pm.QualityParams(
        alpha1=float(a1 * rng.uniform(0.97, 1.03)),
        alpha2=float(a2 * rng.uniform(0.8, 1.25)),
        alpha3=float(a3 * rng.uniform(0.9, 1.1)),
    )


def make_draw(rng, wage=None) -> Draw:
    """Perturb S1/S2/S3 and draw c, M and gamma; ``wage`` pins every c."""
    market = pm.MarketSpec(m=int(rng.integers(500, 2001)))

    def service(base, lo, hi):
        quality = _quality(rng, base)
        c = float(rng.uniform(lo, hi))
        return pm.ServiceSpec(quality=quality, n=100, c=c if wage is None else wage)

    s1 = service(_S1, 0.1, 0.3)
    s2 = service(_S2, 0.1, 0.3)
    s3 = service(_S3, 0.05, 0.2)
    complement = pm.BundleSpec(s1=s1, s2=s3, market=market,
                               gamma=float(rng.uniform(0.02, 0.4)), kind=pm.COMPLEMENT)
    substitute = pm.BundleSpec(s1=s1, s2=s2, market=market,
                               gamma=float(rng.uniform(-0.4, -0.02)), kind=pm.SUBSTITUTE)
    separate = (pm.SeparateScenario(service=s1, market=market),
                pm.SeparateScenario(service=s3, market=market))
    return Draw(market=market, separate=separate, complement=complement, substitute=substitute)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _tol(value):
    return 1e-9 * (1.0 + abs(value))


def _finite(label, value):
    return [] if math.isfinite(value) else [f"{label}: profit {value} is not finite"]


def separate_beaten(label, scenario, opt):
    """Problems if a feasible +-h neighbour of a standalone optimum earns more."""
    cap = pm.privacy_cap(scenario.service.quality)
    h = _NEIGHBOUR_STEP
    points = [(opt.r_star, opt.p_star)] + [
        (opt.r_star + dr, opt.p_star + dp) for dr, dp in ((h, 0), (-h, 0), (0, h), (0, -h))
    ]
    points = [(r, p) for r, p in points if 0.0 <= r <= cap and p >= 0.0]
    r, p = (np.array(col) for col in zip(*points))
    values = pm.gross_profit_separate(scenario, r, p)
    problems = _finite(label, opt.profit)
    if values[1:].max(initial=-math.inf) > values[0] + _tol(values[0]):
        problems.append(f"{label}: a neighbour beats the optimum by "
                        f"{values[1:].max() - values[0]:.3g}")
    return problems


def bundle_beaten(label, bundle, opt):
    """Problems if a feasible +-h neighbour of a bundle optimum earns more."""
    caps = (pm.privacy_cap(bundle.s1.quality), pm.privacy_cap(bundle.s2.quality))
    centre = (opt.r1_star, opt.r2_star, opt.p_b_star)
    points = [centre]
    for axis in range(3):
        for step in (_NEIGHBOUR_STEP, -_NEIGHBOUR_STEP):
            point = list(centre)
            point[axis] += step
            r1, r2, p = point
            if 0.0 <= r1 <= caps[0] and 0.0 <= r2 <= caps[1] and p >= 0.0:
                points.append(tuple(point))
    if opt.demand_mode == pm.PAPER_FORM:
        r1, r2, p = (np.array(col) for col in zip(*points))
        values = pm.gross_profit_bundle(bundle, r1, r2, p, opt.demand_mode)
    else:
        values = np.array([pm.gross_profit_bundle(bundle, *point, opt.demand_mode)
                           for point in points])
    problems = _finite(label, opt.profit)
    if values[1:].max(initial=-math.inf) > values[0] + _tol(values[0]):
        problems.append(f"{label}: a neighbour beats the optimum by "
                        f"{values[1:].max() - values[0]:.3g}")
    return problems


class Sweep:
    """Paper mode on the scalar path: the work of sweep/decide/share."""

    name = "sweep"
    cycle = 8  # draws 3 and 7 of every eight are boundary cases

    def __init__(self, seed, workdir, tiny=False):
        rng = _rng(seed, 1)
        self.draws = [make_draw(rng, wage={3: 0.0, 7: _LARGE_WAGE}.get(i % self.cycle))
                      for i in range(_POOL)]

    def op(self, i):
        d = self.draws[i % len(self.draws)]
        sep = tuple(pm.optimize_separate(sc) for sc in d.separate)
        comp = pm.optimize_bundle(d.complement)
        sub = pm.optimize_bundle(d.substitute)
        decision = pm.bundling_decision(d.substitute)
        cf = pm.CharacteristicFunction.from_two_player(
            decision.separate_profits[0], decision.separate_profits[1], decision.bundle_profit)
        alloc = pm.shapley_allocation(cf)
        pm.core_check(cf, alloc)
        return d, sep, comp, sub, decision, alloc

    def warm_up(self):
        for i in range(self.cycle):
            self.op(i)

    def check(self, result):
        d, sep, comp, sub, decision, alloc = result
        problems = []
        for k, (scenario, opt) in enumerate(zip(d.separate, sep)):
            problems += separate_beaten(f"separate {k + 1}", scenario, opt)
        problems += bundle_beaten("complement", d.complement, comp)
        problems += bundle_beaten("substitute", d.substitute, sub)
        problems += bundle_beaten("decision bundle", d.substitute, decision.bundle_optimum)
        problems += [p for v in decision.separate_profits for p in _finite("decision", v)]
        if decision.recommend_bundle != (decision.bundle_profit > sum(decision.separate_profits)):
            problems.append("decision disagrees with bundle_profit > sum(separate_profits)")
        if abs(alloc.total() - decision.bundle_profit) > _tol(decision.bundle_profit):
            problems.append(f"Shapley payoffs sum to {alloc.total()}, "
                            f"grand value {decision.bundle_profit}")
        return problems


class Certify:
    """Paper mode on the array path: grid certification plus Monte-Carlo."""

    name = "certify"
    cycle = 1

    def __init__(self, seed, workdir, tiny=False):
        rng = _rng(seed, 2)
        self.draws = [make_draw(rng) for _ in range(_POOL)]
        self.sim_seed = seed * 1_000_003
        self.mc_draws = 20_000 if tiny else 1_000_000
        self.separate_grid = {"r_points": 60, "fee_points": 60} if tiny else {}
        self.bundle_verify = {"verify_points": 30} if tiny else {}

    def _monte_carlo(self, target, point, region, i, k):
        sim = pm.SimulationSpec(draws=self.mc_draws, seed=self.sim_seed + 6 * i + 2 * k)
        est = pm.SimulationSpec(draws=self.mc_draws, seed=self.sim_seed + 6 * i + 2 * k + 1)
        return pm.simulate_market(target, point, sim), pm.estimate_buy_probability(region, est)

    def op(self, i):
        d = self.draws[i % len(self.draws)]
        scenario = d.separate[0]
        opt = pm.optimize_separate(scenario)
        grid = pm.grid_maximize(pm.separate_objective(scenario),
                                pm.separate_grid(scenario, **self.separate_grid))
        u = pm.evaluate_quality(opt.r_star, scenario.service.quality)
        region = pm.DemandRegion(kind="separate", fee=opt.p_star, u1=u)
        parts = [(scenario, opt, grid.value,
                  self._monte_carlo(scenario, (opt.r_star, opt.p_star), region, i, 0))]
        for k, bundle in enumerate((d.complement, d.substitute), start=1):
            opt = pm.optimize_bundle(bundle, verify=True, **self.bundle_verify)
            u1 = pm.evaluate_quality(opt.r1_star, bundle.s1.quality)
            u2 = pm.evaluate_quality(opt.r2_star, bundle.s2.quality)
            region = pm.DemandRegion(kind=bundle.kind, fee=opt.p_b_star, u1=u1, u2=u2,
                                     gamma=bundle.gamma)
            point = (opt.r1_star, opt.r2_star, opt.p_b_star)
            parts.append((bundle, opt, opt.profit - opt.oracle_delta,
                          self._monte_carlo(bundle, point, region, i, k)))
        return parts

    def warm_up(self):
        self.op(0)

    def check(self, parts):
        problems = []
        for target, opt, grid_best, (sim, est) in parts:
            if isinstance(target, pm.SeparateScenario):
                label = "separate"
                analytic = pm.gross_profit_separate(target, opt.r_star, opt.p_star)
                u = pm.evaluate_quality(opt.r_star, target.service.quality)
                prob = pm.prob_buy_separate(opt.p_star, u)
            else:
                # Monte-Carlo replays the raw buy rule, so it is held to the exact geometry
                label = target.kind
                point = (opt.r1_star, opt.r2_star, opt.p_b_star)
                analytic = pm.gross_profit_bundle(target, *point, pm.EXACT_GEOMETRY)
                u1 = pm.evaluate_quality(opt.r1_star, target.s1.quality)
                u2 = pm.evaluate_quality(opt.r2_star, target.s2.quality)
                prob_buy = (pm.prob_buy_complement if target.kind == pm.COMPLEMENT
                            else pm.prob_buy_substitute)
                prob = prob_buy(opt.p_b_star, u1, u2, target.gamma, pm.EXACT_GEOMETRY)
            problems += _finite(label, opt.profit)
            if opt.profit < grid_best - 1e-7 * max(1.0, abs(grid_best)):
                problems.append(f"{label}: solver profit {opt.profit} below grid best {grid_best}")
            for what, mc, exact in (("profit", sim, analytic), ("buy probability", est, prob)):
                z = abs(mc.mean - exact) / mc.std_error if mc.std_error > 0 else (
                    0.0 if mc.mean == exact else math.inf)
                if z > 5.0:
                    problems.append(f"{label}: Monte-Carlo {what} |z| = {z:.2f}")
        return problems


class Exact:
    """Exact-geometry demand: the only user of the clipped-polygon path."""

    name = "exact"
    cycle = 2  # a complement bundle, then a substitute bundle

    def __init__(self, seed, workdir, tiny=False):
        rng = _rng(seed, 3)
        self.draws = [make_draw(rng) for _ in range(_POOL)]
        self.settings = {"seed_points": 8 if tiny else _EXACT_SEED_POINTS}

    def op(self, i):
        d = self.draws[(i // 2) % len(self.draws)]
        bundle = d.complement if i % 2 == 0 else d.substitute
        return bundle, pm.optimize_bundle(bundle, demand_mode=pm.EXACT_GEOMETRY, **self.settings)

    def warm_up(self):
        """The exact path at a small seed grid."""
        pm.optimize_bundle(self.draws[0].substitute, demand_mode=pm.EXACT_GEOMETRY, seed_points=4)

    def check(self, result):
        bundle, opt = result
        return bundle_beaten(f"exact {bundle.kind}", bundle, opt)


def _write_generated_scenario(rng, seed, directory):
    """A bundle scenario whose first service is fitted from seeded samples."""
    a = _quality(rng, _S1)
    r = np.linspace(0.0, 0.9, 10)
    tau = np.clip(a.alpha1 - a.alpha2 * np.exp(a.alpha3 * r) + rng.normal(0.0, 0.002, r.size),
                  0.0, 1.0)
    with open(os.path.join(directory, "gen_samples.csv"), "w", encoding="utf-8") as fh:
        fh.write("r,quality\n")
        fh.writelines(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(r, tau))
    b = _quality(rng, _S3)
    text = (
        f"[market]\nM = {int(rng.integers(500, 2001))}\n\n"
        f"[service.A]\nN = 100\nc = {float(rng.uniform(0.1, 0.3))!r}\nsamples = gen_samples.csv\n\n"
        f"[service.B]\nN = 100\nc = {float(rng.uniform(0.05, 0.2))!r}\n"
        f"alpha1 = {b.alpha1!r}\nalpha2 = {b.alpha2!r}\nalpha3 = {b.alpha3!r}\n\n"
        f"[bundle]\nmembers = A, B\ngamma = {float(rng.uniform(0.02, 0.4))!r}\n"
        f"kind = complement\n\n[sim]\ndraws = 1000000\nseed = {seed}\nsigma_z = 1.0\n"
    )
    path = os.path.join(directory, "gen.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


CLI_COMMANDS = ("optimize_separate", "optimize_complement", "optimize_substitute", "decide",
                "share", "simulate", "verify", "demand_verify", "sweep", "fit")


class Cli:
    """One ``python -m privmarket.cli <command>`` per op, one at a time."""

    name = "cli"

    def __init__(self, seed, workdir, tiny=False):
        import privmarket.cli  # noqa: F401  (the CLI's own import is part of set-up)

        src = os.path.dirname(os.path.dirname(os.path.abspath(pm.__file__)))
        scenarios = os.path.join(os.path.dirname(src), "scenarios")
        s1, comp, sub = (os.path.join(scenarios, f) for f in
                         ("s1.cfg", "bundle_complements.cfg", "bundle_substitutes.cfg"))
        self.workdir = workdir
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        rng = _rng(seed, 4)
        gen = _write_generated_scenario(rng, seed, inputs)
        for path in (s1, comp, sub, gen):
            pm.load_scenario(path)
        sim_seed = str(int(rng.integers(0, 2**31)))
        argv = {
            "optimize_separate": ["optimize", "separate", s1],
            "optimize_complement": ["optimize", "complement", comp],
            "optimize_substitute": ["optimize", "substitute", sub],
            "decide": ["decide", gen],
            "share": ["share", gen],
            "simulate": ["simulate", s1, "--seed", sim_seed],
            "verify": ["verify", comp],
            "demand_verify": ["demand", sub, "--verify", "--seed", sim_seed],
            "sweep": ["sweep", s1, "--param", "service.S1.c", "--start", "0.01",
                      "--stop", "0.5", "--steps", "50"],
            "fit": ["fit", gen],
        }
        self.commands = [(label, argv[label]) for label in CLI_COMMANDS]
        self.cycle = len(self.commands)
        self.env = dict(os.environ, PYTHONPATH=src)

    def _out(self, i):
        return os.path.join(self.workdir, f"op{i}")

    def op(self, i):
        label, argv = self.commands[i % self.cycle]
        proc = subprocess.run([sys.executable, "-m", "privmarket.cli", *argv, "--out", self._out(i)],
                              env=self.env, capture_output=True, text=True, timeout=170)
        return label, argv[0], self._out(i), proc.returncode, proc.stdout, proc.stderr

    def warm_up(self):
        self.op(-1)
        self.op_in_process(-1)

    def op_in_process(self, i):
        """The same command through ``privmarket.cli.main`` in this process."""
        label, argv = self.commands[i % self.cycle]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["privmarket.cli"].main([*argv, "--out", self._out(i)])
        return label, argv[0], self._out(i), code, out.getvalue(), err.getvalue()

    def check(self, result):
        label, command, out_dir, code, stdout, stderr = result
        if code != 0:
            return [f"{label}: exit code {code}: {stderr.strip()[-300:]}"]
        try:
            with open(os.path.join(out_dir, f"{command}.csv"), encoding="utf-8") as fh:
                written = fh.read()
        except OSError as exc:
            return [f"{label}: no CSV written: {exc}"]
        problems = []
        if written != stdout:
            problems.append(f"{label}: stdout differs from the written CSV")
        lines = written.splitlines()
        if not lines or lines[0] != CSV_HEADERS[command]:
            problems.append(f"{label}: header {lines[:1]} is not the {command} schema")
        for line in lines[1:]:
            for cell in line.split(","):
                try:
                    if not math.isfinite(float(cell)):
                        problems.append(f"{label}: non-finite cell {cell!r}")
                except ValueError:
                    pass
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Certify, Exact, Cli)}


def build(name, seed, workdir, tiny=False):
    """Generate one workload's inputs; a fresh interpreter running this is set-up time."""
    return WORKLOADS[name](seed, workdir, tiny)
