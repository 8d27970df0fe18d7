"""Span tracing of privmarket's public functions, from outside the library.

``Tracer.install`` wraps every public function of the layer modules at every
place it is bound, including the copies imported into other privmarket
modules, and ``uninstall`` puts the originals back.  Each call records one
span (name, start, end, parent span, op id) in flat arrays held in memory;
``save`` writes them out when the run ends.  Self time is a span's duration
minus the durations of its child spans.

Calls whose cost depends on the demand mode carry it in the span name
(``bundle.optimize_bundle.exact``), so paper and exact work stay apart.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("quality", "demand", "separate", "bundle", "oracles", "sharing", "scenario", "cli")
MODES = ("paper", "exact")
MODE_TAG = "_perfbench_demand_mode"

# (position, keyword) of the demand-mode argument
_MODE_ARGUMENT = {
    "demand.prob_buy_complement": (4, "mode"),
    "demand.prob_buy_substitute": (4, "mode"),
    "bundle.gross_profit_bundle": (4, "demand_mode"),
    "bundle.optimize_bundle": (1, "demand_mode"),
    "bundle.bundling_decision": (1, "demand_mode"),
    "oracles.bundle_objective": (1, "demand_mode"),
}
_ALWAYS_PAPER = ("demand.prob_buy_separate", "oracles.separate_objective")


def _argument(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs.get(keyword)


def _mode_getter(qualname):
    """A function of (args, kwargs) giving the call's demand mode, or None."""
    if qualname in _MODE_ARGUMENT:
        position, keyword = _MODE_ARGUMENT[qualname]
        return lambda args, kwargs: _argument(args, kwargs, position, keyword) or "paper"
    if qualname == "oracles.grid_maximize":
        return lambda args, kwargs: getattr(_argument(args, kwargs, 0, "objective"), MODE_TAG,
                                            "paper")
    if qualname in _ALWAYS_PAPER:
        return lambda args, kwargs: "paper"
    return None


def _tag_objective(tracer, name, args, kwargs, objective):
    mode = name.rsplit(".", 1)[1]

    def tagged(*mesh):
        return objective(*mesh)

    setattr(tagged, MODE_TAG, mode)
    return tagged


def _count(counter, value):
    def hook(tracer, name, args, kwargs, result):
        tracer.add(name, counter, value(args, kwargs, result))
        return result
    return hook


_ELEMENTS = _count("elements", lambda args, kwargs, result: getattr(result, "size", 1))
_HOOKS = {
    "quality.fit_quality_curve": _count("iterations", lambda a, k, r: r.iterations),
    "demand.prob_buy_separate": _ELEMENTS,
    "demand.prob_buy_complement": _ELEMENTS,
    "demand.prob_buy_substitute": _ELEMENTS,
    "separate.gross_profit_separate": _ELEMENTS,
    "bundle.gross_profit_bundle": _ELEMENTS,
    "bundle.optimize_bundle": _count("fallback", lambda a, k, r: int(r.fallback)),
    "oracles.grid_maximize": _count(
        "points", lambda a, k, r: math.prod(n for _, _, n in _argument(a, k, 1, "grid").axes)),
    "oracles.simulate_market": _count("draws", lambda a, k, r: r.draws),
    "oracles.estimate_buy_probability": _count("draws", lambda a, k, r: r.draws),
    "oracles.bundle_objective": _tag_objective,
    "oracles.separate_objective": _tag_objective,
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per finished span, in the order the spans end
        self.span = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[str, str], float] = {}
        self.op_id = 0
        self._next_span = itertools.count()
        self._stack = [-1]
        self._patched = []
        self._wrappers = {}  # original function -> its wrapper

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name, counter, value):
        key = (name, counter)
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, qualname, fn):
        hook = _HOOKS.get(qualname)
        mode_of = _mode_getter(qualname)
        names = {}  # demand mode (None for functions without one) -> (name, name id)
        stack, next_span, clock = self._stack, self._next_span, time.perf_counter
        add_span, add_parent, add_name = self.span.append, self.parent.append, self.name.append
        add_op, add_start, add_end = self.op.append, self.start.append, self.end.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mode = mode_of(args, kwargs) if mode_of else None
            entry = names.get(mode)
            if entry is None:
                name = qualname if mode is None else f"{qualname}.{mode}"
                entry = names[mode] = (name, self.name_id(name))
            span = next(next_span)
            parent = stack[-1]
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                add_span(span)
                add_parent(parent)
                add_name(entry[1])
                add_op(self.op_id)
                add_start(t0)
                add_end(t1)
            return hook(self, entry[0], args, kwargs, result) if hook else result

        return traced

    def _make_wrappers(self):
        for layer in LAYERS:
            module = sys.modules.get(f"privmarket.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)

    def install(self):
        if not self._wrappers:
            self._make_wrappers()
        wrappers = self._wrappers
        for module_name, module in list(sys.modules.items()):
            if module_name != "privmarket" and not module_name.startswith("privmarket."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def save(self, path):
        arrays = {field: np.array(getattr(self, field)) for field in
                  ("span", "parent", "name", "op", "start", "end")}
        np.savez(path, names=np.array(self.names), **arrays)

    def summary(self):
        """Per span name: calls, self seconds, total seconds, and its counters."""
        count = len(self.span)
        order = np.array(self.span, dtype=np.int64)  # rows indexed by span id
        name = np.empty(count, dtype=np.int64)
        parent = np.empty(count, dtype=np.int64)
        duration = np.empty(count)
        name[order] = self.name
        parent[order] = self.parent
        duration[order] = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=count)
        self_time = duration - children
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=self_time, minlength=len(self.names))
        total_s = np.bincount(name, weights=duration, minlength=len(self.names))
        out = {n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
               for i, n in enumerate(self.names)}
        for (n, counter), value in self.counters.items():
            out[n][counter] = value
        # grid time inside optimize_bundle; the rest of its time is the closed form or the ascent
        for mode in MODES:
            grid_id = self._ids.get(f"oracles.grid_maximize.{mode}")
            opt_id = self._ids.get(f"bundle.optimize_bundle.{mode}")
            if grid_id is None or opt_id is None:
                continue
            inside = 0.0
            for span in np.flatnonzero(name == grid_id):
                ancestor = parent[span]
                while ancestor >= 0 and name[ancestor] != opt_id:
                    ancestor = parent[ancestor]
                if ancestor >= 0:
                    inside += duration[span]
            out[f"bundle.optimize_bundle.{mode}"]["grid_s"] = inside
        return out


def _total(summary, names, field):
    return sum(summary.get(n, {}).get(field, 0) for n in names)


def layer_metrics(summary, ops):
    """The per-layer metrics, per op where they are counts or times."""
    metrics = {}

    def put(metric, value, unit):
        metrics[metric] = (value, unit)

    def per_op(metric, names, fields=("calls", "self_ms")):
        for field in fields:
            if field == "self_ms":
                put(f"{metric}.self_ms", 1e3 * _total(summary, names, "self_s") / ops, "ms/op")
            else:
                put(f"{metric}.{field}", _total(summary, names, field) / ops, f"{field}/op")

    def both(qualname):
        return [f"{qualname}.{mode}" for mode in MODES]

    per_op("quality.evaluate_quality", ["quality.evaluate_quality"])
    per_op("quality.fit_quality_curve", ["quality.fit_quality_curve"])
    put("quality.fit.iterations",
        _total(summary, ["quality.fit_quality_curve"], "iterations") / ops, "iterations/op")
    paper_demand = ["demand.prob_buy_separate.paper", "demand.prob_buy_complement.paper",
                    "demand.prob_buy_substitute.paper"]
    per_op("demand.prob_buy_paper", paper_demand, ("calls", "elements", "self_ms"))
    per_op("demand.prob_buy_exact",
           ["demand.prob_buy_complement.exact", "demand.prob_buy_substitute.exact"])
    per_op("separate.optimize_separate", ["separate.optimize_separate"])
    per_op("separate.gross_profit_separate", ["separate.gross_profit_separate"],
           ("calls", "elements", "self_ms"))
    optimize = both("bundle.optimize_bundle")
    per_op("bundle.optimize_bundle", optimize)
    calls = _total(summary, optimize, "calls")
    put("bundle.optimize_bundle.fallback_share",
        _total(summary, optimize, "fallback") / calls if calls else 0.0, "ratio")
    for mode in MODES:
        name = f"bundle.optimize_bundle.{mode}"
        ascent = _total(summary, [name], "total_s") - _total(summary, [name], "grid_s")
        put(f"{name}.ascent_ms", 1e3 * ascent / ops, "ms/op")
    per_op("bundle.gross_profit_bundle", both("bundle.gross_profit_bundle"),
           ("calls", "elements", "self_ms"))
    per_op("bundle.bundling_decision", both("bundle.bundling_decision"), ("self_ms",))
    for mode in MODES:
        grid = [f"oracles.grid_maximize.{mode}"]
        per_op(f"oracles.grid_maximize.{mode}", grid)
        grid_s = _total(summary, grid, "total_s")
        put(f"oracles.grid_maximize.{mode}.total_ms", 1e3 * grid_s / ops, "ms/op")
        points = _total(summary, grid, "points")
        put(f"oracles.grid.{mode}.points", points / ops, "points/op")
        put(f"oracles.grid.{mode}.points_per_s", points / grid_s if grid_s else 0.0, "points/s")
    mc = ["oracles.simulate_market", "oracles.estimate_buy_probability"]
    for name in (*mc, "oracles.participant_reports"):
        per_op(name, [name])
    draws = _total(summary, mc, "draws")
    mc_s = _total(summary, mc, "total_s")
    put("oracles.mc.draws", draws / ops, "draws/op")
    put("oracles.mc.draws_per_s", draws / mc_s if mc_s else 0.0, "draws/s")
    for name in ("sharing.shapley_allocation", "sharing.core_check", "scenario.load_scenario",
                 "cli.main"):
        per_op(name, [name])
    return metrics
