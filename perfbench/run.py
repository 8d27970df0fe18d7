#!/usr/bin/env python3
"""Benchmark of privmarket: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: sweep, certify, exact, cli (see perfbench/README.md).  The run
builds the workload's inputs from --seed, runs whole cycles of ops until
--seconds have passed, checks every op's result outside the timed region,
and prints each metric by name with its unit.  Timings are reported at the
host's quiet speed (see HostSpeed) and also as timed.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same ops once
untimed by the tracer and once with every public function of the library
wrapped, and reports the per-layer metrics and the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sweep", "certify", "exact", "cli")
FRESH_SAMPLES = 9  # fresh interpreters per set-up figure; their median is reported
SHOWN_PROBLEMS = 5


class OpFailure:
    """An op that raised; it counts as failed and its latency still counts."""

    def __init__(self, text):
        self.text = text


def fresh_interpreter_s(code, env):
    # a pipe ends the wait at the child's exit; waiting with a timeout and no
    # pipe polls, which rounds the time up to the polling interval
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                   capture_output=True)
    return time.perf_counter() - start


def fresh_samples(args):
    return 2 if args.tiny else FRESH_SAMPLES


def fresh_interpreter_samples(code, env, samples):
    """Wall times of fresh interpreters; one untimed run first warms caches."""
    fresh_interpreter_s(code, env)
    return [fresh_interpreter_s(code, env) for _ in range(samples)]


class HostSpeed:
    """How much slower the host runs a fixed kernel now than on a quiet stretch.

    The host shares its cores with other tenants.  Their load slows every op
    by up to 40%, for stretches of seconds to minutes, and a run cannot
    avoid it.  A fixed numpy kernel (normal and uniform draws and exp on
    8,192 elements, best of three) timed between ops slows with it, so a run
    divides its times by the median slowdown of the kernel over the run.
    The kernel is the benchmark's own code; the program never runs it.
    """

    NOMINAL_S = 150e-6  # the kernel's time on a quiet stretch of the reference host
    EVERY_S = 0.05  # at most one sample per 50 ms of ops

    def __init__(self):
        import numpy

        self._numpy = numpy
        self._rng = numpy.random.default_rng(0)
        self.samples = []
        self.spent = 0.0  # seconds spent sampling, which the loop's wall time excludes
        self._last = -math.inf

    def _kernel(self):
        return self._rng.standard_normal(8192).sum() + self._numpy.exp(self._rng.random(8192)).sum()

    def sample(self):
        start = time.perf_counter()
        if start - self._last < self.EVERY_S:
            return
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self._last = time.perf_counter()
        self.spent += self._last - start
        self.samples.append(best)

    def slowdown(self):
        return statistics.median(self.samples) / self.NOMINAL_S


def closed_loop(op, cycle, seconds, first=0, host=None):
    """Whole cycles of ops, one at a time, until ``seconds`` have passed.

    Returns each op's latency, each op's result, and the loop's wall time,
    less the time spent sampling ``host`` (a HostSpeed) between ops.
    """
    latencies, results = [], []
    i = first
    spent = host.spent if host else 0.0
    start = time.perf_counter()
    while True:
        for _ in range(cycle):
            t0 = time.perf_counter()
            try:
                result = op(i)
            except Exception:  # the run goes on; the op is counted as failed
                result = OpFailure(traceback.format_exc())
            latencies.append(time.perf_counter() - t0)
            results.append(result)
            i += 1
            if host:
                host.sample()
        elapsed = time.perf_counter() - start - ((host.spent - spent) if host else 0.0)
        if elapsed >= seconds:
            return latencies, results, elapsed


def count_failures(workload, results):
    failed = 0
    for result in results:
        if isinstance(result, OpFailure):
            problems = [result.text]
        else:
            try:
                problems = workload.check(result)
            except Exception:
                problems = ["check raised: " + traceback.format_exc()]
        if problems:
            failed += 1
            if failed <= SHOWN_PROBLEMS:
                print(f"failed op: {'; '.join(problems)}", file=sys.stderr)
    return failed


def tail(latencies_ms):
    """The highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(latencies_ms)
    if len(ordered) < 11:
        return None
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def machine_info():
    import numpy

    lines = 0
    digest = hashlib.sha256()
    for path in sorted((SRC / "privmarket").glob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.name.encode() + b"\0" + data)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(), "src_lines": lines,
            "src_sha256": digest.hexdigest()[:16]}


def git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def show(name, value, unit, note=""):
    print(f"{name:<48} {value:>16.6g} {unit:<12} {note}".rstrip())


def end_to_end(workload, args, workdir, env):
    setup_code = (f"import workloads; workloads.build({args.workload!r}, {args.seed}, "
                  f"{str(workdir / 'setup')!r}, {args.tiny})")
    samples = fresh_samples(args)
    host = HostSpeed()
    # set-up samples before and after the loop, so that one busy stretch of the
    # host does not move all of them
    setup = fresh_interpreter_samples(setup_code, env, samples // 2)
    workload.warm_up()
    latencies, results, elapsed = closed_loop(workload.op, workload.cycle, args.seconds,
                                              host=host)
    setup += fresh_interpreter_samples(setup_code, env, samples - samples // 2)
    failed = count_failures(workload, results)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    ms = [1e3 * x for x in latencies]
    slowdown = host.slowdown()
    raw = {"setup_s": statistics.median(setup), "ops_per_s": len(ms) / elapsed,
           "op_p50_ms": statistics.median(ms)}
    metrics = {
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "ops_per_s": (raw["ops_per_s"] * slowdown, "ops/s"),
        "op_p50_ms": (raw["op_p50_ms"] / slowdown, "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    name = args.workload
    for metric, (value, unit) in metrics.items():
        show(f"{name}.{metric}", value, unit)
    print(f"# timings above are at the host's quiet speed; this run's host was "
          f"{slowdown:.4f} times slower ({len(host.samples)} kernel samples). As timed:")
    for metric, value in raw.items():
        show(f"{name}.{metric}_as_timed", value, metrics[metric][1])
    tail_ms = tail(ms)
    if tail_ms is None:
        print(f"{name}.op_tail_ms  undefined: {len(ms)} ops, fewer than 11")
    else:
        show(f"{name}.op_tail_ms", tail_ms[0], "ms", f"p{tail_ms[1]:.4g} of {len(ms)} ops, 10 beyond")
    show(f"{name}.failed_share", failed / len(ms), "ratio", f"{failed} of {len(ms)} ops")
    return metrics, len(ms), failed


def cli_layer(workload, args, env, seconds):
    """Per-command subprocess wall times, CSV bytes and import times of the CLI."""
    latencies, results, _ = closed_loop(workload.op, workload.cycle, seconds)
    failed = count_failures(workload, results)
    metrics = {}
    for label, _ in workload.commands:
        walls = [1e3 * t for t, r in zip(latencies, results) if r[0] == label]
        metrics[f"cli.{label}.wall_ms"] = (statistics.median(walls), "ms")
    csv_bytes = sum(os.path.getsize(os.path.join(r[2], f"{r[1]}.csv")) for r in results
                    if not isinstance(r, OpFailure) and r[3] == 0)
    metrics["cli.csv_bytes"] = (csv_bytes / len(results), "bytes/op")
    for name, code in (("cli.import_ms", "import privmarket.cli"),
                       ("cli.numpy_import_ms", "import numpy")):
        samples = fresh_interpreter_samples(code, env, fresh_samples(args))
        metrics[name] = (1e3 * statistics.median(samples), "ms")
    return metrics, len(results), failed


def traced(workload, args, workdir, env):
    from tracer import Tracer, layer_metrics
    from workloads import CLI_COMMANDS

    op = workload.op_in_process if args.workload == "cli" else workload.op
    cli_metrics, attempted, failed = {}, 0, 0
    seconds = args.seconds  # the whole traced run lasts about as long as an untraced one
    if args.workload == "cli":
        seconds = args.seconds / 2
        cli_metrics, attempted, failed = cli_layer(workload, args, env, seconds)
    workload.warm_up()
    tracer = Tracer()

    def traced_op(i):
        tracer.op_id = i
        return op(i)

    # untraced and traced cycles alternate, so that both meet the same host
    plain, spanned, results = [], [], []
    start = time.perf_counter()
    while True:
        plain_latencies, plain_results, _ = closed_loop(op, workload.cycle, 0,
                                                        first=attempted + len(results))
        plain += plain_latencies
        results += plain_results
        tracer.install()
        try:
            traced_latencies, traced_results, _ = closed_loop(traced_op, workload.cycle, 0,
                                                              first=attempted + len(results))
        finally:
            tracer.uninstall()
        spanned += traced_latencies
        results += traced_results
        if time.perf_counter() - start >= seconds:
            break
    failed += count_failures(workload, results)
    attempted += len(results)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")

    summary = tracer.summary()
    metrics = layer_metrics(summary, len(spanned))
    for label in CLI_COMMANDS:
        metrics[f"cli.{label}.wall_ms"] = (0.0, "ms")
    metrics.update({"cli.csv_bytes": (0.0, "bytes/op"), "cli.import_ms": (0.0, "ms"),
                    "cli.numpy_import_ms": (0.0, "ms")})
    metrics.update(cli_metrics)
    plain_p50 = statistics.median(plain)
    spanned_p50 = statistics.median(spanned)
    metrics["trace.overhead_pct"] = (100.0 * (spanned_p50 / plain_p50 - 1.0), "%")
    metrics["trace.spans"] = (len(tracer.span) / len(spanned), "spans/op")

    print(f"# traced: {len(spanned)} ops, op p50 {1e3 * spanned_p50:.6g} ms traced, "
          f"{1e3 * plain_p50:.6g} ms untraced")
    print(f"# {'span':<46} {'calls/op':>12} {'self ms/op':>12} {'total ms/op':>12}")
    ops = len(spanned)
    for name, row in sorted(summary.items(), key=lambda item: -item[1]["self_s"]):
        print(f"# {name:<46} {row['calls'] / ops:>12.6g} {1e3 * row['self_s'] / ops:>12.6g} "
              f"{1e3 * row['total_s'] / ops:>12.6g}")
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small grids and draw counts, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "privmarket" / "__init__.py").is_file():
        print(f"perfbench: no privmarket package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))

    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        print(f"# privmarket benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"# machine: {json.dumps(machine_info())}")
        workload = workloads.build(args.workload, args.seed, str(workdir), args.tiny)
        run = traced if args.trace else end_to_end
        metrics, attempted, failed = run(workload, args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
