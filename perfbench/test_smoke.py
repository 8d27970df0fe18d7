"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/test_smoke.py        (or: python3 -m pytest perfbench)

Runs every workload untraced and traced once, with one cycle of ops and the
small grids of --tiny, and checks that every end-to-end and per-layer metric
named in BENCHMARK.json is printed with its unit, that no op failed, and
that the run refuses to start without the library's sources.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED_ONLY = ("op_tail_ms", "failed_share")  # shown beside the JSON metrics, not in them


def run(*argv, cwd=ROOT, bench=BENCH):
    return subprocess.run([sys.executable, str(bench / "run.py"), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_workload(name):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                   "--tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected, f"{name} trace={trace}: {sorted(set(got) ^ set(expected))}"
        printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
                   if line and not line.startswith("#") and len(line.split()) >= 3}
        for metric, unit in expected.items():
            shown = f"{name}.{metric}" if trace == 0 else metric
            assert printed.get(shown) == unit, f"{shown} not printed with unit {unit}"
        if trace == 0:
            assert printed[f"{name}.failed_share"] == "ratio"
            assert float(next(line.split()[1] for line in lines
                              if line.startswith(f"{name}.failed_share"))) == 0.0
            assert any(line.startswith(f"{name}.op_tail_ms") for line in lines)


def test_every_workload_prints_every_metric():
    for workload in SPEC["workloads"]:
        check_workload(workload["name"])


def test_refuses_to_run_without_sources():
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / BENCH.name, ignore=shutil.ignore_patterns("out"))
        proc = run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=bare, bench=Path(bare) / BENCH.name)
        assert proc.returncode != 0
        assert not proc.stdout.strip()


if __name__ == "__main__":
    test_every_workload_prints_every_metric()
    test_refuses_to_run_without_sources()
    print("smoke test passed")
