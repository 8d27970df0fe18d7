"""The benchmark's workloads run on the library as it stands.

`perfbench/workloads.py` calls the library by name and keyword (for example
`optimize_bundle(..., seed_points=16)`), and only a benchmark run would
notice one of them gone.  Each workload is built here at its tiny size, runs
one cycle of ops in this process (the `cli` commands through `cli.main`), and
its own check must report no problem.  The test only reads `perfbench/`.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_one_tiny_cycle_passes_the_workloads_check(name, tmp_path):
    workload = workloads.build(name, 3, str(tmp_path), tiny=True)
    run = workload.op_in_process if name == "cli" else workload.op
    for i in range(workload.cycle):
        assert workload.check(run(i)) == [], f"{name} op {i}"
