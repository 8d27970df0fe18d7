"""Smoke test of the experiment scripts: each runs without a RuntimeWarning,
writes its CSVs, and every numeric cell is finite."""
import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> {csv file: (header, data rows at --points 5)}
OUTPUTS = {
    "standalone_experiments.py": {
        "standalone_optimum.csv": (["r_star", "p_star", "profit", "interior"], 1),
        "wage_sweep.csv": (["c", "r_star", "p_star", "profit", "data_cost"], 5),
        "customer_sweep.csv": (["M", "r_star", "p_star", "profit", "data_cost"], 5),
        "fixed_privacy_sweep.csv": (["r", "p_star", "profit", "revenue", "data_cost"], 5),
    },
    "bundle_experiments.py": {
        "complement_contingency_sweep.csv":
            (["gamma", "r1_star", "r2_star", "p_b_star", "profit", "data_cost"], 5),
        "substitute_contingency_sweep.csv":
            (["gamma", "r1_star", "r2_star", "p_b_star", "profit", "data_cost"], 5),
        "wage_sweep_sharing.csv":
            (["c1", "alone_1", "alone_2", "bundle_profit", "shapley_1", "shapley_2"], 5),
        "bundling_decisions.csv":
            (["bundle", "bundle_profit", "alone_1", "alone_2", "recommend_bundle"], 2),
    },
}


@pytest.mark.parametrize("script", list(OUTPUTS))
def test_experiment_script_writes_finite_csvs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # the RuntimeWarning rule pyproject.toml sets for in-process tests
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script),
         "--points", "5", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == sorted(OUTPUTS[script])
    for name, (header, count) in OUTPUTS[script].items():
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert len(rows) == count + 1
        numbers = []
        for cell in (c for row in rows[1:] for c in row):
            try:
                numbers.append(float(cell))
            except ValueError:  # labels and booleans
                pass
        assert numbers and all(math.isfinite(v) for v in numbers), name
