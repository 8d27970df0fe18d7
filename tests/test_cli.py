import csv
import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from privmarket import cli, oracles
from privmarket.cli import main

S1_ONLY = """\
[market]
M = 1000

[service.S1]
N = 100
c = 0.2
alpha1 = 0.822
alpha2 = 0.004
alpha3 = 2.813

[sim]
draws = 50000
seed = 7
"""

SB1 = S1_ONLY.replace("[sim]", """\
[service.S3]
N = 100
c = 0.1
alpha1 = 0.867
alpha2 = 0.001
alpha3 = 4.2

[bundle]
members = S1, S3
gamma = 0.1
kind = complement

[sim]""")

SB2 = S1_ONLY.replace("[sim]", """\
[service.S2]
N = 100
c = 0.2
alpha1 = 0.856
alpha2 = 0.013
alpha3 = 1.861

[bundle]
members = S1, S2
gamma = -0.1
kind = substitute

[sim]""")


@pytest.fixture
def s1_file(tmp_path):
    path = tmp_path / "s1.cfg"
    path.write_text(S1_ONLY)
    return str(path)


@pytest.fixture
def sb1_file(tmp_path):
    path = tmp_path / "sb1.cfg"
    path.write_text(SB1)
    return str(path)


@pytest.fixture
def sb2_file(tmp_path):
    path = tmp_path / "sb2.cfg"
    path.write_text(SB2)
    return str(path)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_optimize_separate(s1_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["optimize", "separate", s1_file, "--out", str(out)]) == 0
    rows = _read(out / "optimize.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["kind"] == "separate"
    assert row["target"] == "S1"
    assert float(row["r1_star"]) == pytest.approx(0.697291413, abs=1e-6)
    assert float(row["p_star"]) == pytest.approx(0.396780306, abs=1e-6)
    assert float(row["profit"]) == pytest.approx(192.335981, abs=1e-3)
    assert row["interior"] == "true"
    assert row["r2_star"] == ""
    # stdout carries the same table
    assert "separate,S1" in capsys.readouterr().out


def test_optimize_complement_with_verification(sb1_file, tmp_path):
    out = tmp_path / "run"
    assert main(["optimize", "complement", sb1_file, "--verify", "--out", str(out)]) == 0
    row = _read(out / "optimize.csv")[0]
    assert row["kind"] == "complement"
    assert row["target"] == "S1+S3"
    assert float(row["p_star"]) == pytest.approx(0.744012227, abs=1e-6)
    assert row["fallback"] == "false"
    assert float(row["oracle_delta"]) >= -1e-2


def test_optimize_substitute_strict_exits_three(sb2_file, tmp_path):
    # the tabulated substitute closed form always hands over to the search
    out = tmp_path / "run"
    assert main(["optimize", "substitute", sb2_file, "--strict", "--out", str(out)]) == 3
    row = _read(out / "optimize.csv")[0]
    assert row["fallback"] == "true"
    assert float(row["p_star"]) == pytest.approx(0.583576087, abs=1e-6)


def test_optimize_kind_mismatch_is_validation_error(sb1_file, tmp_path, capsys):
    assert main(["optimize", "substitute", sb1_file, "--out", str(tmp_path / "x")]) == 2
    assert "complement" in capsys.readouterr().err


def test_decide_recommends_complement_bundle(sb1_file, tmp_path):
    out = tmp_path / "run"
    assert main(["decide", sb1_file, "--out", str(out)]) == 0
    row = _read(out / "decide.csv")[0]
    assert row["recommend_bundle"] == "true"
    assert float(row["bundle_profit"]) == pytest.approx(483.439088, abs=1e-3)
    assert float(row["profit_1"]) == pytest.approx(192.335981, abs=1e-3)
    assert float(row["profit_2"]) == pytest.approx(209.735226, abs=1e-3)


def test_decide_rejects_substitute_bundle(sb2_file, tmp_path):
    out = tmp_path / "run"
    assert main(["decide", sb2_file, "--out", str(out)]) == 0
    row = _read(out / "decide.csv")[0]
    assert row["recommend_bundle"] == "false"


def test_share_from_values(tmp_path):
    out = tmp_path / "run"
    assert main(["share", "--values", "195.5,206.02,487.84", "--out", str(out)]) == 0
    rows = _read(out / "share.csv")
    assert float(rows[0]["shapley_payoff"]) == pytest.approx(238.66, abs=1e-6)
    assert float(rows[1]["shapley_payoff"]) == pytest.approx(249.18, abs=1e-6)
    assert rows[0]["in_core"] == "true"
    assert float(rows[0]["core_lo"]) == pytest.approx(195.5)
    assert float(rows[0]["core_hi"]) == pytest.approx(281.82)


def test_share_from_scenario(sb1_file, tmp_path):
    out = tmp_path / "run"
    assert main(["share", sb1_file, "--out", str(out)]) == 0
    rows = _read(out / "share.csv")
    assert [row["player"] for row in rows] == ["S1", "S3"]
    total = sum(float(row["shapley_payoff"]) for row in rows)
    assert total == pytest.approx(483.439088, abs=1e-3)
    assert all(float(r["shapley_payoff"]) > float(r["standalone_value"]) for r in rows)


def test_share_from_coalition_file(tmp_path):
    path = tmp_path / "coalitions.csv"
    path.write_text(
        "coalition,value\nA,10\nB,20\nC,30\nA+B,40\nA+C,50\nB+C,60\nA+B+C,120\n"
    )
    out = tmp_path / "run"
    assert main(["share", "--coalitions", str(path), "--out", str(out)]) == 0
    rows = _read(out / "share.csv")
    assert len(rows) == 3
    assert sum(float(r["shapley_payoff"]) for r in rows) == pytest.approx(120.0, abs=1e-9)


def test_simulate_at_optimum(s1_file, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", s1_file, "--out", str(out)]) == 0
    row = _read(out / "simulate.csv")[0]
    assert row["draws"] == "50000"
    assert float(row["abs_z"]) < 4.0


@pytest.mark.parametrize("edits, at, mean, abs_z", [
    # one draw: no spread, and its mean misses the analytic 192.34, so z is undefined
    ([("draws = 50000", "draws = 1")], None, "0", ""),
    # free data at a zero fee: every draw is the analytic profit 0
    ([("c = 0.2", "c = 0")], "0.5,0", "0", "0"),
], ids=["one-draw", "exact-mean"])
def test_simulate_without_spread_reports_z_only_when_defined(edits, at, mean, abs_z, tmp_path):
    cfg = tmp_path / "s.cfg"
    text = S1_ONLY
    for old, new in edits:
        text = text.replace(old, new)
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "--out", str(out)] + (["--at", at] if at else [])) == 0
    row, = _read(out / "simulate.csv")
    assert (row["mean"], row["std_error"], row["abs_z"]) == (mean, "0", abs_z)


def test_simulate_overflow_is_a_validation_error(tmp_path, capsys):
    # the squared profits overflowed: a nan std_error and abs_z 0, with exit 0
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SB1.replace("M = 1000", "M = 1" + "0" * 100)
                   .replace("gamma = 0.1", "gamma = 1e100"))
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "--at", "0.5,0.5,1e99", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.err.rstrip().endswith("overflow together")
    assert not out.exists()


def test_verify_separate(s1_file, tmp_path):
    out = tmp_path / "run"
    assert main(["verify", s1_file, "--out", str(out)]) == 0
    row = _read(out / "verify.csv")[0]
    assert row["within_one_cell"] == "true"
    assert float(row["profit_delta"]) >= -1e-3


def test_demand_reports_both_forms(sb2_file, tmp_path):
    out = tmp_path / "run"
    assert main(["demand", sb2_file, "--verify", "--out", str(out)]) == 0
    row = _read(out / "demand.csv")[0]
    paper = float(row["paper_form"])
    exact = float(row["exact_geometry"])
    mc = float(row["mc_mean"])
    se = float(row["mc_std_error"])
    assert exact > paper  # the documented substitute-demand gap
    assert abs(mc - exact) <= 3.0 * se


def test_sweep_wage_profile(s1_file, tmp_path):
    out = tmp_path / "run"
    assert main([
        "sweep", s1_file, "--param", "service.S1.c",
        "--start", "0.01", "--stop", "0.5", "--steps", "25", "--out", str(out),
    ]) == 0
    rows = _read(out / "sweep.csv")
    assert len(rows) == 25
    profits = [float(r["profit"]) for r in rows]
    assert all(a >= b for a, b in zip(profits, profits[1:]))
    # strictly decreasing until the privacy level saturates at its cap
    unclamped = [i for i, r in enumerate(rows) if float(r["r1_star"]) < 1.0]
    assert all(profits[i] > profits[i + 1] for i in unclamped[:-1])
    costs = [float(r["data_cost"]) for r in rows]
    peak_c = float(rows[int(np.argmax(costs))]["value"])
    assert 0.10 <= peak_c <= 0.25  # cost climbs, tops out, then falls
    assert np.argmax(costs) not in (0, len(costs) - 1)


def test_sweep_fixed_privacy_peaks_near_reported_level(s1_file, tmp_path):
    out = tmp_path / "run"
    assert main([
        "sweep", s1_file, "--param", "service.S1.r",
        "--start", "0.0", "--stop", "1.0", "--steps", "41", "--out", str(out),
    ]) == 0
    rows = _read(out / "sweep.csv")
    profits = [float(r["profit"]) for r in rows]
    peak_r = float(rows[int(np.argmax(profits))]["value"])
    assert abs(peak_r - 0.62) <= 0.1


def test_sweep_flags_invalid_points_and_continues(s1_file, tmp_path):
    out = tmp_path / "run"
    assert main([
        "sweep", s1_file, "--param", "service.S1.r",
        "--start", "0.5", "--stop", "2.0", "--steps", "4", "--out", str(out),
    ]) == 0
    rows = _read(out / "sweep.csv")
    assert rows[0]["error"] == ""
    assert rows[-1]["error"] != ""  # r=2 sits past the zero-quality point


def test_validation_error_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(S1_ONLY.replace("c = 0.2", "c = -0.5"))
    assert main(["optimize", "separate", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'c'" in err


def test_byte_identical_reruns(sb1_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for args in (
        ["optimize", "complement", sb1_file, "--verify"],
        ["simulate", sb1_file],
        ["share", sb1_file],
    ):
        cmd = args[0]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        a = (out_a / f"{cmd}.csv").read_bytes()
        b = (out_b / f"{cmd}.csv").read_bytes()
        assert a == b


def test_seed_override_changes_simulation(s1_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", s1_file, "--seed", "1", "--out", str(out_a)]) == 0
    assert main(["simulate", s1_file, "--seed", "2", "--out", str(out_b)]) == 0
    mean_a = float(_read(out_a / "simulate.csv")[0]["mean"])
    mean_b = float(_read(out_b / "simulate.csv")[0]["mean"])
    assert mean_a != mean_b


def test_fit_command_round_trips(tmp_path):
    from privmarket import evaluate_quality
    from conftest import S3_PARAMS

    rows = ["r,quality"] + [
        f"{r},{evaluate_quality(float(r), S3_PARAMS)}" for r in np.linspace(0, 1, 11)
    ]
    samples = tmp_path / "s3.csv"
    samples.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    assert main(["fit", "--samples", str(samples), "--out", str(out)]) == 0
    row = _read(out / "fit.csv")[0]
    assert float(row["alpha1"]) == pytest.approx(0.867, abs=1e-6)
    assert float(row["alpha3"]) == pytest.approx(4.2, abs=1e-4)
    assert row["converged"] == "true"
    assert float(row["residual_sum_squares"]) <= 1e-12


def test_fit_command_reads_scenario_samples(tmp_path):
    from privmarket import evaluate_quality
    from conftest import S1_PARAMS

    rows = ["r,quality"] + [
        f"{r},{evaluate_quality(float(r), S1_PARAMS)}" for r in np.linspace(0, 1, 11)
    ]
    (tmp_path / "s1_quality.csv").write_text("\n".join(rows) + "\n")
    scenario = tmp_path / "fit.cfg"
    scenario.write_text(S1_ONLY.replace(
        "alpha1 = 0.822\nalpha2 = 0.004\nalpha3 = 2.813", "samples = s1_quality.csv"
    ))
    out = tmp_path / "run"
    assert main(["fit", str(scenario), "--out", str(out)]) == 0
    row = _read(out / "fit.csv")[0]
    assert row["service"] == "S1"
    assert float(row["alpha1"]) == pytest.approx(0.822, abs=1e-6)


def test_fit_without_inputs_is_validation_error(tmp_path, capsys):
    assert main(["fit", "--out", str(tmp_path)]) == 2
    assert "needs" in capsys.readouterr().err


def test_sweep_customer_base(s1_file, tmp_path):
    out = tmp_path / "run"
    assert main([
        "sweep", s1_file, "--param", "market.M",
        "--start", "100", "--stop", "5000", "--steps", "10", "--out", str(out),
    ]) == 0
    rows = _read(out / "sweep.csv")
    profits = [float(r["profit"]) for r in rows]
    fees = [float(r["p_star"]) for r in rows]
    privacy = [float(r["r1_star"]) for r in rows]
    assert all(a <= b for a, b in zip(profits, profits[1:]))
    assert all(a <= b for a, b in zip(fees, fees[1:]))
    assert all(a >= b for a, b in zip(privacy, privacy[1:]))


def test_sweep_standalone_crowd_size(tmp_path):
    # N re-optimizes the one service of a scenario without a bundle
    out = tmp_path / "run"
    assert main(["sweep", str(SHIPPED / "s1.cfg"), "--param", "service.S1.N", "--start", "50",
                 "--stop", "150", "--steps", "3", "--out", str(out)]) == 0
    rows = _read(out / "sweep.csv")
    assert [[row[key] for key in ("value", "r1_star", "p_star", "profit", "data_cost")]
            for row in rows] == [
        ["50", "0.450882888", "0.403890153", "196.453905", "5.49117112"],
        ["100", "0.697291413", "0.396780306", "192.335981", "6.05417175"],
        ["150", "0.84143116", "0.389670459", "190.078164", "4.75706521"],
    ]
    for row in rows:  # N*c*(1 - r), c = 0.2
        assert float(row["data_cost"]) == pytest.approx(
            float(row["value"]) * 0.2 * (1.0 - float(row["r1_star"])), rel=1e-8)


def test_sweep_bundle_contingency(sb1_file, tmp_path):
    out = tmp_path / "run"
    assert main([
        "sweep", sb1_file, "--param", "bundle.gamma",
        "--start", "0.0", "--stop", "0.5", "--steps", "6", "--out", str(out),
    ]) == 0
    rows = _read(out / "sweep.csv")
    assert rows[0]["r2_star"] != ""  # bundles report both privacy levels
    profits = [float(r["profit"]) for r in rows]
    assert all(a < b for a, b in zip(profits, profits[1:]))


@pytest.mark.parametrize("edit", [("gamma = 0.1", "gamma = 1e308"), ("c = 0.2", "c = 1e300"),
                                  ("alpha3 = 2.813", "alpha3 = 1e200"),
                                  ("alpha1 = 0.822", "alpha1 = 1e300")],
                         ids=["gamma", "wage", "alpha3", "alpha1"])
@pytest.mark.parametrize("command", [["optimize", "complement"], ["decide"], ["verify"],
                                     ["simulate"], ["share"], ["demand"],
                                     ["sweep", "--param", "market.M", "--start", "500",
                                      "--stop", "1000", "--steps", "2"]],
                         ids=lambda c: c[0])
def test_overflowing_magnitudes_are_validation_errors(edit, command, tmp_path, capsys):
    bad = tmp_path / "huge.cfg"
    bad.write_text(SB1.replace(*edit))
    assert main(command + [str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and "1e+100" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("digits, code", [(100, 0), (160, 2)])
def test_customer_count_has_a_ceiling(digits, code, tmp_path, capsys):
    # M = 10**160 made m*m an int past float range: an OverflowError traceback, exit 1
    cfg = tmp_path / "crowd.cfg"
    cfg.write_text(SB1.replace("M = 1000", "M = 1" + "0" * digits))
    out = tmp_path / "run"
    assert main(["optimize", "complement", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error:") and "1e+100" in err
        assert not out.exists()
    else:
        row, = _read(out / "optimize.csv")
        assert math.isfinite(float(row["profit"]))


# pairs of inputs that are each in range but overflow together, with the
# commands whose solve runs into the overflow (every other command exits 0)
# and whether each sweep row reports it.  The alpha1 pairs overflowed in the
# bundle's fee-coordinate ascent until it moved onto the fee-eliminated
# profit, and alpha3-wage in the paper complement's fee root until its
# square became a product; alpha1-gamma still overflows in simulate's
# Monte-Carlo sums
JOINT_OVERFLOW = {
    "alpha1-wage": ([("alpha1 = 0.822", "alpha1 = 1e100"), ("c = 0.2", "c = 1e100")],
                    set(), False),
    "alpha1-gamma": ([("alpha1 = 0.822", "alpha1 = 1e100"), ("gamma = 0.1", "gamma = 1e100")],
                     {"simulate"}, False),
    "alpha3-wage": ([("alpha3 = 2.813", "alpha3 = 1e100"), ("c = 0.1", "c = 1e100")],
                    set(), False),
    "alpha2-alpha3": ([("alpha2 = 0.004", "alpha2 = 1e-300"), ("alpha3 = 2.813", "alpha3 = 1e3")],
                      {"optimize separate", "decide", "share"}, False),
}


@pytest.mark.parametrize("pair", list(JOINT_OVERFLOW))
@pytest.mark.parametrize("command", [["optimize", "complement"], ["optimize", "separate"],
                                     ["decide"], ["verify"], ["simulate"], ["share"], ["demand"],
                                     ["sweep", "--param", "market.M", "--start", "500",
                                      "--stop", "1000", "--steps", "2"]],
                         ids=lambda c: "-".join(c[:2]) if c[0] == "optimize" else c[0])
def test_joint_overflow_is_a_validation_error(pair, command, tmp_path, capsys):
    edits, overflowing, sweep_rows_fail = JOINT_OVERFLOW[pair]
    text = SB1
    for old, new in edits:
        text = text.replace(old, new, 1)
    bad = tmp_path / "joint.cfg"
    bad.write_text(text)
    out = tmp_path / "run"
    extra = ["--service", "S1"] if command == ["optimize", "separate"] else []
    code = main(command + [str(bad), "--out", str(out)] + extra)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if " ".join(command[:2]) in overflowing:
        assert code == 2
        assert captured.err.startswith("error:") and "overflow together" in captured.err
        assert not out.exists()
        return
    assert code == 0
    rows = _read(out / f"{command[0]}.csv")
    if command[0] == "sweep" and sweep_rows_fail:
        # sweep reports a failed solve in the row, as for any validation error
        assert all("overflow together" in row["error"] for row in rows)
        return
    for row in rows:
        for cell in row.values():
            try:
                assert math.isfinite(float(cell))
            except ValueError:  # names, flags and empty cells
                pass


@pytest.mark.parametrize("mode", ["paper", "exact"])
def test_fee_root_past_float_range_solves_by_the_fallback(mode, tmp_path):
    # alpha3 = 1e100 with c = 1e100 overflowed the fee root's square: exit 2
    text = SB1
    for old, new in JOINT_OVERFLOW["alpha3-wage"][0]:
        text = text.replace(old, new, 1)
    cfg = tmp_path / "root.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    for command in (["verify"], ["simulate"]):
        assert main(command + [str(cfg), "--demand-mode", mode, "--out", str(out)]) == 0
    row, = _read(out / "verify.csv")
    assert row["within_one_cell"] == "true"
    row, = _read(out / "simulate.csv")
    assert float(row["abs_z"]) <= 5.0


def test_participant_count_past_float_range_is_a_validation_error(tmp_path, capsys):
    # N = 10**400 ended optimize separate, verify and simulate with an
    # OverflowError traceback (exit 1); every README command that loads a
    # scenario now names its section and line and exits 2
    examples = [argv for argv in _readme_cli_examples() if any(a.endswith(".cfg") for a in argv)]
    assert len(examples) == 9
    for argv in examples:
        cfg = tmp_path / "crowd.cfg"
        name = next(a for a in argv if a.endswith(".cfg"))
        cfg.write_text((SHIPPED.parent / name).read_text().replace(
            "N = 100", "N = 1" + "0" * 400, 1))
        out = tmp_path / "run"
        argv = [str(cfg) if a == name else str(out) if a == "results" else a for a in argv]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and "section [service." in err
        assert "participant count must be at most 1e+100, got 1e+400" in err
        assert not out.exists()


SHIPPED = Path(__file__).resolve().parent.parent / "scenarios"

# the exit code of each command that reads --strict when --strict is set;
# without it every case exits 0
STRICT_EXITS = {
    "optimize-substitute": (["optimize", "substitute", "bundle_substitutes.cfg"], 3),
    "decide-substitute": (["decide", "bundle_substitutes.cfg"], 3),
    "share-substitute": (["share", "bundle_substitutes.cfg"], 3),
    "verify-substitute": (["verify", "bundle_substitutes.cfg"], 3),
    "decide-exact-complement": (["decide", "bundle_complements.cfg", "--demand-mode", "exact"], 3),
    "optimize-complement": (["optimize", "complement", "bundle_complements.cfg"], 0),
    "optimize-separate": (["optimize", "separate", "s1.cfg"], 0),
    "decide-complement": (["decide", "bundle_complements.cfg"], 0),
    "share-complement": (["share", "bundle_complements.cfg"], 0),
    "verify-complement": (["verify", "bundle_complements.cfg"], 0),
    "share-values": (["share", "--values", "1,2,4"], 0),
    "verify-service": (["verify", "bundle_substitutes.cfg", "--service", "S1"], 0),
}


@pytest.mark.parametrize("case", list(STRICT_EXITS))
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_strict_exit_code_contract(case, strict, tmp_path, capsys):
    argv, strict_code = STRICT_EXITS[case]
    argv = [str(SHIPPED / a) if a.endswith(".cfg") else a for a in argv]
    out = tmp_path / "run"
    code = main(argv + ["--out", str(out)] + (["--strict"] if strict else []))
    assert code == (strict_code if strict else 0)
    assert capsys.readouterr().out == (out / f"{argv[0]}.csv").read_text()


@pytest.mark.parametrize("command, scenario", [
    (["verify"], "bundle_complements.cfg"),
    (["verify"], "bundle_substitutes.cfg"),
    (["decide"], "bundle_complements.cfg"),
    (["decide"], "bundle_substitutes.cfg"),
    (["optimize", "substitute"], "bundle_substitutes.cfg"),
])
def test_exact_mode_commands_on_shipped_scenarios(command, scenario, tmp_path, capsys):
    out = tmp_path / "run"
    args = command + [str(SHIPPED / scenario), "--demand-mode", "exact", "--out", str(out)]
    assert main(args) == 0
    written = (out / f"{command[0]}.csv").read_text()
    assert capsys.readouterr().out == written
    rows = _read(out / f"{command[0]}.csv")
    assert len(rows) == 1
    numbers = []
    for cell in rows[0].values():
        try:
            numbers.append(float(cell))
        except ValueError:  # names, flags and empty cells
            pass
    assert numbers and all(math.isfinite(v) for v in numbers)


@pytest.mark.parametrize("command", [["optimize", "substitute"], ["decide"], ["verify"]],
                         ids=lambda c: c[0])
def test_substitute_with_vanishing_alpha3_solves(command, tmp_path, capsys):
    # in range, but a3^2*b3^2 underflows to 0: no closed-form candidate may divide by it
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(SB2.replace("alpha3 = 1.861", "alpha3 = 1e-300"))
    out = tmp_path / "run"
    assert main(command + [str(tiny), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = _read(out / f"{command[0]}.csv")
    if command == ["verify"]:
        assert rows[0]["within_one_cell"] == "true"
    if command[0] == "optimize":
        assert rows[0]["fallback"] == "true"
        assert main(command + [str(tiny), "--out", str(out), "--strict"]) == 3


def test_exact_solve_ends_at_a_huge_contingency(tmp_path):
    # gamma = 1e8 puts the fee bracket where float spacing is wider than the tolerance
    wide = tmp_path / "wide.cfg"
    wide.write_text(SB1.replace("gamma = 0.1", "gamma = 1e8"))
    out = tmp_path / "run"
    assert main(["decide", str(wide), "--demand-mode", "exact", "--out", str(out)]) == 0
    row = _read(out / "decide.csv")[0]
    assert math.isfinite(float(row["bundle_profit"]))


def test_bundle_verify_maximizes_the_grid_once(sb1_file, tmp_path, monkeypatch):
    from privmarket import oracles

    calls = []
    real = oracles.grid_maximize

    def spy(objective, grid):
        calls.append(tuple(count for _, _, count in grid.axes))
        return real(objective, grid)

    monkeypatch.setattr(oracles, "grid_maximize", spy)
    assert main(["verify", str(sb1_file), "--out", str(tmp_path / "run")]) == 0
    assert calls == [(120, 120, 120)]


@pytest.mark.parametrize("command", [["optimize", "complement"], ["decide"]], ids=lambda c: c[0])
def test_complement_with_vanishing_alpha3_falls_back(command, tmp_path, capsys):
    # in range, but S3's alpha3**2 underflows to 0 in the closed-form candidate's denominators
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text((SHIPPED / "bundle_complements.cfg").read_text()
                    .replace("alpha3 = 4.2", "alpha3 = 1e-300"))
    out = tmp_path / "run"
    assert main(command + [str(tiny), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    if command[0] == "optimize":
        assert _read(out / "optimize.csv")[0]["fallback"] == "true"
        assert main(command + [str(tiny), "--out", str(out), "--strict"]) == 3


@pytest.mark.parametrize("command", [["optimize", "separate"], ["verify"]], ids=lambda c: c[0])
def test_vanishing_quality_is_a_validation_error(command, tmp_path, capsys):
    # in range, but u ~ 1e-300 and u**2 underflows to 0 in the concavity report
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text((SHIPPED / "s1.cfg").read_text()
                    .replace("alpha1 = 0.822", "alpha1 = 1e-300")
                    .replace("alpha2 = 0.004", "alpha2 = 1e-303"))
    out = tmp_path / "run"
    assert main(command + [str(tiny), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "underflow together" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["optimize", "separate"], ["verify"]], ids=lambda c: c[0])
def test_vanishing_privacy_denominator_solves(command, tmp_path, capsys):
    # in range, but m*alpha2*alpha3 underflows to 0 in the stationary privacy level
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text((SHIPPED / "s1.cfg").read_text()
                    .replace("alpha2 = 0.004", "alpha2 = 1e-300")
                    .replace("alpha3 = 2.813", "alpha3 = 1e-300"))
    code = main(command + [str(tiny), "--out", str(tmp_path / "run")])
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


# in range, but log(alpha1/alpha2) is so small that u(max_privacy - 1e-9) rounds to 0
THIN_CURVE = (("alpha1 = 0.822", "alpha1 = 1.0"), ("alpha2 = 0.004", "alpha2 = 0.999999999999"),
              ("alpha3 = 2.813", "alpha3 = 2e-12"))


@pytest.mark.parametrize("command, scenario", [(["optimize", "separate"], "s1.cfg"),
                                               (["optimize", "complement"], "bundle_complements.cfg")],
                         ids=["separate", "complement"])
def test_privacy_cap_keeps_quality_positive(command, scenario, tmp_path, capsys):
    text = (SHIPPED / scenario).read_text()
    for old, new in THIN_CURVE:
        text = text.replace(old, new, 1)
    thin = tmp_path / "thin.cfg"
    thin.write_text(text)
    out = tmp_path / "run"
    assert main(command + [str(thin), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    row = _read(out / "optimize.csv")[0]
    assert math.isfinite(float(row["profit"]))


# the shared flags each command reads, and a value for each
COMMAND_FLAGS = {
    "fit": (),
    "optimize": ("verify", "strict", "demand-mode", "service"),
    "decide": ("strict", "demand-mode"),
    "share": ("strict", "demand-mode"),
    "simulate": ("seed", "demand-mode", "service"),
    "verify": ("strict", "demand-mode", "service"),
    "demand": ("seed", "verify", "service"),
    "sweep": ("demand-mode", "service"),
}
FLAG_VALUES = {"seed": ["5"], "verify": [], "strict": [], "demand-mode": ["exact"],
               "service": ["S1"]}
COMMAND_ARGS = {
    "fit": ["fit"],
    "optimize": ["optimize", "separate", "x.cfg"],
    "decide": ["decide", "x.cfg"],
    "share": ["share"],
    "simulate": ["simulate", "x.cfg"],
    "verify": ["verify", "x.cfg"],
    "demand": ["demand", "x.cfg"],
    "sweep": ["sweep", "x.cfg", "--param", "market.M", "--start", "1", "--stop", "2",
              "--steps", "2"],
}
FLAG_CASES = [(command, flag, flag in flags) for command, flags in COMMAND_FLAGS.items()
              for flag in FLAG_VALUES]


@pytest.mark.parametrize("command, flag, read", FLAG_CASES,
                         ids=[f"{c}-{f}" for c, f, _ in FLAG_CASES])
def test_commands_accept_only_the_flags_they_read(command, flag, read, capsys):
    from privmarket.cli import _build_parser

    argv = COMMAND_ARGS[command] + [f"--{flag}", *FLAG_VALUES[flag]]
    if read:
        args = _build_parser().parse_args(argv)
        expected = {"seed": 5, "demand-mode": "exact", "service": "S1"}.get(flag, True)
        assert getattr(args, flag.replace("-", "_")) == expected
        return
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: privmarket")
    assert f"unrecognized arguments: --{flag}" in err
    assert "Traceback" not in err


def test_unread_flag_is_reported_with_the_command_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["demand", "s1.cfg", "--demand-mode", "exact"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: privmarket demand")
    assert "unrecognized arguments: --demand-mode exact" in err


def _readme_flag_table():
    """{command: flags} from the README's "Command | Flags" table."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| Command | Flags |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, flags = (cell.strip().replace("`", "") for cell in line.strip("|").split("|"))
        table[command.split()[0]] = {flag.strip() for flag in flags.split(",") if flag.strip()}
    return table


def _readme_cli_examples():
    """The argv of each `privmarket ...` line in the README's CLI example block."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("```sh", lines.index("## CLI")) + 1
    block = lines[start:lines.index("```", start)]
    return [shlex.split(line)[1:] for line in block if line.startswith("privmarket ")]


def test_readme_cli_examples_parse():
    from privmarket.cli import _build_parser

    examples = _readme_cli_examples()
    assert len(examples) == 11
    for argv in examples:
        args = _build_parser().parse_args(argv)  # a usage error exits
        assert args.command == argv[0]


def test_readme_flag_table_matches_parser():
    from privmarket.cli import _build_parser, _commands

    parsed = {
        name: {option for action in command._actions for option in action.option_strings}
        - {"-h", "--help", "--out"}
        for name, command in _commands(_build_parser()).items()
    }
    assert _readme_flag_table() == parsed


def test_share_without_inputs_is_validation_error(tmp_path, capsys):
    assert main(["share", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: share needs")
    assert not (tmp_path / "run").exists()


_APPENDED = S1_ONLY.count("\n") + 2  # the line of a section appended after a blank line


@pytest.mark.parametrize("text, where", [
    (S1_ONLY + "\n[service]\nc = -3\n", f"line {_APPENDED}"),
    (S1_ONLY + "\n[market.x]\nM = 5\n", f"line {_APPENDED}"),
    (S1_ONLY + "\n[sim]\ndraws = 10\n", f"section [sim], line {_APPENDED}"),
    (S1_ONLY.replace("M = 1000", "M = 1" + "0" * 160), "section [market], key 'M', line 2"),
    (S1_ONLY.replace("seed = 7", f"seed = {2**64}"), "section [sim], key 'seed', line 13"),
], ids=["service", "market.x", "repeated-sim", "huge-M", "seed-2^64"])
def test_scenario_section_errors_exit_two_with_location(tmp_path, capsys, text, where):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["optimize", "separate", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert where in err


def test_sweep_over_infinite_bounds_is_validation_error(s1_file, tmp_path, capsys):
    argv = ["sweep", s1_file, "--param", "market.M", "--start=-inf", "--stop=inf",
            "--steps", "3", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep range") and "Traceback" not in err


def _never(*args):
    raise AssertionError("called past a count's ceiling")


@pytest.mark.parametrize("steps", [10**12, 10**400], ids=["1e12", "1e400"])
def test_sweep_step_count_has_a_ceiling(steps, s1_file, tmp_path, capsys, monkeypatch):
    # 10**400 steps once ended in an OverflowError traceback (exit 1), and 10**12 would
    # have listed every value before the first solve; the count is checked before either
    monkeypatch.setattr(cli, "sweep_values", _never)
    argv = ["sweep", s1_file, "--param", "market.M", "--start", "1", "--stop", "2",
            "--steps", str(steps), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep step count must be at most 100000, got ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("draws", [10**11, 10**400], ids=["1e11", "1e400"])
@pytest.mark.parametrize("command", [["simulate"], ["demand", "--verify"]], ids=lambda c: c[0])
def test_draw_count_has_a_ceiling(draws, command, tmp_path, capsys, monkeypatch):
    # the Monte-Carlo oracles list every chunk of draws before the first runs
    monkeypatch.setattr(oracles, "_map_parts", _never)
    path = tmp_path / "draws.cfg"
    path.write_text(S1_ONLY.replace("draws = 50000", f"draws = {draws}"))
    assert main(command + [str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "section [sim], key 'draws', line 12" in err and "draw count must be at most 1e+10" in err
    assert not (tmp_path / "run").exists()


# a --param that names no parameter to sweep, and the message that says so
MALFORMED_PARAMS = {
    "bogus": (S1_ONLY, "bogus", "unsupported sweep parameter 'bogus'; use market.M, "
              "service.<name>.c, service.<name>.N, service.<name>.r or bundle.gamma"),
    "unknown-service-wage": (S1_ONLY, "service.S9.c", "sweep references unknown service 'S9'"),
    "unknown-service-privacy": (S1_ONLY, "service.S9.r", "sweep references unknown service 'S9'"),
    "gamma-without-bundle": (S1_ONLY, "bundle.gamma",
                             "sweep over bundle.gamma needs a [bundle] section"),
    "market-of-two-services": (SB1[:SB1.index("[bundle]")] + "[sim]\nseed = 7\n", "market.M",
                               "scenario defines 2 services; pick one with --service"),
    "bundle-member-crowd": (SB1, "service.S1.N", "sweep over service.S1.N cannot change one "
                            "member's crowd size: bundled services share one"),
    "wage-outside-bundle": (SB1.replace("[bundle]", SB2[SB2.index("[service.S2]"):
                                                        SB2.index("[bundle]")] + "[bundle]"),
                            "service.S2.c", "sweep over service.S2.c re-optimizes the bundle, "
                            "which does not include service 'S2'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_PARAMS))
def test_malformed_sweep_param_is_validation_error(case, tmp_path, capsys):
    text, param, message = MALFORMED_PARAMS[case]
    path = tmp_path / "x.cfg"
    path.write_text(text)
    out = tmp_path / "run"
    argv = ["sweep", str(path), "--param", param, "--start", "1", "--stop", "2", "--steps", "2",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("rows, message", [
    ("A,x\nB,1\nA+B,3\n", "cannot parse 'x' as float (line 2)"),
    ("A,1\nB,1\nA,2\nA+B,3\n", "duplicate coalition 'A' (line 4)"),
], ids=["not-a-number", "repeated"])
def test_bad_coalition_row_names_its_line(tmp_path, capsys, rows, message):
    path = tmp_path / "coalitions.csv"
    path.write_text("coalition,value\n" + rows)
    assert main(["share", "--coalitions", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coalition file") and message in err


@pytest.mark.parametrize("text, tail", [
    ("player,value\nA,1\n", " must start with header 'coalition,value'"),
    ("coalition,value\nA,1\nB,1,2\n", ": expected two columns per row (line 3)"),
], ids=["header", "column-count"])
def test_malformed_coalition_file_is_validation_error(tmp_path, capsys, text, tail):
    path = tmp_path / "coalitions.csv"
    path.write_text(text)
    assert main(["share", "--coalitions", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: coalition file {path}{tail}\n"


@pytest.mark.parametrize("argv, message", [
    (["share", "--values", "1,x,3"], "cannot parse --values '1,x,3' as comma-separated floats"),
    (["decide", "S1_FILE"], "this command needs a [bundle] section"),
], ids=["values-not-floats", "decide-without-bundle"])
def test_argument_the_command_cannot_use_is_validation_error(tmp_path, capsys, s1_file, argv,
                                                             message):
    argv = [s1_file if arg == "S1_FILE" else arg for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not (tmp_path / "run").exists()


_NOT_UTF8 = bytes.fromhex("fffe00626164")


@pytest.mark.parametrize("reader", ["scenario", "scenario-samples", "fit-samples", "coalitions"])
def test_file_that_is_not_utf8_exits_two_naming_it(reader, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_NOT_UTF8)
    scenario = tmp_path / "fit.cfg"
    scenario.write_text(S1_ONLY.replace(
        "alpha1 = 0.822\nalpha2 = 0.004\nalpha3 = 2.813", "samples = bad.bin"))
    argv = {"scenario": ["optimize", "separate", str(bad)],
            "scenario-samples": ["fit", str(scenario)],
            "fit-samples": ["fit", "--samples", str(bad)],
            "coalitions": ["share", "--coalitions", str(bad)]}[reader]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert f"{bad} is not UTF-8 text" in err


def _main_without_warnings(argv):
    """cli.main(argv) with every RuntimeWarning recorded; returns (exit code, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        code = main(argv)
    return code, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def test_subnormal_alpha2_caps_privacy_without_overflow(tmp_path, capsys):
    # max_privacy took log(alpha1/alpha2) = log(inf), and privacy_cap walked
    # down from r = 1 through exp overflows
    cfg = tmp_path / "subnormal.cfg"
    cfg.write_text((SHIPPED / "bundle_complements.cfg").read_text()
                   .replace("alpha2 = 0.001", "alpha2 = 5e-324")
                   .replace("alpha3 = 4.2", "alpha3 = 1e100"))
    out = tmp_path / "run"
    argv = ["optimize", "complement", str(cfg), "--out", str(out)]
    assert _main_without_warnings(argv) == (0, [])
    row = _read(out / "optimize.csv")[0]
    assert (row["r2_star"], row["clamped"]) == ("0", "r2") and math.isfinite(float(row["profit"]))


def test_sweep_past_the_zero_quality_point_warns_nothing(tmp_path, capsys):
    # exp(alpha3*r) overflows in evaluate_quality; the rows already named the error
    cfg = tmp_path / "steep.cfg"
    cfg.write_text((SHIPPED / "s1.cfg").read_text().replace("alpha3 = 2.813", "alpha3 = 1e99"))
    out = tmp_path / "run"
    argv = ["sweep", str(cfg), "--param", "service.S1.r", "--start", "0", "--stop", "1",
            "--steps", "3", "--out", str(out)]
    assert _main_without_warnings(argv) == (0, [])
    rows = _read(out / "sweep.csv")
    assert [row["error"] for row in rows] == [""] + 2 * [
        "service quality must be positive and finite, got -inf"]


def test_overflowing_quality_scale_exits_two_without_warnings(tmp_path, capsys):
    # with both alpha1 and gamma at 1e99, (1+gamma)^2*u1*u2 overflows and the
    # linear form divides inf by inf: each solve printed overflow and invalid-value
    # RuntimeWarnings before its NaN error
    cfg = tmp_path / "overflow.cfg"
    text = (SHIPPED / "bundle_complements.cfg").read_text()
    for old, new in (("alpha1 = 0.822", "alpha1 = 1e99"), ("alpha1 = 0.867", "alpha1 = 1e99"),
                     ("gamma = 0.1", "gamma = 1e99")):
        text = text.replace(old, new, 1)
    cfg.write_text(text)
    errors = {"paper": "objective produced NaN on the grid; domain is not valid",
              "exact": "bundle profit is NaN at privacy level 0.0; the scenario's magnitudes "
                       "overflow together"}
    runs = [([*command, str(cfg), "--demand-mode", mode], mode) for mode in errors
            for command in (["optimize", "complement"], ["decide"], ["verify"], ["simulate"])]
    runs.append((["demand", str(cfg), "--verify"], "paper"))
    for argv, mode in runs:
        assert _main_without_warnings([*argv, "--out", str(tmp_path / "run")]) == (2, []), argv
        assert capsys.readouterr().err == f"error: {errors[mode]}\n", argv
    assert not (tmp_path / "run").exists()


def test_profit_at_a_fee_overflowing_with_the_quality_scale_exits_two_without_warnings(
        tmp_path, capsys):
    # fee^2 and (1+gamma)^2*u1*u2 overflow together at the --at point: the analytic
    # profit was nan after overflow and invalid-value RuntimeWarnings, before the
    # Monte-Carlo error
    cfg = tmp_path / "overflow.cfg"
    text = (SHIPPED / "bundle_complements.cfg").read_text()
    for old, new in (("alpha1 = 0.822", "alpha1 = 1e100"), ("alpha1 = 0.867", "alpha1 = 1e100"),
                     ("gamma = 0.1", "gamma = 1e100")):
        text = text.replace(old, new, 1)
    cfg.write_text(text)
    for mode in ("paper", "exact"):
        argv = ["simulate", str(cfg), "--at", "0,0,1e200", "--demand-mode", mode,
                "--out", str(tmp_path / "run")]
        assert _main_without_warnings(argv) == (2, []), mode
        assert capsys.readouterr().err == ("error: bundle profit is NaN at fee 1e+200; "
                                           "the inputs' magnitudes overflow together\n")
    assert not (tmp_path / "run").exists()


def test_profit_at_qualities_whose_product_underflows_exits_two_without_warnings(
        tmp_path, capsys):
    # (1+gamma)^2*u1*u2 underflows to 0 at the --at point: the analytic profit was
    # nan after an invalid-value RuntimeWarning, and the command exited 0
    cfg = tmp_path / "underflow.cfg"
    text = (SHIPPED / "bundle_complements.cfg").read_text()
    for old, new in (("alpha1 = 0.822", "alpha1 = 1e-170"), ("alpha1 = 0.867", "alpha1 = 1e-170"),
                     ("alpha2 = 0.004", "alpha2 = 1e-180"), ("alpha2 = 0.001", "alpha2 = 1e-180"),
                     ("alpha3 = 2.813", "alpha3 = 50"), ("alpha3 = 4.2", "alpha3 = 50")):
        text = text.replace(old, new, 1)
    cfg.write_text(text)
    for mode in ("paper", "exact"):
        argv = ["simulate", str(cfg), "--at", "0,0,0", "--demand-mode", mode,
                "--out", str(tmp_path / "run")]
        assert _main_without_warnings(argv) == (2, []), mode
        assert capsys.readouterr().err == ("error: service qualities too small: "
                                           "(1+gamma)^2*u1*u2 or u1*u2 underflows to 0\n")
    assert not (tmp_path / "run").exists()


def test_exact_box_whose_cap_qualities_underflow_warns_nothing(tmp_path, capsys):
    # u1(cap)*u2(cap) underflows to 0 while (1+gamma)^2*u1*u2 does not, and
    # h*(2q - h) in the exact area with it: 0/0 at a corner of the box, whose
    # profits were evaluated without an error state
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("[market]\nM = 1000\n\n"
                   "[service.SA]\nN = 100\nc = 0.2\nalpha1 = 1e-100\nalpha2 = 1e-106\n"
                   "alpha3 = 10.0\n\n"
                   "[service.SB]\nN = 100\nc = 0.2\nalpha1 = 1e-243\nalpha2 = 1e-247\n"
                   "alpha3 = 1.0\n\n"
                   "[bundle]\nmembers = SA, SB\ngamma = 1e95\nkind = complement\n")
    argv = ["decide", str(cfg), "--demand-mode", "exact", "--out", str(tmp_path / "run")]
    assert _main_without_warnings(argv) == (2, [])
    assert capsys.readouterr().err == ("error: objective produced NaN on the grid; "
                                       "domain is not valid\n")


def test_exact_slice_past_the_interior_warns_nothing(tmp_path, capsys):
    # the exact rule squared every fee of a mixed slice, and fee*fee overflowed
    # at the points off the interior, whose values it then discarded
    cfg = tmp_path / "huge.cfg"
    text = (SHIPPED / "bundle_complements.cfg").read_text()
    for old, new in (("alpha1 = 0.822", "alpha1 = 1e99"), ("alpha2 = 0.004", "alpha2 = 7"),
                     ("gamma = 0.1", "gamma = 1e99")):
        text = text.replace(old, new, 1)
    cfg.write_text(text)
    out = tmp_path / "run"
    argv = ["optimize", "complement", str(cfg), "--demand-mode", "exact", "--out", str(out)]
    assert _main_without_warnings(argv) == (0, [])
    assert math.isfinite(float(_read(out / "optimize.csv")[0]["profit"]))
