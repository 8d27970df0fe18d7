import csv
import math
from pathlib import Path

import numpy as np
import pytest

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


# pairs of inputs that are each in range but overflow together, with the
# commands whose solve runs into the overflow; every other command exits 0
JOINT_OVERFLOW = {
    "alpha1-wage": ([("alpha1 = 0.822", "alpha1 = 1e100"), ("c = 0.2", "c = 1e100")],
                    {"optimize complement", "decide", "verify", "simulate", "share", "demand"}),
    "alpha1-gamma": ([("alpha1 = 0.822", "alpha1 = 1e100"), ("gamma = 0.1", "gamma = 1e100")],
                     {"optimize complement", "decide", "verify", "simulate", "share", "demand"}),
    "alpha3-wage": ([("alpha3 = 2.813", "alpha3 = 1e100"), ("c = 0.1", "c = 1e100")],
                    {"optimize complement", "decide", "verify", "simulate", "share", "demand"}),
    "alpha2-alpha3": ([("alpha2 = 0.004", "alpha2 = 1e-300"), ("alpha3 = 2.813", "alpha3 = 1e3")],
                      {"optimize separate", "decide", "share"}),
}


@pytest.mark.parametrize("pair", list(JOINT_OVERFLOW))
@pytest.mark.parametrize("command", [["optimize", "complement"], ["optimize", "separate"],
                                     ["decide"], ["verify"], ["simulate"], ["share"], ["demand"],
                                     ["sweep", "--param", "market.M", "--start", "500",
                                      "--stop", "1000", "--steps", "2"]],
                         ids=lambda c: "-".join(c[:2]) if c[0] == "optimize" else c[0])
def test_joint_overflow_is_a_validation_error(pair, command, tmp_path, capsys):
    edits, overflowing = JOINT_OVERFLOW[pair]
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
    if command[0] == "sweep" and pair != "alpha2-alpha3":
        # sweep reports a failed solve in the row, as for any validation error
        assert all("overflow together" in row["error"] for row in rows)
        return
    for row in rows:
        for cell in row.values():
            try:
                assert math.isfinite(float(cell))
            except ValueError:  # names, flags and empty cells
                pass


SHIPPED = Path(__file__).resolve().parent.parent / "scenarios"


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


def test_share_without_inputs_is_validation_error(tmp_path, capsys):
    assert main(["share", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: share needs")
    assert not (tmp_path / "run").exists()
