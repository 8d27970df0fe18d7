"""Golden CLI outputs for the paths that pick a bundle or a single service.

Each case runs one command on a shipped scenario and compares the exit
code, stdout, stderr and the written CSV with text recorded from an
earlier release, so a change in how a command picks its market or builds
its row shows up as a byte difference.
"""
from pathlib import Path

import pytest

from privmarket.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

OPTIMIZE = "kind,target,r1_star,r2_star,p_star,profit,interior,fallback,clamped,oracle_delta\n"
SIMULATE = "target,r1,r2,p,mean,std_error,draws,analytic,abs_z\n"
VERIFY = ("kind,target,r1_star,r2_star,p_star,closed_profit,grid_profit,profit_delta,"
          "within_one_cell\n")
DEMAND = "kind,fee,u1,u2,gamma,paper_form,exact_geometry,mc_mean,mc_std_error\n"
SWEEP = "param,value,r1_star,r2_star,p_star,profit,data_cost,revenue,error\n"

# (argv with the scenario file name, exit code, CSV text or None, stderr)
CASES = {
    "optimize-separate-S3": (
        ["optimize", "separate", "bundle_complements.cfg", "--service", "S3"], 0,
        OPTIMIZE + "separate,S3,0.53661784,,0.428738095,209.735226,true,,,\n", ""),
    "optimize-complement-ignores-service": (
        ["optimize", "complement", "bundle_complements.cfg", "--service", "S3"], 0,
        OPTIMIZE + "complement,S1+S3,0.620411154,0.502271357,0.744012227,483.439088,true,false,,\n",
        ""),
    "simulate-at-service": (
        ["simulate", "s1.cfg", "--at", "0.3,0.35"], 0,
        SIMULATE + "S1,0.3,,0.35,185.19723,0.173548815,1000000,185.267562,0.405258224\n", ""),
    "simulate-at-bundle": (
        ["simulate", "bundle_complements.cfg", "--at", "0.5,0.6,0.9"], 0,
        SIMULATE + "S1+S3,0.5,0.6,0.9,448.93431,0.449946354,1000000,448.47309,1.02505606\n", ""),
    "simulate-at-wrong-arity": (
        ["simulate", "bundle_complements.cfg", "--at", "0.5,0.9"], 2, None,
        "error: --at needs exactly 3 comma-separated values\n"),
    "simulate-unknown-service": (
        ["simulate", "bundle_complements.cfg", "--service", "S9"], 2, None,
        "error: scenario defines no service named 'S9'\n"),
    "simulate-service-of-bundle": (
        ["simulate", "bundle_substitutes.cfg", "--service", "S2", "--seed", "3"], 0,
        SIMULATE + "S2,0.642645513,,0.406506179,196.079744,0.203482126,1000000,196.106,0.129032535\n",
        ""),
    "verify-substitute": (
        ["verify", "bundle_substitutes.cfg"], 0,
        VERIFY + "substitute,S1+S2,0.704040742,0.665019913,0.583576087,376.431938,376.416663,"
                 "0.0152740942,true\n", ""),
    "verify-service-of-bundle": (
        ["verify", "bundle_complements.cfg", "--service", "S1"], 0,
        VERIFY + "separate,S1,0.697291413,,0.396780306,192.335981,192.335153,0.000828607515,true\n",
        ""),
    "demand-service": (
        ["demand", "s1.cfg", "--fee", "0.2"], 0,
        DEMAND + "separate,0.2,0.793560611,,,0.747971362,0.747971362,,\n", ""),
    "demand-bundle-verify": (
        ["demand", "bundle_complements.cfg", "--fee", "0.9", "--verify", "--seed", "4"], 0,
        DEMAND + "complement,0.9,0.799091433,0.858755555,0.1,0.512242879,0.512508421,0.51344,"
                 "0.000499819334\n", ""),
    "sweep-fixed-privacy": (
        ["sweep", "s1.cfg", "--param", "service.S1.r", "--start", "0.1", "--stop", "0.9",
         "--steps", "3"], 0,
        SWEEP + "service.S1.r,0.1,0.1,,0.408350298,186.175149,18,204.175149,\n"
                "service.S1.r,0.5,0.5,,0.402836711,191.418355,10,201.418355,\n"
                "service.S1.r,0.9,0.9,,0.38585027,190.925135,2,192.925135,\n", ""),
    "sweep-service-wage": (
        ["sweep", "s1.cfg", "--param", "service.S1.c", "--start", "0.05", "--stop", "0.4",
         "--steps", "3"], 0,
        SWEEP + "service.S1.c,0.05,0.204474363,,0.407445076,199.74491,3.97762819,203.722538,\n"
                "service.S1.c,0.225,0.739162382,,0.395002844,191.632576,5.86884641,197.501422,\n"
                "service.S1.c,0.4,0.943699938,,0.382560611,189.028303,2.25200249,191.280306,\n",
        ""),
    "sweep-bundle-market": (
        ["sweep", "bundle_complements.cfg", "--param", "market.M", "--start", "500",
         "--stop", "1500", "--steps", "3"], 0,
        SWEEP + "market.M,500,0.863494276,0.669533628,0.729875557,237.257074,6.0347782,"
                "243.291852,\n"
                "market.M,1000,0.620411154,0.502271357,0.744012227,483.439088,12.5690633,"
                "496.008151,\n"
                "market.M,1500,0.477379954,0.404989583,0.748739194,732.336689,16.4025051,"
                "748.739194,\n", ""),
    "sweep-bundle-gamma": (
        ["sweep", "bundle_complements.cfg", "--param", "bundle.gamma", "--start", "0",
         "--stop", "0.4", "--steps", "3"], 0,
        SWEEP + "bundle.gamma,0,0.653960636,0.525186992,0.675086886,438.389006,11.6689174,"
                "450.057924,\n"
                "bundle.gamma,0.2,0.589756409,0.481368749,0.812938121,528.567563,13.3911843,"
                "541.958747,\n"
                "bundle.gamma,0.4,0.53539252,0.444374524,0.950791093,619.012325,14.8484043,"
                "633.860729,\n", ""),
    # sweep re-optimizes the bundle even when --service names one service
    "sweep-bundle-ignores-service": (
        ["sweep", "bundle_substitutes.cfg", "--service", "S1", "--param", "service.S2.c",
         "--start", "0.1", "--stop", "0.3", "--steps", "3"], 0,
        SWEEP + "service.S2.c,0.1,0.699346114,0.299656565,0.591617445,381.395118,13.0165121,"
                "394.41163,\n"
                "service.S2.c,0.2,0.704040742,0.665019913,0.583576087,376.431938,12.6187869,"
                "389.050724,\n"
                "service.S2.c,0.3,0.708734816,0.875799428,0.575641155,374.209449,9.55132084,"
                "383.76077,\n", ""),
    "verify-complement": (
        ["verify", "bundle_complements.cfg"], 0,
        VERIFY + "complement,S1+S3,0.620411154,0.502271357,0.744012227,483.439088,483.416765,"
                 "0.0223231749,true\n", ""),
    "optimize-separate-verified": (
        ["optimize", "separate", "s1.cfg", "--verify"], 0,
        OPTIMIZE + "separate,S1,0.697291413,,0.396780306,192.335981,true,,,0.000828607515\n", ""),
    "optimize-substitute": (
        ["optimize", "substitute", "bundle_substitutes.cfg"], 0,
        OPTIMIZE + "substitute,S1+S2,0.704040742,0.665019913,0.583576087,376.431938,true,true,,"
                   "0.0152740942\n", ""),
    "demand-negative-fee-service": (
        ["demand", "s1.cfg", "--fee", "-1"], 2, None,
        "error: fee must be nonnegative and finite, got -1.0\n"),
    "demand-negative-fee-bundle": (
        ["demand", "bundle_complements.cfg", "--fee", "-1"], 2, None,
        "error: fee must be nonnegative and finite, got -1.0\n"),
    "simulate-at-privacy-out-of-range": (
        ["simulate", "bundle_complements.cfg", "--at", "0.5,1.6,0.9"], 2, None,
        "error: privacy levels must lie in [0, 1]\n"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_recorded_text(case, tmp_path, capsys):
    argv, code, expected_csv, expected_err = CASES[case]
    argv = [str(SCENARIOS / a) if a.endswith(".cfg") else a for a in argv]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == expected_err
    if expected_csv is None:
        assert captured.out == ""
        assert not out.exists()
    else:
        assert captured.out == expected_csv
        assert (out / f"{argv[0]}.csv").read_text() == expected_csv
