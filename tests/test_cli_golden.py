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
