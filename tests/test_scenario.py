import math
import sys
from pathlib import Path

import pytest

from privmarket import ScenarioError, SweepSpec, load_scenario, sweep_values
from privmarket.errors import DomainError
from privmarket.scenario import MAX_STEPS

GOOD = """\
[market]
M = 1000

[service.S1]
N = 100
c = 0.2
alpha1 = 0.822
alpha2 = 0.004
alpha3 = 2.813

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

[sim]
draws = 5000
seed = 21
sigma_z = 0.5
"""


def _write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_full_scenario_loads(tmp_path):
    loaded = load_scenario(_write(tmp_path, GOOD))
    assert loaded.market.m == 1000
    assert set(loaded.services) == {"S1", "S3"}
    assert loaded.services["S1"].c == 0.2
    assert loaded.bundle is not None
    assert loaded.bundle.kind == "complement"
    assert loaded.bundle_members == ("S1", "S3")
    assert loaded.sim.draws == 5000
    assert loaded.sim.seed == 21
    assert loaded.sim.sigma_z == 0.5


def test_sim_defaults(tmp_path):
    text = GOOD.split("[sim]")[0]
    loaded = load_scenario(_write(tmp_path, text))
    assert loaded.sim.draws == 100_000
    assert loaded.sim.seed == 0
    assert loaded.sim.sigma_z == 1.0


def test_unknown_key_rejected_with_location(tmp_path):
    text = GOOD.replace("c = 0.2", "c = 0.2\nwage = 3")
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert "wage" in str(err.value)
    assert "line 7" in str(err.value)
    assert "service.S1" in str(err.value)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, GOOD + "\n[pricing]\nx = 1\n"))
    assert "pricing" in str(err.value)


def test_negative_wage_names_key(tmp_path):
    text = GOOD.replace("c = 0.2", "c = -0.2")
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert "'c'" in str(err.value)


def test_alphas_and_samples_conflict(tmp_path):
    text = GOOD.replace("alpha1 = 0.822", "alpha1 = 0.822\nsamples = q.csv")
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert "not both" in str(err.value)


def test_samples_path_resolves_and_fits(tmp_path):
    import numpy as np

    from privmarket import evaluate_quality
    from conftest import S1_PARAMS

    rows = ["r,quality"] + [
        f"{r},{evaluate_quality(float(r), S1_PARAMS)}" for r in np.linspace(0, 1, 11)
    ]
    (tmp_path / "s1.csv").write_text("\n".join(rows) + "\n")
    text = GOOD.replace(
        "alpha1 = 0.822\nalpha2 = 0.004\nalpha3 = 2.813", "samples = s1.csv"
    )
    loaded = load_scenario(_write(tmp_path, text))
    assert "S1" in loaded.fits
    assert loaded.services["S1"].quality.alpha1 == pytest.approx(0.822, abs=1e-6)


def test_bundle_member_must_exist(tmp_path):
    text = GOOD.replace("members = S1, S3", "members = S1, S9")
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert "S9" in str(err.value)


def test_bundle_kind_gamma_mismatch(tmp_path):
    text = GOOD.replace("gamma = 0.1", "gamma = -0.1")
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert "contingency" in str(err.value)


def test_mismatched_crowd_sizes_rejected(tmp_path):
    text = GOOD.replace("N = 100\nc = 0.1", "N = 50\nc = 0.1")
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert "crowd size" in str(err.value)


def test_duplicate_key_rejected(tmp_path):
    text = GOOD.replace("M = 1000", "M = 1000\nM = 500")
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert "duplicate" in str(err.value)


def test_garbled_line_reports_number(tmp_path):
    text = GOOD.replace("M = 1000", "M 1000")
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert "line 2" in str(err.value)


def test_sweep_spec_validation():
    SweepSpec(param="service.S1.c", start=0.0, stop=1.0, steps=2)
    with pytest.raises(DomainError):
        SweepSpec(param="service.S1.c", start=0.0, stop=1.0, steps=1)
    with pytest.raises(DomainError):
        SweepSpec(param="service.S1.c", start=1.0, stop=0.0, steps=5)
    with pytest.raises(DomainError):
        SweepSpec(param="service.S1.c", start=0.0, stop=1.0, steps=2.5)
    with pytest.raises(DomainError):
        SweepSpec(param="market.M", start=-math.inf, stop=math.inf, steps=3)
    with pytest.raises(DomainError):  # finite bounds, but the width overflows
        SweepSpec(param="market.M", start=-1e308, stop=1e308, steps=3)
    with pytest.raises(DomainError):  # the last value rounds past the largest float
        SweepSpec(param="market.M", start=0.0, stop=sys.float_info.max, steps=4)


def test_sweep_steps_have_a_ceiling():
    # checked before any arithmetic: 10**400 steps once overflowed the step width
    SweepSpec(param="market.M", start=1.0, stop=2.0, steps=MAX_STEPS)
    for steps, got in ((MAX_STEPS + 1, "100001"), (10**12, "1000000000000"), (10**400, "1e+400")):
        with pytest.raises(DomainError) as err:
            SweepSpec(param="market.M", start=1.0, stop=2.0, steps=steps)
        assert str(err.value) == f"sweep step count must be at most 100000, got {got}"


def test_sweep_values_inclusive():
    values = sweep_values(SweepSpec(param="bundle.gamma", start=0.0, stop=0.5, steps=6))
    assert values == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])


@pytest.mark.parametrize("section", ["service", "service.", "market.x", "sim.extra", "bundle.y"])
def test_misnamed_section_rejected_with_location(tmp_path, section):
    # each was once skipped unchecked: a [service] section with c = -3 loaded
    text = GOOD + f"\n[{section}]\nc = -3\n"
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert f"unknown section [{section}]" in str(err.value)
    assert f"line {GOOD.count(chr(10)) + 2}" in str(err.value)


@pytest.mark.parametrize("section, body", [
    ("market", "M = 500"),
    ("sim", "draws = 10"),
    ("bundle", "members = S1, S3\ngamma = 0.2\nkind = complement"),
    ("service.S1", "N = 100\nc = 0.3\nalpha1 = 0.8\nalpha2 = 0.1\nalpha3 = 1.0"),
], ids=["market", "sim", "bundle", "service.S1"])
def test_repeated_section_rejected(tmp_path, section, body):
    # a second [market], [sim] or [bundle] once replaced the first silently
    text = GOOD + f"\n[{section}]\n{body}\n"
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert "duplicate section" in str(err.value)
    assert f"section [{section}]" in str(err.value)
    assert f"line {GOOD.count(chr(10)) + 2}" in str(err.value)


@pytest.mark.parametrize("old, new, where", [
    ("M = 1000", "M = 1" + "0" * 160, "section [market], key 'M', line 2"),
    ("seed = 21", f"seed = {2**64}", "section [sim], key 'seed', line 25"),
    ("sigma_z = 0.5", "sigma_z = inf", "section [sim], key 'sigma_z', line 26"),
    ("draws = 5000", "draws = 100000000000", "section [sim], key 'draws', line 24"),
    ("N = 100", "N = 1" + "0" * 400, "section [service.S1], key 'N', line 5"),
    ("c = 0.2", "c = 1e200", "section [service.S1], key 'c', line 6"),
    ("alpha3 = 2.813", "alpha3 = -1", "section [service.S1], key 'alpha3', line 9"),
    ("alpha1 = 0.822", "alpha1 = 1e101", "section [service.S1], key 'alpha1', line 7"),
    ("kind = complement", "kind = bogus", "section [bundle], key 'kind', line 21"),
    ("alpha2 = 0.004", "alpha2 = 0.9", "section [service.S1], line 4"),
    ("gamma = 0.1", "gamma = -0.1", "section [bundle], line 18"),
], ids=["huge-M", "seed-2^64", "infinite-sigma_z", "huge-draws", "huge-N", "huge-c",
        "negative-alpha3", "huge-alpha1", "bogus-kind", "alpha2-over-alpha1", "gamma-outside-kind"])
def test_spec_errors_name_section_and_line(tmp_path, old, new, where):
    # each value passes the loader's own range rule but not the spec's check,
    # whose error once had no location, then only its section's line; a spec
    # now takes one key at a time, or checks a key's own rule at its line
    # first (alpha3 and kind once named the section's line), so the error
    # names that key's own line.  A rule of two keys (alpha1 > alpha2, the
    # kind's contingency window) names the section's line
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, GOOD.replace(old, new)))
    assert where in str(err.value)


# the loader's messages for text that is malformed or incomplete, each with
# the line, section or key it names
LOAD_ERRORS = {
    "empty-section-name": (GOOD.replace("[sim]", "[ ]"), "empty section name (line 23)"),
    "key-outside-section": ("M = 1000\n" + GOOD, "key outside any section (line 1)"),
    "empty-value": (GOOD.replace("M = 1000", "M ="),
                    "expected 'key = value' (section [market], line 2)"),
    "not-an-int": (GOOD.replace("M = 1000", "M = 1e3"),
                   "cannot parse '1e3' as int (section [market], key 'M', line 2)"),
    "missing-alpha": (GOOD.replace("alpha3 = 4.2\n", ""), "missing key 'alpha3'; give "
                      "alpha1..alpha3 or a samples path (section [service.S3], line 11)"),
    "missing-required-key": (GOOD.replace("N = 100\nc = 0.2\n", "c = 0.2\n"),
                             "missing key 'N' (section [service.S1], line 4)"),
    "no-market": (GOOD.replace("[market]\nM = 1000\n", ""), "scenario needs a [market] section"),
    "no-service": (GOOD[:GOOD.index("[service.S1]")] + GOOD[GOOD.index("[sim]"):],
                   "scenario needs at least one [service.<name>] section"),
    "repeated-member": (GOOD.replace("members = S1, S3", "members = S1, S1"),
                        "members must name two distinct services "
                        "(section [bundle], key 'members', line 19)"),
}


@pytest.mark.parametrize("case", list(LOAD_ERRORS))
def test_load_error_message_names_its_place(tmp_path, case):
    text, message = LOAD_ERRORS[case]
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert str(err.value) == message


def _readme_scenario_block():
    """The text of the README's ``ini`` example under "Scenario files"."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("```ini", lines.index("### Scenario files")) + 1
    return "\n".join(lines[start:lines.index("```", start)]) + "\n"


def test_readme_scenario_example_matches_shipped_file(tmp_path):
    shipped = Path(__file__).resolve().parent.parent / "scenarios" / "bundle_complements.cfg"
    documented = load_scenario(_write(tmp_path, _readme_scenario_block()))
    assert documented == load_scenario(str(shipped))
