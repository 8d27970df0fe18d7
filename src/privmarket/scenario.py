"""Scenario files: sectioned key=value text describing one market setup.

Format (full-line # comments and blank lines ignored)::

    [market]
    M = 1000

    [service.S1]
    N = 100
    c = 0.2
    alpha1 = 0.822
    alpha2 = 0.004
    alpha3 = 2.813
    # or, instead of the three alphas:  samples = s1_quality.csv

    [bundle]
    members = S1, S3
    gamma = 0.1
    kind = complement

    [sim]
    draws = 1000000
    seed = 42
    sigma_z = 1.0

The section names are exactly [market], [service.<name>] (one section per
service), [bundle] and [sim]; [market] and at least one service are
required, and each section may appear only once.  A service carries
either the three curve parameters or a fit-samples CSV path (relative
paths resolve against the scenario file), never both.  Unknown sections
or keys are rejected with the offending line number, and every value
error names its section and line: the key's own where one key is at fault.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from .bundle import BundleSpec
from .demand import MarketSpec, _check_count
from .errors import DomainError, ScenarioError, _is_finite, _is_number, _read_text
from .oracles import SimulationSpec
from .quality import FitResult, QualityParams, fit_quality_curve, load_samples
from .separate import SeparateScenario, ServiceSpec

__all__ = ["LoadedScenario", "SweepSpec", "load_scenario", "sweep_values"]

# section -> ({key: (type, least allowed value or None)}, required keys)
_SCHEMA = {
    "market": ({"M": (int, 1)}, ("M",)),
    "service.<name>": ({"N": (int, 1), "c": (float, 0), "alpha1": (float, None),
                        "alpha2": (float, None), "alpha3": (float, None),
                        "samples": (str, None)}, ("N", "c")),
    "bundle": ({"members": (str, None), "gamma": (float, None), "kind": (str, None)},
               ("members", "gamma", "kind")),
    "sim": ({"draws": (int, 1), "seed": (int, 0), "sigma_z": (float, 0)}, ()),
}

_ALPHAS = ("alpha1", "alpha2", "alpha3")

# sweep_values lists every value before the first one is swept
MAX_STEPS = 100_000


@dataclass(frozen=True)
class LoadedScenario:
    market: MarketSpec
    services: dict[str, ServiceSpec]
    bundle: BundleSpec | None
    bundle_members: tuple[str, str] | None
    sim: SimulationSpec
    fits: dict[str, FitResult] = field(default_factory=dict)

    def separate(self, name: str) -> SeparateScenario:
        if name not in self.services:
            raise ScenarioError(f"scenario defines no service named {name!r}")
        return SeparateScenario(service=self.services[name], market=self.market)

    def single_service_name(self) -> str:
        if len(self.services) != 1:
            raise ScenarioError(
                f"scenario defines {len(self.services)} services; pick one with --service"
            )
        return next(iter(self.services))


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: dotted path plus an inclusive linear range of 2 to MAX_STEPS values."""

    param: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if not (_is_number(self.steps, int) and self.steps >= 2):
            raise DomainError(f"sweep needs an integer of at least 2 steps, got {self.steps!r}")
        _check_count(self.steps, "sweep step", MAX_STEPS)
        if not (_is_finite(self.start) and _is_finite(self.stop) and self.start <= self.stop):
            raise DomainError(
                f"sweep range must be finite with start <= stop, got [{self.start}, {self.stop}]"
            )
        step = (self.stop - self.start) / (self.steps - 1)
        if not math.isfinite(self.start + (self.steps - 1) * step):  # the largest value swept
            raise DomainError(f"sweep range [{self.start}, {self.stop}] overflows a float")


def sweep_values(sweep: SweepSpec) -> list[float]:
    step = (sweep.stop - sweep.start) / (sweep.steps - 1)
    return [sweep.start + i * step for i in range(sweep.steps)]


def _parse_sections(path: str):
    sections: list[tuple[str, int, dict[str, tuple[str, int]]]] = []
    current = None
    for line_no, raw in enumerate(_read_text(path, "scenario file").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ScenarioError("empty section name", line=line_no)
            current = (name, line_no, {})
            sections.append(current)
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value' or '[section]'", line=line_no)
        if current is None:
            raise ScenarioError("key outside any section", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ScenarioError("expected 'key = value'", section=current[0], line=line_no)
        if key in current[2]:
            raise ScenarioError("duplicate key", section=current[0], key=key, line=line_no)
        current[2][key] = (value, line_no)
    return sections


def _typed(section, key, entry, types):
    """An entry's value cast to its key's type and checked against its least value."""
    value, line_no = entry
    if key not in types:
        raise ScenarioError("unknown key", section=section, key=key, line=line_no)
    cast, least = types[key]
    try:
        out = cast(value)
    except ValueError:
        raise ScenarioError(
            f"cannot parse {value!r} as {cast.__name__}", section=section, key=key, line=line_no
        ) from None
    if least is not None and not out >= least:
        raise ScenarioError(
            f"value {out!r} out of range: {key} >= {least}", section=section, key=key, line=line_no
        )
    return out


def _make(section, line, build, *args, key=None, **kwargs):
    """build(*args, **kwargs); a DomainError or OSError becomes a ScenarioError at this line."""
    try:
        return build(*args, **kwargs)
    except (DomainError, OSError) as exc:
        raise ScenarioError(str(exc), section=section, key=key, line=line) from exc


def _quality(name, line_no, entries, values, base_dir):
    """A service's curve parameters and, for a samples path, the fit they came from."""
    if "samples" in values:
        if any(k in values for k in _ALPHAS):
            raise ScenarioError(
                "give either alpha1..alpha3 or a samples path, not both", section=name, line=line_no
            )
        path = os.path.join(base_dir, values["samples"])  # an absolute path stays as it is
        fit = _make(name, entries["samples"][1],
                    lambda: fit_quality_curve(load_samples(path)), key="samples")
        return fit.params, fit
    missing = [k for k in _ALPHAS if k not in values]
    if missing:
        raise ScenarioError(
            f"missing key '{missing[0]}'; give alpha1..alpha3 or a samples path",
            section=name, line=line_no,
        )
    return _make(name, line_no, QualityParams, **{k: values[k] for k in _ALPHAS}), None


def load_scenario(path: str) -> LoadedScenario:
    base_dir = os.path.dirname(os.path.abspath(path))
    seen = set()
    market = bundle_section = None
    services: dict[str, ServiceSpec] = {}
    fits: dict[str, FitResult] = {}
    sim = SimulationSpec(draws=100_000)  # what an absent [sim] key takes

    for name, line_no, entries in _parse_sections(path):
        head, _, service = name.partition(".")
        kind = "service.<name>" if head == "service" and service else name
        if kind not in _SCHEMA:
            raise ScenarioError(
                f"unknown section [{name}]; the sections are "
                + ", ".join(f"[{known}]" for known in _SCHEMA), line=line_no,
            )
        if name in seen:
            raise ScenarioError("duplicate section", section=name, line=line_no)
        seen.add(name)
        types, required = _SCHEMA[kind]
        values = {key: _typed(name, key, entry, types) for key, entry in entries.items()}
        for key in required:
            if key not in values:
                raise ScenarioError(f"missing key '{key}'", section=name, line=line_no)
        if kind == "market":
            market = _make(name, entries["M"][1], MarketSpec, m=values["M"], key="M")
        elif kind == "sim":
            for key, value in values.items():
                sim = _make(name, entries[key][1], replace, sim, key=key, **{key: value})
        elif kind == "bundle":  # built once every service is known
            bundle_section = (line_no, values, entries["members"][1])
        else:
            quality, fit = _quality(name, line_no, entries, values, base_dir)
            if fit is not None:
                fits[service] = fit
            svc = _make(name, entries["N"][1], ServiceSpec, quality, values["N"], 0.0, key="N")
            services[service] = _make(name, entries["c"][1], replace, svc, c=values["c"], key="c")

    if market is None:
        raise ScenarioError("scenario needs a [market] section")
    if not services:
        raise ScenarioError("scenario needs at least one [service.<name>] section")

    bundle = members = None
    if bundle_section is not None:
        line_no, values, members_line = bundle_section
        members = tuple(sname.strip() for sname in values["members"].split(","))
        if len(members) != 2 or members[0] == members[1]:
            raise ScenarioError("members must name two distinct services",
                                section="bundle", key="members", line=members_line)
        for sname in members:
            if sname not in services:
                raise ScenarioError(f"bundle references unknown service {sname!r}",
                                    section="bundle", key="members", line=members_line)
        bundle = _make("bundle", line_no, BundleSpec, s1=services[members[0]],
                       s2=services[members[1]], market=market,
                       gamma=values["gamma"], kind=values["kind"])

    return LoadedScenario(
        market=market,
        services=services,
        bundle=bundle,
        bundle_members=members,
        sim=sim,
        fits=fits,
    )
