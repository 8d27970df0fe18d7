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

A service carries either the three curve parameters or a fit-samples CSV
path (relative paths resolve against the scenario file), never both.
Unknown sections or keys are rejected with the offending line number.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

from .bundle import BundleSpec
from .demand import MarketSpec
from .errors import DomainError, ScenarioError
from .oracles import SimulationSpec
from .quality import FitResult, QualityParams, fit_quality_curve, load_samples
from .separate import SeparateScenario, ServiceSpec

__all__ = ["LoadedScenario", "SweepSpec", "load_scenario", "sweep_values"]

_SECTION_KEYS = {
    "market": {"M"},
    "service": {"N", "c", "alpha1", "alpha2", "alpha3", "samples"},
    "bundle": {"members", "gamma", "kind"},
    "sim": {"draws", "seed", "sigma_z"},
}

_SIM_DEFAULTS = {"draws": 100_000, "seed": 0, "sigma_z": 1.0}


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
    """One swept parameter: dotted path plus an inclusive linear range."""

    param: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise DomainError(f"sweep needs at least 2 steps, got {self.steps}")
        if not (self.start <= self.stop):
            raise DomainError(f"sweep range must satisfy start <= stop, got [{self.start}, {self.stop}]")


def sweep_values(sweep: SweepSpec) -> list[float]:
    step = (sweep.stop - sweep.start) / (sweep.steps - 1)
    return [sweep.start + i * step for i in range(sweep.steps)]


def _parse_sections(path: str):
    sections: list[tuple[str, int, dict[str, tuple[str, int]]]] = []
    current = None
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
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


def _known_keys(section_name: str):
    base = section_name.split(".", 1)[0]
    return _SECTION_KEYS.get(base)


def _typed(section, key, entry, cast, check=None, describe=""):
    value, line_no = entry
    try:
        out = cast(value)
    except ValueError:
        raise ScenarioError(
            f"cannot parse {value!r} as {cast.__name__}", section=section, key=key, line=line_no
        ) from None
    if check is not None and not check(out):
        raise ScenarioError(
            f"value {out!r} out of range{': ' + describe if describe else ''}",
            section=section,
            key=key,
            line=line_no,
        )
    return out


def load_scenario(path: str) -> LoadedScenario:
    sections = _parse_sections(path)
    base_dir = os.path.dirname(os.path.abspath(path))

    market = None
    services: dict[str, ServiceSpec] = {}
    fits: dict[str, FitResult] = {}
    bundle_entry = None
    sim_entries = {}

    for name, line_no, entries in sections:
        allowed = _known_keys(name)
        if allowed is None:
            raise ScenarioError(f"unknown section [{name}]", line=line_no)
        for key, (value, key_line) in entries.items():
            if key not in allowed:
                raise ScenarioError("unknown key", section=name, key=key, line=key_line)
        if name == "market":
            if "M" not in entries:
                raise ScenarioError("missing key 'M'", section=name, line=line_no)
            m = _typed(name, "M", entries["M"], int, lambda v: v >= 1, "M >= 1")
            market = MarketSpec(m=m)
        elif name.startswith("service."):
            svc_name = name.split(".", 1)[1]
            if not svc_name:
                raise ScenarioError("service sections are [service.<name>]", line=line_no)
            if svc_name in services:
                raise ScenarioError(f"duplicate service {svc_name!r}", section=name, line=line_no)
            for required in ("N", "c"):
                if required not in entries:
                    raise ScenarioError(f"missing key '{required}'", section=name, line=line_no)
            n = _typed(name, "N", entries["N"], int, lambda v: v >= 1, "N >= 1")
            c = _typed(name, "c", entries["c"], float, lambda v: v >= 0, "c >= 0")
            has_alphas = any(k in entries for k in ("alpha1", "alpha2", "alpha3"))
            has_samples = "samples" in entries
            if has_alphas and has_samples:
                raise ScenarioError(
                    "give either alpha1..alpha3 or a samples path, not both",
                    section=name,
                    line=line_no,
                )
            if has_samples:
                sample_path = entries["samples"][0]
                if not os.path.isabs(sample_path):
                    sample_path = os.path.join(base_dir, sample_path)
                try:
                    fit = fit_quality_curve(load_samples(sample_path))
                except (DomainError, OSError) as exc:
                    raise ScenarioError(
                        f"cannot fit samples: {exc}", section=name, key="samples",
                        line=entries["samples"][1],
                    ) from exc
                fits[svc_name] = fit
                params = fit.params
            elif has_alphas:
                for k in ("alpha1", "alpha2", "alpha3"):
                    if k not in entries:
                        raise ScenarioError(f"missing key '{k}'", section=name, line=line_no)
                try:
                    params = QualityParams(
                        alpha1=_typed(name, "alpha1", entries["alpha1"], float),
                        alpha2=_typed(name, "alpha2", entries["alpha2"], float),
                        alpha3=_typed(name, "alpha3", entries["alpha3"], float),
                    )
                except DomainError as exc:
                    raise ScenarioError(str(exc), section=name, line=line_no) from exc
            else:
                raise ScenarioError(
                    "service needs alpha1..alpha3 or a samples path", section=name, line=line_no
                )
            try:
                services[svc_name] = ServiceSpec(quality=params, n=n, c=c)
            except DomainError as exc:
                raise ScenarioError(str(exc), section=name, line=line_no) from exc
        elif name == "bundle":
            bundle_entry = (line_no, entries)
        elif name == "sim":
            rules = {"draws": (int, lambda v: v >= 1), "seed": (int, lambda v: v >= 0),
                     "sigma_z": (float, lambda v: v >= 0)}
            sim_entries = {key: _typed(name, key, entries[key], *rules[key]) for key in entries}

    if market is None:
        raise ScenarioError("scenario needs a [market] section")
    if not services:
        raise ScenarioError("scenario needs at least one [service.<name>] section")

    bundle = None
    members = None
    if bundle_entry is not None:
        line_no, entries = bundle_entry
        for required in ("members", "gamma", "kind"):
            if required not in entries:
                raise ScenarioError(f"missing key '{required}'", section="bundle", line=line_no)
        raw_members = [sname.strip() for sname in entries["members"][0].split(",")]
        if len(raw_members) != 2 or raw_members[0] == raw_members[1]:
            raise ScenarioError(
                "members must name two distinct services",
                section="bundle",
                key="members",
                line=entries["members"][1],
            )
        for sname in raw_members:
            if sname not in services:
                raise ScenarioError(
                    f"bundle references unknown service {sname!r}",
                    section="bundle",
                    key="members",
                    line=entries["members"][1],
                )
        gamma = _typed("bundle", "gamma", entries["gamma"], float)
        kind = entries["kind"][0]
        try:
            bundle = BundleSpec(
                s1=services[raw_members[0]],
                s2=services[raw_members[1]],
                market=market,
                gamma=gamma,
                kind=kind,
            )
        except DomainError as exc:
            raise ScenarioError(str(exc), section="bundle", line=line_no) from exc
        members = (raw_members[0], raw_members[1])

    sim = SimulationSpec(**{**_SIM_DEFAULTS, **sim_entries})
    return LoadedScenario(
        market=market,
        services=services,
        bundle=bundle,
        bundle_members=members,
        sim=sim,
        fits=fits,
    )
