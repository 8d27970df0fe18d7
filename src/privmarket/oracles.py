"""Independent verification: dense grid maximization and Monte-Carlo simulation.

The grid oracle exhaustively evaluates a profit surface on a lattice and
is the cross-check for every closed-form maximizer.  The Monte-Carlo side
replays the market mechanics directly from their defining inequalities
(reservation-price draws, participant true/noisy coin flips) rather than
from any derived probability formula, so agreement is meaningful.

Both oracles run their parts on one thread per usable core (`_map_parts`);
numpy releases the interpreter lock inside its array kernels.  The grid
is evaluated in slabs of at most `_SLAB` points along its first axis, so
memory stays bounded however large the grid.

Randomness uses counter-based Philox streams, one per fixed-size chunk of
draws; chunk sums are added in chunk order, so seeded bits do not depend
on the core count.  Only the true/noisy flips enter the profit, so no
noisy trace is formed; a bundle still draws its first service's trace
normals, because its second service's flips follow them in the stream.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .demand import (COMPLEMENT, SUBSTITUTE, _check_contingency, _check_fee,
                     _check_positive_quality, _check_privacy)
from .errors import DomainError

__all__ = [
    "GridSpec",
    "GridMaxResult",
    "grid_maximize",
    "separate_objective",
    "separate_grid",
    "bundle_objective",
    "bundle_grid",
    "SimulationSpec",
    "SimResult",
    "DemandRegion",
    "participant_reports",
    "simulate_market",
    "estimate_buy_probability",
]

_CHUNK = 1 << 17
_SLAB = 1 << 17


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_parts(fn, parts) -> list:
    """[fn(part) for part in parts] on min(usable cores, len(parts)) threads,
    in part order; a part's exception is re-raised; one part runs inline."""
    parts = list(parts)
    workers = min(_usable_cores(), len(parts))
    if workers <= 1:
        return [fn(part) for part in parts]
    # imported here: at module level it would add to every CLI start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, parts))


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension (lo, hi, points) closed ranges of the search lattice."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        if not self.axes:
            raise DomainError("grid needs at least one axis")
        for lo, hi, count in self.axes:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise DomainError(f"bad grid range [{lo}, {hi}]")
            if count < 2:
                raise DomainError(f"grid axes need at least 2 points, got {count}")


@dataclass(frozen=True)
class GridMaxResult:
    coords: tuple[float, ...]
    value: float
    index: tuple[int, ...]


def _check_no_nan(values):
    """A NaN among an objective's lattice values marks inputs outside its domain."""
    if np.isnan(values).any():
        raise DomainError("objective produced NaN on the grid; domain is not valid")


def grid_maximize(objective: Callable, grid: GridSpec) -> GridMaxResult:
    """Exhaustive lattice maximization with a deterministic tie-break.

    The objective must broadcast over numpy arrays and be safe to call
    from several threads at once.  Ties resolve to the
    lexicographically smallest index tuple (numpy's first flat argmax in C
    order), so the result does not depend on evaluation order.  The
    lattice is evaluated in slabs of whole rows along the first axis, at
    most `_SLAB` points each (one row when a row is larger), and the slab
    maxima are combined in slab order, keeping the earlier one on a tie.
    """
    axes = [np.linspace(lo, hi, count) for lo, hi, count in grid.axes]
    first, *rest = np.meshgrid(*axes, indexing="ij", sparse=True)
    row_shape = tuple(len(ax) for ax in axes[1:])
    rows = max(1, _SLAB // math.prod(row_shape))

    def slab_max(start):
        values = np.broadcast_to(
            np.asarray(objective(first[start : start + rows], *rest), dtype=float),
            (min(rows, len(axes[0]) - start), *row_shape),
        )
        _check_no_nan(values)
        index = np.unravel_index(int(np.argmax(values)), values.shape)
        return float(values[index]), (start + int(index[0]), *(int(i) for i in index[1:]))

    # max keeps the first of equal values: the earliest slab wins a tie
    value, index = max(_map_parts(slab_max, range(0, len(axes[0]), rows)), key=lambda s: s[0])
    return GridMaxResult(
        coords=tuple(float(axes[d][i]) for d, i in enumerate(index)),
        value=value,
        index=index,
    )


def separate_objective(scenario) -> Callable:
    from .separate import gross_profit_separate

    return lambda r, p: gross_profit_separate(scenario, r, p)


def separate_grid(scenario, r_points: int = 400, fee_points: int = 400) -> GridSpec:
    from .separate import privacy_cap

    cap = privacy_cap(scenario.service.quality)
    return GridSpec(axes=((0.0, cap, r_points), (0.0, scenario.service.quality.alpha1, fee_points)))


def bundle_objective(bundle, demand_mode=None) -> Callable:
    from .bundle import gross_profit_bundle
    from .demand import PAPER_FORM

    mode = demand_mode or PAPER_FORM
    return lambda r1, r2, p: gross_profit_bundle(bundle, r1, r2, p, mode)


def bundle_grid(bundle, points: int = 120, demand_mode=None) -> GridSpec:
    from .bundle import _fee_upper_bound
    from .demand import PAPER_FORM
    from .separate import privacy_cap

    mode = demand_mode or PAPER_FORM
    cap1 = privacy_cap(bundle.s1.quality)
    cap2 = privacy_cap(bundle.s2.quality)
    p_hi = _fee_upper_bound(bundle, mode)
    return GridSpec(axes=((0.0, cap1, points), (0.0, cap2, points), (0.0, p_hi, points)))


@dataclass(frozen=True)
class SimulationSpec:
    """Monte-Carlo controls: draw count, stream seed, trace noise scale.

    sigma_z is validated but reaches no output of `simulate_market`.
    """

    draws: int
    seed: int = 0
    sigma_z: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.draws, int) and self.draws >= 1):
            raise DomainError(f"draw count must be a positive integer, got {self.draws!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        if not (math.isfinite(self.sigma_z) and self.sigma_z >= 0):
            raise DomainError(f"sigma_z must be finite and >= 0, got {self.sigma_z}")


@dataclass(frozen=True)
class SimResult:
    mean: float
    std_error: float
    draws: int


@dataclass(frozen=True)
class DemandRegion:
    """Descriptor of one buy region for probability estimation.

    Rejects an unknown kind, a fee that is negative or not finite, a
    quality that is not positive and finite, and, for a bundle kind, a
    missing u2 or contingency or one outside the kind's window; the rules
    are the shared ones of `demand`.
    """

    kind: str  # "separate" | COMPLEMENT | SUBSTITUTE
    fee: float
    u1: float
    u2: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("separate", COMPLEMENT, SUBSTITUTE):
            raise DomainError(f"unknown region kind {self.kind!r}")
        _check_fee(self.fee)
        if self.kind == "separate":
            _check_positive_quality(self.u1)
            return
        if self.u2 is None or self.gamma is None:
            raise DomainError(f"{self.kind} region needs u2 and a contingency")
        _check_positive_quality(self.u1, self.u2)
        _check_contingency(self.kind, self.gamma)


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed).jumped(index))


def _chunks(draws: int):
    start = 0
    index = 0
    while start < draws:
        yield index, min(_CHUNK, draws - start)
        start += _CHUNK
        index += 1


def participant_reports(rng: np.random.Generator, count: int, r: float, sigma_z: float):
    """Emitted data of `count` participants at privacy level r.

    Each participant sends the true value with probability 1 - r and a
    noisy copy (additive Gaussian, scale sigma_z) otherwise.  Returns the
    emitted vector and the boolean true-data mask.
    """
    _check_privacy(r)
    true_mask = rng.random(count) >= r
    x = rng.standard_normal(count)
    z = rng.standard_normal(count)
    emitted = np.where(true_mask, x, x + sigma_z * z)
    return emitted, true_mask


def _bought(region: DemandRegion, rng: np.random.Generator, count: int) -> np.ndarray:
    """Buy mask of `count` customers drawn from rng: the one buy rule of every market.

    theta1 >= fee/u1 for a service; (1+gamma)(theta1*u1 + theta2*u2) > fee
    for a bundle, plus the corner strips theta_i >= fee/u_i for substitutes.
    """
    theta1 = rng.random(count)
    if region.kind == "separate":
        return theta1 >= region.fee / region.u1
    theta2 = rng.random(count)
    bought = (1.0 + region.gamma) * (theta1 * region.u1 + theta2 * region.u2) > region.fee
    if region.kind == SUBSTITUTE:
        bought |= (theta1 >= region.fee / region.u1) | (theta2 >= region.fee / region.u2)
    return bought


def simulate_market(target, point, sim: SimulationSpec) -> SimResult:
    """Monte-Carlo estimate of the expected gross profit at one decision point.

    The target is a market (a single-service scenario or a bundle); its
    kind, services, contingency and point names give the DemandRegion at
    the point; the point's privacy levels are checked here, its fee and
    qualities by the DemandRegion.  One chunk function then replays each draw: a customer
    reservation sample through the shared buy rule, then one participant
    true/noisy flip per service, contributing m*fee*bought - n*wage*true
    per service; the mean over draws is an unbiased estimate of the
    analytic profit.  Only the true-data mask enters the realized cost, so
    the noisy trace of `participant_reports` is not formed and
    `sim.sigma_z` reaches no output; a bundle still draws its first
    service's two trace normals per participant, because the second
    service's flips follow them in the chunk's stream.  Chunks run on one
    thread per usable core and their sums are added in chunk order, so
    the result does not depend on the core count.
    """
    from .bundle import BundleSpec
    from .quality import _quality
    from .separate import SeparateScenario

    if not isinstance(target, (SeparateScenario, BundleSpec)):
        raise DomainError(f"cannot simulate target of type {type(target).__name__}")
    services = target.services
    *levels, fee = (float(v) for v in point[: len(target.point_names)])
    _check_privacy(*levels)
    qualities = [float(_quality(r, service.quality)) for r, service in zip(levels, services)]
    region = DemandRegion(target.kind, fee, *qualities, gamma=target.gamma)
    m, n = target.market.m, services[0].n

    def chunk_sums(chunk):
        index, k = chunk
        rng = _chunk_rng(sim.seed, index)
        vals = m * fee * _bought(region, rng, k)
        for j, (r, service) in enumerate(zip(levels, services)):
            if j:
                rng.standard_normal(2 * k)  # the first service's trace, which these flips follow
            vals = vals - n * service.c * (rng.random(k) >= r)
        return float(vals.sum()), float((vals * vals).sum())

    total = 0.0
    total_sq = 0.0
    for chunk_total, chunk_sq in _map_parts(chunk_sums, _chunks(sim.draws)):
        total += chunk_total
        total_sq += chunk_sq
    mean = total / sim.draws
    if sim.draws > 1:
        var = max(total_sq - sim.draws * mean * mean, 0.0) / (sim.draws - 1)
        std_error = math.sqrt(var / sim.draws)
    else:
        std_error = 0.0
    return SimResult(mean=mean, std_error=std_error, draws=sim.draws)


def estimate_buy_probability(region: DemandRegion, sim: SimulationSpec) -> SimResult:
    """Direct Monte-Carlo estimate of one buy probability from the raw rule."""
    def chunk_hits(chunk):
        index, k = chunk
        return int(_bought(region, _chunk_rng(sim.seed, index), k).sum())

    hits = sum(_map_parts(chunk_hits, _chunks(sim.draws)))
    p_hat = hits / sim.draws
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / sim.draws)
    return SimResult(mean=p_hat, std_error=std_error, draws=sim.draws)
