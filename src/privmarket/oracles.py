"""Independent verification: dense grid maximization and Monte-Carlo simulation.

The grid oracle exhaustively evaluates a profit surface on a lattice and
is the cross-check for every closed-form maximizer.  The Monte-Carlo side
replays the market mechanics directly from their defining inequalities
(reservation-price draws, participant true/noisy coin flips) rather than
from any derived probability formula, so agreement is meaningful.

The grid runs on the calling thread in blocks of whole rows, at most
`_BLOCK` points (one row when a row is larger), so its memory stays
bounded.  The paper-form profit kernels allocate one full-size float64
array per block and finish it in place, and a block's values are freed
before the next block is evaluated, so each block reuses the last one's
memory: after a process's first grid no block faults pages in again.
The argmax pass over a block also finds a NaN.  The Monte-Carlo chunks
run on one thread per usable core (`_map_parts`).

Randomness uses counter-based Philox streams, one per fixed-size chunk of
draws; chunk sums are added in chunk order, so seeded bits do not depend
on the core count.  Only the true/noisy flips enter the profit, so no
noisy trace is formed; a bundle still draws its first service's trace
normals, because its second service's flips follow them in the stream.

The oracles import no market: each market module owns its objective and
its certificate lattice (`separate.separate_grid`, `bundle.bundle_grid`),
and `simulate_market` reads a target only through the market interface
that `SeparateScenario` and `BundleSpec` share.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .demand import (COMPLEMENT, SUBSTITUTE, _check_contingency, _check_count, _check_fee,
                     _check_positive_quality, _check_privacy)
from .errors import DomainError, _is_finite, _is_number
from .quality import _quality

__all__ = [
    "GridSpec",
    "GridMaxResult",
    "grid_maximize",
    "SimulationSpec",
    "SimResult",
    "DemandRegion",
    "participant_reports",
    "simulate_market",
    "estimate_buy_probability",
]

_CHUNK = 1 << 17
_BLOCK = 1 << 16  # grid points per evaluation: at most 512 KiB per full-size float64 array
# at most ceil(MAX_DRAWS/_CHUNK) = 76,294 chunks, which _map_parts lists up front
MAX_DRAWS = 10**10
# what simulate_market reads of a target: the members SeparateScenario and BundleSpec share
_MARKET_INTERFACE = ("point_names", "services", "market", "kind", "gamma")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_parts(fn, parts) -> list:
    """[fn(part) for part in parts] on min(usable cores, len(parts)) threads,
    in part order; a part's exception is re-raised; one part runs inline.
    Only the Monte-Carlo chunks use it: their numpy kernels release the GIL."""
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
    """Per-dimension (lo, hi, count) closed ranges of the search lattice:
    finite real bounds, lo <= hi, and an integer count >= 2 (not a bool)."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        if not (isinstance(self.axes, (tuple, list)) and self.axes):
            raise DomainError("grid needs at least one axis")
        for axis in self.axes:
            # a bool is an int, but neither a bound nor a count
            if not (isinstance(axis, (tuple, list)) and len(axis) == 3) or bool in map(type, axis):
                raise DomainError(f"grid axis must be a (lo, hi, count) triple, got {axis!r}")
            lo, hi, count = axis
            if not (_is_finite(lo) and _is_finite(hi) and lo <= hi):
                raise DomainError(f"bad grid range [{lo}, {hi}]")
            if not _is_number(count, (int, np.integer)):
                raise DomainError(f"grid axis count must be an integer, got {count!r}")
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

    The objective must broadcast over numpy arrays.  Ties resolve to the
    lexicographically smallest index tuple (numpy's first flat argmax in C
    order), so the result does not depend on evaluation order.  The
    lattice is evaluated on the calling thread in blocks of whole rows of
    its first axis, at most `_BLOCK` points each (a block is one row when
    a row is larger), and a block's values are released before the next
    block runs, so one block's worth of memory is live at a time.  Block
    maxima are combined in index order, keeping the earlier one on a tie.
    numpy's argmax returns the first NaN, so a NaN in a block is its
    maximum and raises DomainError.
    """
    axes = [np.linspace(lo, hi, count) for lo, hi, count in grid.axes]
    first, *rest = np.meshgrid(*axes, indexing="ij", sparse=True)
    shape = tuple(len(ax) for ax in axes)
    row_size = math.prod(shape[1:])
    block_rows = max(1, _BLOCK // row_size)
    best_value, best_flat = -math.inf, 0
    for lo in range(0, shape[0], block_rows):
        hi = min(lo + block_rows, shape[0])
        values = np.asarray(objective(first[lo:hi], *rest), dtype=float)
        if values.shape != (hi - lo, *shape[1:]):
            values = np.broadcast_to(values, (hi - lo, *shape[1:]))
        flat = int(values.argmax())
        value = float(values.flat[flat])
        del values  # freed before the next block, whose objective then reuses the memory
        if math.isnan(value):  # argmax returns the first NaN, so the maximum shows it
            _check_no_nan(value)
        # only a strictly larger value replaces: the earliest block wins a tie
        if value > best_value:
            best_value, best_flat = value, lo * row_size + flat
    index = tuple(int(i) for i in np.unravel_index(best_flat, shape))
    return GridMaxResult(tuple(float(ax[i]) for ax, i in zip(axes, index)), best_value, index)


@dataclass(frozen=True)
class SimulationSpec:
    """Monte-Carlo controls: draw count, stream seed, trace noise scale.

    draws is an integer in [1, MAX_DRAWS].  sigma_z is validated but
    reaches no output of `simulate_market`.
    """

    draws: int
    seed: int = 0
    sigma_z: float = 1.0

    def __post_init__(self):
        _check_count(self.draws, "draw", MAX_DRAWS)
        if not (_is_number(self.seed, int) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        if not (_is_finite(self.sigma_z) and self.sigma_z >= 0):
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

    The target is a market: any object with the members of
    `_MARKET_INTERFACE`, as a single-service scenario and a bundle have; its
    kind, services, contingency and point names give the DemandRegion at
    the point; the point's length and privacy levels are checked here, its
    fee and qualities by the DemandRegion.  One chunk function then
    replays each draw: a customer reservation sample through the shared
    buy rule, then one participant true/noisy flip per service,
    contributing m*fee*bought - n*wage*true per service; the mean over
    draws is an unbiased estimate of the analytic profit.  Only the
    true-data mask enters the realized cost, so the noisy trace of
    `participant_reports` is not formed and `sim.sigma_z` reaches no
    output; a bundle still draws its first service's two trace normals per
    participant, because the second service's flips follow them in the
    chunk's stream.  Chunks run on one thread per usable core and their
    sums are added in chunk order, so the result does not depend on the
    core count.
    """
    if not all(hasattr(target, name) for name in _MARKET_INTERFACE):
        raise DomainError(f"cannot simulate target of type {type(target).__name__}")
    services = target.services
    if len(point) != len(target.point_names):
        raise DomainError(f"{target.kind} point needs {len(target.point_names)} values "
                          f"{target.point_names}, got {len(point)}")
    *levels, fee = (float(v) for v in point)
    _check_privacy(*levels)
    qualities = [float(_quality(r, service.quality)) for r, service in zip(levels, services)]
    region = DemandRegion(target.kind, fee, *qualities, gamma=target.gamma)
    m, n = target.market.m, services[0].n

    def chunk_sums(chunk):
        index, k = chunk
        rng = _chunk_rng(sim.seed, index)
        # numpy's error state is per thread; sums out of float range raise below
        with np.errstate(over="ignore", invalid="ignore"):
            vals = m * fee * _bought(region, rng, k)
            for j, (r, service) in enumerate(zip(levels, services)):
                if j:
                    rng.standard_normal(2 * k)  # the first service's trace; these flips follow it
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
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise DomainError(f"Monte-Carlo profit out of floating-point range (mean {mean:g}, "
                          f"std_error {std_error:g}); the scenario's magnitudes overflow together")
    return SimResult(mean=mean, std_error=std_error, draws=sim.draws)


def estimate_buy_probability(region: DemandRegion, sim: SimulationSpec) -> SimResult:
    """Direct Monte-Carlo estimate of one buy probability from the raw rule."""
    def chunk_hits(chunk):
        index, k = chunk
        return int(np.count_nonzero(_bought(region, _chunk_rng(sim.seed, index), k)))

    hits = sum(_map_parts(chunk_hits, _chunks(sim.draws)))
    p_hat = hits / sim.draws
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / sim.draws)
    return SimResult(mean=p_hat, std_error=std_error, draws=sim.draws)
