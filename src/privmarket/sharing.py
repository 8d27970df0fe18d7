"""Cooperative division of a bundle's profit: Shapley values and the core.

A characteristic function maps every coalition of providers to the best
profit that coalition can earn on its own (standalone optima for
singletons, the bundle optimum for the grand coalition).  Coalitions are
small here, so all 2^K values are enumerated exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .errors import DomainError

__all__ = [
    "CharacteristicFunction",
    "Allocation",
    "CoreVerdict",
    "shapley_allocation",
    "core_check",
    "core_interval_two",
]

_MAX_PLAYERS = 10


@dataclass(frozen=True)
class CharacteristicFunction:
    """Coalition values over an ordered player set (exact enumeration, K <= 10)."""

    players: tuple[str, ...]
    values: Mapping[frozenset, float]

    def __post_init__(self):
        if not 1 <= len(self.players) <= _MAX_PLAYERS:
            raise DomainError(f"player count must be in [1, {_MAX_PLAYERS}], got {len(self.players)}")
        if len(set(self.players)) != len(self.players):
            raise DomainError("player names must be unique")
        values = {frozenset(k): float(v) for k, v in self.values.items()}
        empty = frozenset()
        if empty not in values:
            values[empty] = 0.0
        elif values[empty] != 0.0:
            raise DomainError(f"the empty coalition must be worth 0, got {values[empty]}")
        for size in range(len(self.players) + 1):
            for combo in combinations(self.players, size):
                if frozenset(combo) not in values:
                    raise DomainError(f"missing coalition value for {sorted(combo)}")
        object.__setattr__(self, "values", values)

    def value(self, coalition: Iterable[str]) -> float:
        key = frozenset(coalition)
        unknown = key - set(self.players)
        if unknown:
            raise DomainError(f"unknown players {sorted(unknown)}")
        return self.values[key]

    @classmethod
    def from_two_player(cls, v1: float, v2: float, v12: float, names=("1", "2")):
        a, b = names
        return cls(
            players=(a, b),
            values={frozenset(): 0.0, frozenset({a}): v1, frozenset({b}): v2, frozenset({a, b}): v12},
        )


@dataclass(frozen=True)
class Allocation:
    """One payoff per player."""

    payoffs: Mapping[str, float]

    def __post_init__(self):
        for player, value in self.payoffs.items():
            if not math.isfinite(value):
                raise DomainError(f"payoff for {player!r} must be finite, got {value}")
        object.__setattr__(self, "payoffs", dict(self.payoffs))

    def __getitem__(self, player: str) -> float:
        return self.payoffs[player]

    def total(self) -> float:
        return sum(self.payoffs.values())


@dataclass(frozen=True)
class CoreVerdict:
    in_core: bool
    violated_coalitions: tuple[frozenset, ...]


def shapley_allocation(cf: CharacteristicFunction) -> Allocation:
    """Exact Shapley value: ordering-averaged marginal contributions.

    payoff_k = sum over S not containing k of
               |S|! (K - |S| - 1)! / K! * (v(S + k) - v(S)).
    Efficiency (payoffs sum to the grand-coalition value) holds by
    construction up to rounding.
    """
    k_total = len(cf.players)
    fact = math.factorial
    payoffs = {}
    for player in cf.players:
        others = [q for q in cf.players if q != player]
        acc = 0.0
        for size in range(len(others) + 1):
            weight = fact(size) * fact(k_total - size - 1) / fact(k_total)
            for combo in combinations(others, size):
                coalition = frozenset(combo)
                acc += weight * (cf.value(coalition | {player}) - cf.value(coalition))
        payoffs[player] = acc
    return Allocation(payoffs=payoffs)


def core_check(cf: CharacteristicFunction, alloc: Allocation, tol: float = 1e-9) -> CoreVerdict:
    """Group rationality plus coalition rationality for every proper subset."""
    if set(alloc.payoffs) != set(cf.players):
        raise DomainError("allocation and characteristic function cover different players")
    violated = []
    if abs(alloc.total() - cf.value(cf.players)) > tol:
        violated.append(frozenset(cf.players))
    for size in range(1, len(cf.players)):
        for combo in combinations(cf.players, size):
            share = sum(alloc[player] for player in combo)
            if share < cf.value(combo) - tol:
                violated.append(frozenset(combo))
    return CoreVerdict(in_core=not violated, violated_coalitions=tuple(violated))


def core_interval_two(v1: float, v2: float, v12: float):
    """Two-player core as an interval for player 1's payoff.

    Returns (v1, v12 - v2), or None when the game is subadditive and the
    core is empty.  The Shapley point is the interval midpoint.
    """
    if v12 < v1 + v2:
        return None
    return (v1, v12 - v2)
