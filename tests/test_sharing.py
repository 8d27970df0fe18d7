import math
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from privmarket import (
    Allocation,
    CharacteristicFunction,
    DomainError,
    core_check,
    core_interval_two,
    shapley_allocation,
)


def _cf_from_weights(weights, synergy=0.0):
    players = tuple(f"p{i}" for i in range(len(weights)))
    values = {}
    for size in range(len(players) + 1):
        for combo in combinations(players, size):
            base = sum(weights[players.index(p)] for p in combo)
            bonus = synergy if len(combo) > 1 else 0.0
            values[frozenset(combo)] = base + bonus
    return CharacteristicFunction(players=players, values=values)


class TestShapley:
    def test_reference_two_player_split(self):
        cf = CharacteristicFunction.from_two_player(195.5, 206.02, 487.84, names=("S1", "S3"))
        alloc = shapley_allocation(cf)
        assert alloc["S1"] == pytest.approx(238.66, abs=1e-9)
        assert alloc["S3"] == pytest.approx(249.18, abs=1e-9)
        assert alloc.total() == pytest.approx(487.84, abs=1e-9)

    def test_symmetric_players_split_evenly(self):
        cf = CharacteristicFunction.from_two_player(3.0, 3.0, 10.0)
        alloc = shapley_allocation(cf)
        assert alloc["1"] == pytest.approx(5.0)
        assert alloc["2"] == pytest.approx(5.0)

    def test_additive_game_pays_weights(self):
        weights = [1.5, 2.5, 4.0]
        alloc = shapley_allocation(_cf_from_weights(weights))
        for i, w in enumerate(weights):
            assert alloc[f"p{i}"] == pytest.approx(w, abs=1e-9)

    def test_missing_coalition_rejected(self):
        with pytest.raises(DomainError):
            CharacteristicFunction(
                players=("a", "b"),
                values={frozenset(): 0.0, frozenset({"a"}): 1.0, frozenset({"a", "b"}): 3.0},
            )

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=5), st.floats(0.0, 50.0))
    def test_efficiency_and_symmetry_axioms(self, weights, synergy):
        cf = _cf_from_weights(weights, synergy)
        alloc = shapley_allocation(cf)
        assert alloc.total() == pytest.approx(cf.value(cf.players), abs=1e-9)
        # equal weights are symmetric players and must earn the same
        for i, wi in enumerate(weights):
            for j, wj in enumerate(weights):
                if wi == wj:
                    assert alloc[f"p{i}"] == pytest.approx(alloc[f"p{j}"], abs=1e-9)

    @settings(max_examples=40)
    @given(
        st.lists(st.floats(0.0, 100.0), min_size=2, max_size=4),
        st.lists(st.floats(0.0, 100.0), min_size=2, max_size=4),
    )
    def test_additivity_axiom(self, w_a, w_b):
        size = min(len(w_a), len(w_b))
        w_a, w_b = w_a[:size], w_b[:size]
        game_a = _cf_from_weights(w_a)
        game_b = _cf_from_weights(w_b)
        game_sum = _cf_from_weights([a + b for a, b in zip(w_a, w_b)])
        alloc_a = shapley_allocation(game_a)
        alloc_b = shapley_allocation(game_b)
        alloc_sum = shapley_allocation(game_sum)
        for i in range(size):
            key = f"p{i}"
            assert alloc_sum[key] == pytest.approx(alloc_a[key] + alloc_b[key], abs=1e-9)


class TestCore:
    def test_reference_allocation_in_core(self):
        cf = CharacteristicFunction.from_two_player(195.5, 206.02, 487.84, names=("S1", "S3"))
        verdict = core_check(cf, Allocation({"S1": 238.66, "S3": 249.18}))
        assert verdict.in_core
        assert verdict.violated_coalitions == ()

    def test_individual_rationality_violation(self):
        cf = CharacteristicFunction.from_two_player(195.5, 206.02, 487.84, names=("S1", "S3"))
        verdict = core_check(cf, Allocation({"S1": 100.0, "S3": 387.84}))
        assert not verdict.in_core
        assert frozenset({"S1"}) in verdict.violated_coalitions

    def test_group_rationality_violation(self):
        cf = CharacteristicFunction.from_two_player(195.5, 206.02, 487.84, names=("S1", "S3"))
        verdict = core_check(cf, Allocation({"S1": 238.66, "S3": 200.0}))
        assert not verdict.in_core
        assert frozenset({"S1", "S3"}) in verdict.violated_coalitions

    def test_player_mismatch_rejected(self):
        cf = CharacteristicFunction.from_two_player(1.0, 1.0, 3.0)
        with pytest.raises(DomainError):
            core_check(cf, Allocation({"1": 1.5, "x": 1.5}))


class TestCoreIntervalTwo:
    def test_reference_interval(self):
        lo, hi = core_interval_two(195.5, 206.02, 487.84)
        assert lo == pytest.approx(195.5)
        assert hi == pytest.approx(281.82, abs=1e-9)

    def test_degenerate_interval(self):
        assert core_interval_two(1.0, 1.0, 2.0) == (1.0, 1.0)

    def test_subadditive_game_has_empty_core(self):
        assert core_interval_two(1.0, 1.0, 1.5) is None

    @settings(max_examples=60)
    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(0.0, 300.0))
    def test_shapley_in_core_iff_interval_nonempty(self, v1, v2, v12):
        # stay clear of the knife edge where the deficit is below core tolerance
        assume(abs(v12 - (v1 + v2)) > 1e-6)
        cf = CharacteristicFunction.from_two_player(v1, v2, v12)
        alloc = shapley_allocation(cf)
        interval = core_interval_two(v1, v2, v12)
        verdict = core_check(cf, alloc, tol=1e-9)
        if interval is None:
            assert not verdict.in_core
        else:
            assert verdict.in_core
            lo, hi = interval
            mid = 0.5 * (lo + hi)
            assert alloc["1"] == pytest.approx(mid, abs=1e-9)

    @settings(max_examples=60)
    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(0.0, 200.0))
    def test_superadditive_shapley_always_in_core(self, v1, v2, surplus):
        cf = CharacteristicFunction.from_two_player(v1, v2, v1 + v2 + surplus)
        assert core_check(cf, shapley_allocation(cf)).in_core


@pytest.mark.parametrize("build, message", [
    (lambda: CharacteristicFunction(players=(), values={}),
     "player count must be in [1, 10], got 0"),
    (lambda: CharacteristicFunction(players=("a", "a"), values={}), "player names must be unique"),
    (lambda: CharacteristicFunction(players=("a",), values={frozenset(): 1.0, frozenset("a"): 2.0}),
     "the empty coalition must be worth 0, got 1.0"),
    # the coalition loop reaches the grand coalition too
    (lambda: CharacteristicFunction(players=("a", "b"),
                                    values={frozenset("a"): 1.0, frozenset("b"): 2.0}),
     "missing coalition value for ['a', 'b']"),
    (lambda: CharacteristicFunction.from_two_player(1.0, 2.0, 4.0).value({"1", "3"}),
     "unknown players ['3']"),
    (lambda: Allocation({"a": math.inf}), "payoff for 'a' must be finite, got inf"),
], ids=["no-players", "duplicate-names", "empty-coalition-worth", "no-grand-coalition",
        "unknown-player", "infinite-payoff"])
def test_invalid_game_raises_its_message(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message
