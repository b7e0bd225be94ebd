"""Tests for the limited-move (swap / greedy) variants and their dynamics."""

import math

import pytest

from repro.core.deviations import view_cost
from repro.core.dynamics import best_response_dynamics
from repro.core.equilibria import is_equilibrium
from repro.core.games import FULL_KNOWLEDGE, MaxNCG, SumNCG
from repro.core.strategies import StrategyProfile
from repro.core.swap import (
    LocalMoveDynamicsResult,
    Move,
    MoveKind,
    best_local_move,
    enumerate_greedy_moves,
    enumerate_swap_moves,
    greedy_dynamics,
    is_greedy_equilibrium,
    is_swap_equilibrium,
    local_move_dynamics,
    swap_dynamics,
)
from repro.core.views import extract_view
from repro.graphs.generators.classic import owned_cycle, owned_star
from repro.graphs.generators.trees import random_owned_tree


class TestMove:
    def test_apply_add(self):
        move = Move(player=0, kind=MoveKind.ADD, added=frozenset({3}), removed=frozenset())
        assert move.apply(frozenset({1})) == frozenset({1, 3})

    def test_apply_delete(self):
        move = Move(player=0, kind=MoveKind.DELETE, added=frozenset(), removed=frozenset({1}))
        assert move.apply(frozenset({1, 2})) == frozenset({2})

    def test_apply_swap(self):
        move = Move(player=0, kind=MoveKind.SWAP, added=frozenset({5}), removed=frozenset({1}))
        assert move.apply(frozenset({1, 2})) == frozenset({2, 5})


class TestMoveEnumeration:
    def test_swap_moves_preserve_edge_count(self, path_profile):
        game = MaxNCG(alpha=1.0, k=2)
        view = extract_view(path_profile, 1, game.k)
        strategy = path_profile.strategy(1)
        for move in enumerate_swap_moves(view, strategy):
            assert len(move.apply(strategy)) == len(strategy)
            assert move.kind == MoveKind.SWAP

    def test_greedy_moves_superset_of_swaps(self, path_profile):
        game = MaxNCG(alpha=1.0, k=2)
        view = extract_view(path_profile, 1, game.k)
        strategy = path_profile.strategy(1)
        swaps = set(enumerate_swap_moves(view, strategy))
        greedy = set(enumerate_greedy_moves(view, strategy))
        assert swaps <= greedy
        kinds = {move.kind for move in greedy}
        assert MoveKind.ADD in kinds
        assert MoveKind.DELETE in kinds

    def test_player_with_no_edges_has_no_swaps(self):
        profile = StrategyProfile.from_owned_graph(owned_star(5, center_owns=False))
        game = MaxNCG(alpha=1.0, k=2)
        view = extract_view(profile, 0, game.k)  # centre owns nothing
        assert list(enumerate_swap_moves(view, profile.strategy(0))) == []

    def test_moves_stay_inside_view(self, cycle_profile):
        game = MaxNCG(alpha=1.0, k=2)
        view = extract_view(cycle_profile, 0, game.k)
        strategy = cycle_profile.strategy(0)
        for move in enumerate_greedy_moves(view, strategy):
            for target in move.added:
                assert target in view.strategy_space


class TestBestLocalMove:
    def test_invalid_move_set_raises(self, path_profile):
        with pytest.raises(ValueError):
            best_local_move(path_profile, 0, MaxNCG(alpha=1.0, k=2), move_set="teleport")

    def test_no_improving_move_on_full_knowledge_star(self):
        # The centre-owned star is a NE of MaxNCG for alpha > 1, hence no
        # single move can improve either.
        profile = StrategyProfile.from_owned_graph(owned_star(6))
        game = MaxNCG(alpha=2.0)
        for player in profile:
            move, delta = best_local_move(profile, player, game)
            assert move is None
            assert delta == 0.0

    def test_leaf_star_alpha_small_leaf_wants_more_edges(self):
        # With alpha < 1 a leaf that owns its edge gains by buying more edges
        # (each new edge costs alpha and saves at least 1 in eccentricity
        # terms only if it shortens the farthest distance; use SumNCG where
        # each edge saves 1 per shortened vertex).
        profile = StrategyProfile.from_owned_graph(owned_star(6, center_owns=False))
        game = SumNCG(alpha=0.5)
        move, delta = best_local_move(profile, 1, game, move_set="greedy")
        assert move is not None
        assert move.kind == MoveKind.ADD
        assert delta < 0

    @pytest.mark.parametrize(
        ("game", "swap_cost", "greedy_cost"),
        [
            # Swap 0-1 for 0-3 (2α + distances 1, 1, 2) vs add 0-3 (3α + 1, 1, 1).
            (SumNCG(alpha=0.4), 2 * 0.4 + 4, 3 * 0.4 + 3),
            (MaxNCG(alpha=0.4), 2 * 0.4 + 2, 3 * 0.4 + 1),
        ],
    )
    def test_disconnected_strict_view_reconnects(self, game, swap_cost, greedy_cost):
        # Full knowledge over two components: the current cost is infinite,
        # so every reconnecting move improves (its ∆ is -inf, which is not a
        # forbidden move) and the cheapest one is chosen.
        profile = StrategyProfile({0: {1, 2}, 1: frozenset(), 2: {1}, 3: frozenset()})
        view = extract_view(profile, 0, game.k)
        for move_set, kind, cost in (
            ("swap", MoveKind.SWAP, swap_cost),
            ("greedy", MoveKind.ADD, greedy_cost),
        ):
            move, delta = best_local_move(profile, 0, game, move_set=move_set)
            assert move is not None and move.kind == kind and 3 in move.added
            assert delta == -math.inf
            assert view_cost(view, move.apply(profile.strategy(0)), game) == pytest.approx(cost)
        assert not is_swap_equilibrium(profile, game)
        assert not is_greedy_equilibrium(profile, game)

    def test_expensive_redundant_edge_deleted(self):
        # A redundant edge in a triangle is dropped when alpha is large.
        profile = StrategyProfile({0: {1, 2}, 1: {2}, 2: frozenset()})
        game = SumNCG(alpha=10.0)
        move, delta = best_local_move(profile, 0, game, move_set="greedy")
        assert move is not None
        assert move.kind == MoveKind.DELETE
        assert delta < 0

    def test_sum_forbidden_moves_not_selected(self):
        # Under local knowledge, deleting the only edge towards the frontier
        # is forbidden by Proposition 2.2 semantics (infinite worst case).
        profile = StrategyProfile.from_owned_graph(owned_cycle(8))
        game = SumNCG(alpha=100.0, k=2)
        for player in profile:
            move, _ = best_local_move(profile, player, game, move_set="greedy")
            if move is not None:
                # Any selected move must keep the frontier reachable: the
                # worst-case delta of a forbidden move is +inf and can never
                # be selected as an improvement.
                assert move.kind != MoveKind.DELETE


class TestEquilibriumPredicates:
    def test_center_owned_star_is_swap_and_greedy_equilibrium(self):
        profile = StrategyProfile.from_owned_graph(owned_star(6))
        game = MaxNCG(alpha=2.0)
        assert is_swap_equilibrium(profile, game)
        assert is_greedy_equilibrium(profile, game)

    def test_nash_implies_greedy_equilibrium(self, small_tree_profile):
        game = MaxNCG(alpha=3.0, k=2)
        result = best_response_dynamics(small_tree_profile, game, solver="branch_and_bound")
        assert result.converged
        final = result.final_profile
        assert is_equilibrium(final, game)
        # The LKE reached by unrestricted best responses is in particular
        # stable under the restricted move sets.
        assert is_greedy_equilibrium(final, game)
        assert is_swap_equilibrium(final, game)

    def test_cycle_is_swap_equilibrium_for_max(self):
        # In the cycle every swap keeps the degree sequence; for MaxNCG with
        # local knowledge k=1 the view is a path of length 2 and no swap
        # improves the in-view eccentricity.
        profile = StrategyProfile.from_owned_graph(owned_cycle(10))
        game = MaxNCG(alpha=2.0, k=1)
        assert is_swap_equilibrium(profile, game)

    def test_not_equilibrium_detected(self):
        # A path under SumNCG with tiny alpha: the endpoints profit from
        # buying an extra edge, so the profile is not a greedy equilibrium.
        profile = StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: frozenset()})
        game = SumNCG(alpha=0.1)
        assert not is_greedy_equilibrium(profile, game)


class TestLocalMoveDynamics:
    def test_greedy_dynamics_converges_on_tree(self):
        owned = random_owned_tree(12, seed=0)
        game = MaxNCG(alpha=2.0, k=3)
        result = greedy_dynamics(owned, game)
        assert isinstance(result, LocalMoveDynamicsResult)
        assert result.converged
        assert not result.cycled
        assert is_greedy_equilibrium(result.final_profile, game)

    def test_swap_dynamics_preserves_bought_edge_counts(self):
        owned = random_owned_tree(10, seed=1)
        initial = StrategyProfile.from_owned_graph(owned)
        game = MaxNCG(alpha=1.0, k=2)
        result = swap_dynamics(owned, game)
        final = result.final_profile
        for player in initial:
            assert initial.num_bought_edges(player) == final.num_bought_edges(player)

    def test_swap_final_profile_is_swap_equilibrium(self):
        owned = random_owned_tree(10, seed=2)
        game = MaxNCG(alpha=1.0, k=3)
        result = swap_dynamics(owned, game)
        assert result.converged
        assert is_swap_equilibrium(result.final_profile, game)

    def test_sum_greedy_dynamics(self):
        owned = random_owned_tree(10, seed=3)
        game = SumNCG(alpha=1.0, k=2)
        result = greedy_dynamics(owned, game)
        assert result.converged
        assert is_greedy_equilibrium(result.final_profile, game)

    def test_moves_by_kind_totals(self):
        owned = random_owned_tree(12, seed=4)
        game = SumNCG(alpha=0.5, k=3)
        result = greedy_dynamics(owned, game)
        assert sum(result.moves_by_kind.values()) == result.total_changes

    def test_round_metrics_collection(self):
        owned = random_owned_tree(8, seed=5)
        game = MaxNCG(alpha=2.0, k=2)
        result = greedy_dynamics(owned, game, collect_round_metrics=True)
        assert len(result.round_records) >= 1
        for record in result.round_records:
            assert record.metrics is not None
            assert record.metrics.num_players == 8

    def test_already_stable_input_takes_zero_rounds(self):
        profile = StrategyProfile.from_owned_graph(owned_star(6))
        game = MaxNCG(alpha=2.0)
        result = greedy_dynamics(profile, game)
        assert result.converged
        assert result.rounds == 0
        assert result.total_changes == 0

    def test_invalid_move_set_raises(self):
        owned = random_owned_tree(6, seed=6)
        with pytest.raises(ValueError):
            local_move_dynamics(owned, MaxNCG(alpha=1.0, k=2), move_set="jump")

    def test_invalid_ordering_raises(self):
        owned = random_owned_tree(6, seed=7)
        with pytest.raises(ValueError):
            greedy_dynamics(owned, MaxNCG(alpha=1.0, k=2), ordering="spiral")

    def test_invalid_initial_type_raises(self):
        with pytest.raises(TypeError):
            greedy_dynamics("not a profile", MaxNCG(alpha=1.0, k=2))

    def test_shuffled_ordering_still_converges(self):
        owned = random_owned_tree(10, seed=8)
        game = MaxNCG(alpha=2.0, k=2)
        result = greedy_dynamics(owned, game, ordering="shuffled", seed=42)
        assert result.converged

    def test_quality_accessor(self):
        owned = random_owned_tree(10, seed=9)
        game = MaxNCG(alpha=2.0, k=3)
        result = greedy_dynamics(owned, game)
        assert result.quality_of_equilibrium() >= 1.0 - 1e-9

    def test_greedy_quality_not_better_than_best_response_quality(self):
        # Restricted moves can only reach a superset of stable states, so on
        # the same instance the greedy dynamics should not *beat* the full
        # best-response dynamics by more than noise.  (Both must converge to
        # quality >= 1; this guards against metric mix-ups.)
        owned = random_owned_tree(12, seed=10)
        game = MaxNCG(alpha=2.0, k=3)
        greedy = greedy_dynamics(owned, game)
        full = best_response_dynamics(owned, game, solver="branch_and_bound")
        assert greedy.quality_of_equilibrium() >= 1.0 - 1e-9
        assert full.quality_of_equilibrium() >= 1.0 - 1e-9
