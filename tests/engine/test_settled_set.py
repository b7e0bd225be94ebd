"""The engine's settled set: players it may skip must really be settled.

A player is *settled* when her memoised best response is still valid
(same view content token, same strategy) and not improving; rounds, the
certification sweep and the exactness check skip her.  The property under
test: after every round of every scheduler, after every ``set_strategy``
perturbation and after ``restore_profile``, each settled player's
:meth:`DynamicsEngine.cached_response` exists and is not improving — so
skipping her is exactly what activating her would have done.  For the
paper's two orderings the warm trajectories must also equal the seed
reference loop run cold from the perturbed profile.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamics import best_response_dynamics_reference
from repro.core.games import FULL_KNOWLEDGE, MaxNCG, SumNCG
from repro.engine.core import DynamicsEngine
from repro.engine.schedulers import SCHEDULERS
from repro.graphs.generators.trees import random_owned_tree
from repro.graphs.traversal import is_connected

SEED = 5


def assert_settled_invariant(engine: DynamicsEngine) -> None:
    for player in engine.settled_players:
        response = engine.cached_response(player)
        assert response is not None, f"settled player {player!r} has no valid memo"
        assert not response.is_improving, f"settled player {player!r} can improve"


def _observer(engine, round_index, changes):
    assert_settled_invariant(engine)


def _random_connected_move(engine: DynamicsEngine, rng: random.Random) -> bool:
    """Give a random player a random new strategy that keeps the network connected."""
    players = engine.state.players()
    for _ in range(10):
        player = rng.choice(players)
        others = [q for q in players if q != player]
        strategy = frozenset(q for q in others if rng.random() < 0.25)
        old = engine.state.strategy(player)
        if strategy == old:
            continue
        engine.set_strategy(player, strategy)
        if is_connected(engine.state.graph):
            return True
        engine.set_strategy(player, old)
    return False


@given(
    n=st.integers(min_value=4, max_value=10),
    instance_seed=st.integers(min_value=0, max_value=10_000),
    move_seed=st.integers(min_value=0, max_value=10_000),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    usage=st.sampled_from(["max", "sum"]),
    alpha=st.sampled_from([0.5, 2.0]),
    k=st.sampled_from([1, 2, FULL_KNOWLEDGE]),
    moves=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_settled_players_are_settled_after_every_round(
    n, instance_seed, move_seed, scheduler, usage, alpha, k, moves
):
    game = (MaxNCG if usage == "max" else SumNCG)(alpha, k=k)
    owned = random_owned_tree(n, seed=instance_seed)
    engine = DynamicsEngine(owned, game, scheduler=scheduler, seed=SEED)
    base_profile = engine.state.to_profile()
    engine.run(round_observer=_observer)
    assert_settled_invariant(engine)
    rng = random.Random(move_seed)
    for _ in range(moves):
        if not _random_connected_move(engine, rng):
            continue
        assert_settled_invariant(engine)
        shocked = engine.state.to_profile()
        # Reseed so a shuffled warm run draws the same orders as a cold one.
        engine.rng = random.Random(SEED)
        warm = engine.run(round_observer=_observer)
        assert_settled_invariant(engine)
        if scheduler in ("fixed", "shuffled"):
            cold = best_response_dynamics_reference(
                shocked, game, ordering=scheduler, seed=SEED
            )
            assert warm.final_profile == cold.final_profile
            assert warm.rounds == cold.rounds
            assert warm.converged == cold.converged
            assert warm.cycled == cold.cycled
            assert warm.total_changes == cold.total_changes
        if warm.converged:
            assert engine.certify().is_equilibrium
            assert len(engine.settled_players) == n
    engine.restore_profile(base_profile)
    assert_settled_invariant(engine)
    engine.run(round_observer=_observer)
    assert_settled_invariant(engine)


def test_set_strategy_evicts_mover_and_dirty_region():
    game = MaxNCG(2.0, k=2)
    engine = DynamicsEngine(random_owned_tree(12, seed=3), game)
    engine.run()
    assert engine.certify().is_equilibrium
    assert engine.settled_players == frozenset(engine.state.players())
    player = engine.state.players()[0]
    target = next(
        q for q in engine.state.players()
        if q != player and q not in engine.state.graph.neighbors(player)
    )
    engine.set_strategy(player, engine.state.strategy(player) | {target})
    evicted = frozenset(engine.state.players()) - engine.settled_players
    assert player in evicted and target in evicted
    # Far-away players keep their memo: a warm certify re-evaluates only the
    # evicted ones.
    before = engine.responses_computed
    engine.certify()
    assert engine.responses_computed - before <= len(evicted)
