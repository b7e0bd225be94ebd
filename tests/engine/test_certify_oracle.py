"""Exhaustive oracle for :meth:`DynamicsEngine.certify` on tiny games.

For random strategy profiles on at most six players, every player's whole
strategy space over her view-visible targets is enumerated and each
strategy checked with :func:`repro.core.deviations.is_improving_deviation`
— the paper's worst-case deviation rule with no solver in the loop.  The
engine's certificate must name exactly the players that have an improving
deviation, across MaxNCG and SumNCG, strict and tolerant costs, and
k ∈ {1, 2, full}.

The check runs on a fresh engine and again after warm ``set_strategy``
perturbations, where the engine answers most players from its settled set
(valid, non-improving memo entries) instead of re-evaluating them.
"""

from __future__ import annotations

import random
from itertools import chain, combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_models import TolerantCosts
from repro.core.deviations import is_improving_deviation
from repro.core.games import FULL_KNOWLEDGE, MaxNCG, SumNCG
from repro.core.strategies import StrategyProfile
from repro.core.views import extract_view
from repro.engine.core import DynamicsEngine


def _subsets(items):
    return chain.from_iterable(combinations(items, size) for size in range(len(items) + 1))


def oracle_improving_players(profile: StrategyProfile, game) -> set:
    """Players with at least one improving deviation, by enumeration."""
    improving = set()
    for player in profile.players():
        view = extract_view(profile, player, game.k)
        targets = sorted(node for node in view.subgraph.nodes() if node != player)
        current = profile.strategy(player)
        if any(
            is_improving_deviation(view, current, frozenset(candidate), game)
            for candidate in _subsets(targets)
        ):
            improving.add(player)
    return improving


def _random_strategies(n: int, rng: random.Random) -> dict[int, frozenset[int]]:
    density = rng.choice([0.2, 0.35, 0.5])
    return {
        player: frozenset(q for q in range(n) if q != player and rng.random() < density)
        for player in range(n)
    }


def _game(usage: str, alpha: float, k: float, tolerant: bool, n: int):
    make = MaxNCG if usage == "max" else SumNCG
    if tolerant:
        return make(alpha, k=k, cost_model=TolerantCosts(beta=float(2 * n)))
    return make(alpha, k=k)


def assert_certify_matches_oracle(engine: DynamicsEngine) -> None:
    profile = engine.state.to_profile()
    report = engine.certify()
    expected = oracle_improving_players(profile, engine.game)
    assert set(report.improving) == expected
    assert report.is_equilibrium == (not expected)
    assert report.checked_exactly | report.checked_heuristically == set(profile.players())
    # A stop-at-first sweep refutes exactly when the full one does.
    assert engine.certify(stop_at_first=True).is_equilibrium == (not expected)


@given(
    n=st.integers(min_value=2, max_value=6),
    profile_seed=st.integers(min_value=0, max_value=10**6),
    usage=st.sampled_from(["max", "sum"]),
    alpha=st.sampled_from([0.4, 1.0, 2.5]),
    k=st.sampled_from([1, 2, FULL_KNOWLEDGE]),
    tolerant=st.booleans(),
    perturbations=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=300, deadline=None)
def test_certify_matches_exhaustive_oracle(
    n, profile_seed, usage, alpha, k, tolerant, perturbations
):
    rng = random.Random(profile_seed)
    game = _game(usage, alpha, k, tolerant, n)
    engine = DynamicsEngine(
        StrategyProfile(_random_strategies(n, rng)), game, collect_metrics=False
    )
    assert_certify_matches_oracle(engine)
    for _ in range(perturbations):
        player = rng.randrange(n)
        others = [q for q in range(n) if q != player]
        engine.set_strategy(
            player, frozenset(q for q in others if rng.random() < 0.4)
        )
        assert_certify_matches_oracle(engine)


def test_oracle_sees_the_paper_star_and_cycle_cases():
    """Sanity of the oracle itself on two cases the paper settles."""
    star = StrategyProfile.star(range(5), center=0)
    assert oracle_improving_players(star, MaxNCG(2.0, k=2)) == set()
    # A 6-cycle at cheap edges: a player can buy a chord to the opposite
    # node and cut her eccentricity from 3 to 2.
    cycle = StrategyProfile({i: {(i + 1) % 6} for i in range(6)})
    assert oracle_improving_players(cycle, MaxNCG(0.5)) == set(range(6))
