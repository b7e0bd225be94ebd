"""The cover-search kernels against a frozen copy of the original search.

``_reference_branch_and_bound`` below is the branch-and-bound solver as it
stood before the kernels were reworked for speed (BLAS gains, fixed
per-element branching counts, vectorised candidate scans, a greedy
incumbent computed once on the residual instance): the greedy incumbent,
the ``upper_bound`` / ``warm_start`` seeding and the numpy recursion,
copied verbatim except for one added node counter (``nodes += 1`` on
entry to ``recurse``).  The rework must not change the search, so on every
instance each backend must return the oracle's exact ``(size,
selection)`` and expand exactly as many nodes as the oracle.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import available_backends
from repro.solvers.set_cover import (
    SetCoverInstance,
    _warm_positions,
    branch_and_bound_set_cover,
)

BACKENDS = available_backends()


def _reference_greedy(instance: SetCoverInstance) -> tuple[int, ...] | None:
    free, uncovered = instance.residual()
    coverage = instance.coverage[free][:, uncovered]
    remaining = np.ones(coverage.shape[1], dtype=bool)
    selected: list[int] = []
    while remaining.any():
        gains = (coverage & remaining).sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            return None
        selected.append(int(free[best]))
        remaining &= ~coverage[best]
    return tuple(selected)


def _reference_cover_search(coverage, order_by_size, best_size, best_selection):
    nodes = 0

    def recurse(remaining: np.ndarray, chosen: list[int]) -> None:
        nonlocal best_size, best_selection, nodes
        nodes += 1
        num_remaining = int(remaining.sum())
        if num_remaining == 0:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_selection = list(chosen)
            return
        if len(chosen) + 1 > best_size:
            return
        max_gain = int((coverage & remaining).sum(axis=1).max(initial=0))
        if max_gain == 0:
            return
        lower = len(chosen) + int(np.ceil(num_remaining / max_gain))
        if lower >= best_size + 1:
            return
        # Most-constrained element: fewest candidates cover it.
        candidate_counts = coverage[:, remaining].sum(axis=0)
        target_positions = np.flatnonzero(remaining)
        local_target = int(np.argmin(candidate_counts))
        element = int(target_positions[local_target])
        covering = [int(c) for c in order_by_size if coverage[c, element]]
        for candidate in covering:
            if candidate in chosen:
                continue
            new_remaining = remaining & ~coverage[candidate]
            chosen.append(candidate)
            recurse(new_remaining, chosen)
            chosen.pop()

    recurse(np.ones(coverage.shape[1], dtype=bool), [])
    return best_size, best_selection, nodes


def _reference_branch_and_bound(
    instance: SetCoverInstance,
    upper_bound: int | None = None,
    warm_start: Sequence[int] | None = None,
) -> tuple[tuple[int, ...] | None, int]:
    """``(selection or None when infeasible, nodes)`` of the frozen search."""
    free, uncovered = instance.residual()
    if uncovered.size == 0:
        return (), 0
    coverage = instance.coverage[free][:, uncovered]
    if free.size == 0 or not bool(coverage.any(axis=0).all()):
        return None, 0
    num_free = coverage.shape[0]

    greedy = _reference_greedy(instance)
    best_size = len(greedy) if greedy is not None else num_free + 1
    if upper_bound is not None:
        best_size = min(best_size, upper_bound)
    best_selection: list[int] | None = (
        [int(np.flatnonzero(free == idx)[0]) for idx in greedy]
        if greedy is not None and len(greedy) <= best_size
        else None
    )
    if warm_start is not None:
        warm = _warm_positions(instance, free, warm_start)
        if warm is not None and len(warm) <= best_size:
            best_size = len(warm)
            best_selection = warm

    cover_sizes = coverage.sum(axis=1)
    order_by_size = np.argsort(-cover_sizes)
    best_size, best_selection, nodes = _reference_cover_search(
        coverage, order_by_size, best_size, best_selection
    )
    if best_selection is None:
        return None, nodes
    return tuple(int(free[idx]) for idx in best_selection), nodes


def _random_instance(rng: np.random.Generator, candidates: int, elements: int,
                     density: float, num_forced: int) -> SetCoverInstance:
    coverage = rng.random((candidates, elements)) < density
    forced = tuple(sorted(rng.choice(candidates, size=num_forced, replace=False)))
    return SetCoverInstance(coverage=coverage, forced=tuple(int(f) for f in forced))


@st.composite
def searched_instances(draw):
    """A random instance plus hints: no hint, a warm start (a feasible
    cover, or a random subset that may not be one) and an ``upper_bound``
    cap placed below, at or above the optimum."""
    candidates = draw(st.integers(min_value=1, max_value=18))
    elements = draw(st.integers(min_value=0, max_value=24))
    density = draw(st.floats(min_value=0.1, max_value=0.6))
    num_forced = draw(st.integers(min_value=0, max_value=min(2, candidates)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    instance = _random_instance(rng, candidates, elements, density, num_forced)
    optimum, _ = _reference_branch_and_bound(instance)
    warm_start = None
    warm_kind = draw(st.sampled_from(["none", "all_free", "optimum_plus", "random"]))
    free = [c for c in range(candidates) if c not in instance.forced]
    if warm_kind == "all_free":
        warm_start = tuple(free)
    elif warm_kind == "optimum_plus" and optimum is not None:
        extra = [c for c in free if c not in optimum][: draw(st.integers(0, 2))]
        warm_start = tuple(optimum) + tuple(extra)
    elif warm_kind == "random":
        warm_start = tuple(c for c in free if rng.random() < 0.5)
    upper_bound = None
    offset = draw(st.sampled_from([None, -2, -1, 0, 1, 2]))
    if offset is not None and optimum is not None:
        upper_bound = max(len(optimum) + offset, 0)
    return instance, upper_bound, warm_start


@given(searched_instances())
@settings(max_examples=300, deadline=None)
def test_every_backend_matches_the_oracle(case):
    instance, upper_bound, warm_start = case
    expected, oracle_nodes = _reference_branch_and_bound(instance, upper_bound, warm_start)
    node_counts = set()
    for name in BACKENDS:
        result = branch_and_bound_set_cover(
            instance, upper_bound=upper_bound, warm_start=warm_start, backend=name
        )
        assert result.feasible == (expected is not None), name
        if expected is not None:
            assert result.selected == expected, name
            assert result.objective == len(expected), name
        assert result.nodes == oracle_nodes, name
        node_counts.add(result.nodes)
    assert len(node_counts) == 1, node_counts


def test_search_heavy_instances_match_the_oracle():
    """Deeper searches than the drawn instances reach: the same selections
    and the same node count, instance by instance, on every backend."""
    rng = np.random.default_rng(20140623)
    for _ in range(30):
        instance = _random_instance(rng, 22, 36, 0.25, 0)
        expected, oracle_nodes = _reference_branch_and_bound(instance)
        for name in BACKENDS:
            result = branch_and_bound_set_cover(instance, backend=name)
            assert result.selected == (expected or ()), name
            assert result.nodes == oracle_nodes, name
