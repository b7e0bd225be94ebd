"""Minimum set cover with optional forced (zero-cost) sets.

An instance consists of a boolean coverage matrix ``cover[c, e]`` saying that
candidate ``c`` covers element ``e``, plus an optional list of candidates
that are *forced* into the solution and do not count towards the objective.
The objective is the number of non-forced candidates selected.  This is
exactly the structure of the paper's best-response subproblem: candidates are
potential edge targets, elements are the vertices that must end up within the
guessed eccentricity, and forced candidates are the neighbours whose edge
towards the player was bought by the *other* endpoint (the player cannot
remove it but also does not pay for it).

Three solvers with a common interface are provided; see the package
docstring for the rationale.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.kernels import KernelBackend, resolve_backend
from repro.obs.metrics import CounterFamily, default_registry

__all__ = [
    "SetCoverInstance",
    "SetCoverResult",
    "greedy_set_cover",
    "branch_and_bound_set_cover",
    "milp_set_cover",
    "solve_set_cover",
    "SOLVERS",
    "WARM_START_SOLVERS",
]

#: Solvers that actually consume ``warm_start`` / ``upper_bound`` hints.
#: ``milp`` (scipy's HiGHS front-end) exposes neither an incumbent-injection
#: hook nor an objective cutoff, and ``greedy`` rebuilds its cover from
#: scratch deterministically, so hints handed to either are dead weight —
#: :func:`solve_set_cover` warns loudly when an exact solver silently drops
#: them (greedy is exempt: an approximation has no search to prune).
WARM_START_SOLVERS: frozenset[str] = frozenset({"branch_and_bound"})

# Search-effort counter on the process default registry, bound lazily like
# the traversal layer's kernel counters.
_COVER_NODES: CounterFamily | None = None


def _cover_nodes_metric() -> CounterFamily:
    global _COVER_NODES
    if _COVER_NODES is None:
        _COVER_NODES = default_registry().counter(
            "repro_cover_nodes_total",
            help="Branch-and-bound set-cover search nodes expanded",
            labelnames=("backend",),
        )
    return _COVER_NODES


@dataclass
class SetCoverInstance:
    """A (possibly constrained) minimum set cover instance.

    Attributes
    ----------
    coverage:
        Boolean array of shape ``(num_candidates, num_elements)``.
    forced:
        Indices of candidates that are part of every feasible solution at no
        cost.
    candidate_labels / element_labels:
        Optional labels used to translate solutions back to the caller's
        domain (e.g. graph nodes).
    """

    coverage: np.ndarray
    forced: tuple[int, ...] = ()
    candidate_labels: list = field(default_factory=list)
    element_labels: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.coverage = np.asarray(self.coverage, dtype=bool)
        if self.coverage.ndim != 2:
            raise ValueError("coverage must be a 2-D boolean matrix")
        num_candidates = self.coverage.shape[0]
        if any(not 0 <= idx < num_candidates for idx in self.forced):
            raise ValueError("forced candidate index out of range")
        if self.candidate_labels and len(self.candidate_labels) != num_candidates:
            raise ValueError("candidate_labels length mismatch")
        if self.element_labels and len(self.element_labels) != self.coverage.shape[1]:
            raise ValueError("element_labels length mismatch")

    @property
    def num_candidates(self) -> int:
        return self.coverage.shape[0]

    @property
    def num_elements(self) -> int:
        return self.coverage.shape[1]

    def residual(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(free_candidates, uncovered_elements)`` after forced sets.

        ``free_candidates`` is an index array of non-forced candidates and
        ``uncovered_elements`` an index array of elements not covered by any
        forced candidate.
        """
        if not self.forced:
            return np.arange(self.num_candidates), np.arange(self.num_elements)
        forced = list(self.forced)
        free_mask = np.ones(self.num_candidates, dtype=bool)
        free_mask[forced] = False
        covered = self.coverage[forced].any(axis=0)
        return np.flatnonzero(free_mask), np.flatnonzero(~covered)

    def is_feasible_selection(self, selected: set[int]) -> bool:
        """Check that forced + selected candidates cover every element."""
        chosen = set(self.forced) | set(selected)
        if not chosen:
            return self.num_elements == 0
        mask = np.zeros(self.num_candidates, dtype=bool)
        mask[list(chosen)] = True
        return bool(self.coverage[mask].any(axis=0).all()) if self.num_elements else True


@dataclass(frozen=True)
class SetCoverResult:
    """Outcome of a set-cover solve.

    ``selected`` contains only the *paid* (non-forced) candidate indices;
    ``objective`` is ``len(selected)``.  ``optimal`` records whether the
    solver guarantees optimality (greedy does not).  ``feasible`` is False
    when no cover exists at all (some element covered by no candidate).
    ``nodes`` is the number of branch-and-bound search nodes the kernel
    expanded (0 for greedy, MILP and instances settled without a search).
    """

    selected: tuple[int, ...]
    objective: int
    optimal: bool
    feasible: bool
    solver: str
    nodes: int = 0

    def selected_labels(self, instance: SetCoverInstance) -> list:
        if not instance.candidate_labels:
            return list(self.selected)
        return [instance.candidate_labels[idx] for idx in self.selected]


def _infeasible(solver: str) -> SetCoverResult:
    return SetCoverResult(selected=(), objective=0, optimal=True, feasible=False, solver=solver)


def _residual_or_trivial(
    instance: SetCoverInstance, solver: str
) -> tuple[np.ndarray, np.ndarray, SetCoverResult | None]:
    """Slice the residual instance and settle its corner cases.

    Returns ``(free, coverage, trivial)``: the free candidate indices, the
    residual coverage matrix (free candidates x uncovered elements) and,
    when no search is needed (nothing left to cover, or an element no free
    candidate covers), the final result; otherwise ``trivial`` is ``None``
    and every residual element is coverable.
    """
    free, uncovered = instance.residual()
    coverage = instance.coverage.take(free, axis=0).take(uncovered, axis=1)
    if uncovered.size == 0:
        return free, coverage, SetCoverResult((), 0, True, True, solver)
    if not bool(coverage.any(axis=0).all()):
        return free, coverage, _infeasible(solver)
    return free, coverage, None


def _greedy_positions(coverage: np.ndarray) -> list[int]:
    """Greedy cover of a feasible residual instance, as row positions.

    Repeatedly takes the first row covering the most still-uncovered
    columns (``argmax`` tie-break).  Gains are float32 matrix-vector
    products of 0/1 entries, exact integers far below ``2**24``.
    """
    weights = coverage.astype(np.float32)
    remaining = np.ones(coverage.shape[1], dtype=np.float32)
    gains = weights.sum(axis=1)
    uncovered = coverage.shape[1]
    selected: list[int] = []
    while uncovered:
        best = int(gains.argmax())
        if gains[best] == 0:  # pragma: no cover - callers pass feasible instances
            raise ValueError("greedy cover of an infeasible residual instance")
        selected.append(best)
        uncovered -= int(gains[best])
        remaining[coverage[best]] = 0
        gains = weights @ remaining
    return selected


def _warm_positions(
    instance: SetCoverInstance,
    free: np.ndarray,
    warm_start: Sequence[int],
) -> list[int] | None:
    """Map a warm-start selection to positions in ``free``, or ``None``.

    A warm start is a set of *original* (non-forced) candidate indices that
    formed a feasible cover of an easier instance — typically the previous
    eccentricity guess's solution in the best-response ``h`` loop, where
    coverage grows monotonically so the old cover stays feasible.  Anything
    that fails validation (out-of-range/forced index, or no longer a cover)
    is silently ignored: a warm start is an optimisation hint, never a
    correctness input.
    """
    selection = {int(idx) for idx in warm_start}
    position_of = {int(original): pos for pos, original in enumerate(free)}
    if not selection or not selection.issubset(position_of):
        return None
    if not instance.is_feasible_selection(selection):
        return None
    return [position_of[idx] for idx in sorted(selection)]


def greedy_set_cover(
    instance: SetCoverInstance,
    upper_bound: int | None = None,
    warm_start: Sequence[int] | None = None,
    backend: str | KernelBackend | None = None,
) -> SetCoverResult:
    """Classical greedy ``H_n``-approximation: repeatedly pick the candidate
    covering the most still-uncovered elements.

    ``warm_start`` and ``upper_bound`` are accepted for interface uniformity
    and ignored: greedy rebuilds its cover from scratch deterministically.
    ``backend`` likewise: greedy has no kernel to accelerate.
    """
    free, coverage, trivial = _residual_or_trivial(instance, "greedy")
    if trivial is not None:
        return trivial
    selected = tuple(int(free[pos]) for pos in _greedy_positions(coverage))
    return SetCoverResult(selected, len(selected), False, True, "greedy")


def branch_and_bound_set_cover(
    instance: SetCoverInstance,
    upper_bound: int | None = None,
    warm_start: Sequence[int] | None = None,
    backend: str | KernelBackend | None = None,
) -> SetCoverResult:
    """Exact branch-and-bound solver, kernel-backed.

    Branches on the uncovered element with the fewest covering candidates
    (the most constrained element, first minimum in element order), tries
    the candidates covering it, largest coverage first, and prunes with

    * the best incumbent found so far (greedy, computed once on the
      residual instance, capped by ``upper_bound`` and tightened by a
      feasible ``warm_start`` selection; only strictly smaller covers
      replace it), and
    * the simple lower bound ``ceil(#uncovered / max coverage size)``.

    Greedy is not computed where it cannot end up as the incumbent: under
    a cap below the lower bound, and next to a warm start that meets the
    lower bound.  The search then starts from the same incumbent as it
    would with greedy, so it expands the same nodes.

    A warm start never changes the returned objective (the search still
    proves optimality); it only prunes earlier.  When the warm-start cover
    ties the greedy incumbent it is preferred, so repeated solves over a
    monotonically growing coverage (the best-response ``h`` loop) keep
    returning the same selection until a strictly smaller cover appears.

    The recursion itself runs on the selected kernel backend
    (:mod:`repro.kernels`); incumbent seeding, candidate ordering and the
    residual-instance setup stay here, so every backend searches the same
    tree with the same tie-breaks and returns the identical selection.

    Intended for the moderate instance sizes of the experiments (views of at
    most a few hundred vertices); cross-checked against the MILP solver in
    the test suite.
    """
    free, coverage, trivial = _residual_or_trivial(instance, "branch_and_bound")
    if trivial is not None:
        return trivial

    cover_sizes = coverage.sum(axis=1)
    # No cover, greedy's included, has fewer sets than this.
    lower = -(-coverage.shape[1] // int(cover_sizes.max()))
    warm = None if warm_start is None else _warm_positions(instance, free, warm_start)
    best_selection: list[int] | None
    if upper_bound is not None and upper_bound < lower:
        # Greedy's cover cannot sit under the cap, so it is not computed;
        # the search refutes the cap at its root.
        best_size, best_selection = upper_bound, None
    elif warm is not None and len(warm) == lower and (
        upper_bound is None or lower <= upper_bound
    ):
        # Greedy cannot beat a warm start at the lower bound, and a tie
        # keeps the warm start: it is the incumbent either way.
        best_size, best_selection = lower, warm
    else:
        greedy = _greedy_positions(coverage)
        best_size = len(greedy)
        if upper_bound is not None:
            best_size = min(best_size, upper_bound)
        best_selection = greedy if len(greedy) <= best_size else None
        if warm is not None and len(warm) <= best_size:
            best_size = len(warm)
            best_selection = warm

    order_by_size = np.argsort(-cover_sizes)

    kernel = resolve_backend(backend)
    best_size, best_selection, nodes = kernel.cover_search(
        coverage, order_by_size, best_size, best_selection
    )
    if best_selection is None:
        return SetCoverResult((), 0, True, False, "branch_and_bound", nodes)
    selected = tuple(int(free[idx]) for idx in best_selection)
    return SetCoverResult(selected, len(selected), True, True, "branch_and_bound", nodes)


def milp_set_cover(
    instance: SetCoverInstance,
    upper_bound: int | None = None,
    warm_start: Sequence[int] | None = None,
    backend: str | KernelBackend | None = None,
) -> SetCoverResult:
    """Exact solve through ``scipy.optimize.milp`` (HiGHS backend).

    Formulation: minimise ``sum_c x_c`` subject to
    ``sum_{c covers e} x_c >= 1`` for every residual element ``e``,
    ``x_c in {0, 1}``, over the non-forced candidates only (forced
    candidates are folded into the residual instance).

    ``scipy.optimize.milp`` exposes neither an incumbent-injection hook nor
    an objective cutoff, so ``warm_start``/``upper_bound`` are only
    forwarded to the branch-and-bound fallback taken on a HiGHS failure;
    use ``method="branch_and_bound"`` to actually exploit warm starts.
    """
    free, coverage, trivial = _residual_or_trivial(instance, "milp")
    if trivial is not None:
        return trivial
    from scipy import optimize, sparse

    num_free, num_elements = coverage.shape
    constraint_matrix = sparse.csr_matrix(coverage.T.astype(float))
    constraints = optimize.LinearConstraint(constraint_matrix, lb=np.ones(num_elements))
    integrality = np.ones(num_free)
    bounds = optimize.Bounds(lb=np.zeros(num_free), ub=np.ones(num_free))
    result = optimize.milp(
        c=np.ones(num_free),
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
    )
    if not result.success or result.x is None:
        # HiGHS failure on a feasible instance; fall back to branch and bound.
        return branch_and_bound_set_cover(
            instance, upper_bound=upper_bound, warm_start=warm_start, backend=backend
        )
    chosen = np.flatnonzero(np.round(result.x) >= 0.5)
    selected = tuple(int(free[idx]) for idx in chosen)
    return SetCoverResult(selected, len(selected), True, True, "milp")


#: Registry used by the experiment configuration and the solver ablation.
SOLVERS = {
    "milp": milp_set_cover,
    "branch_and_bound": branch_and_bound_set_cover,
    "greedy": greedy_set_cover,
}


def solve_set_cover(
    instance: SetCoverInstance,
    method: str = "milp",
    upper_bound: int | None = None,
    warm_start: Sequence[int] | None = None,
    backend: str | KernelBackend | None = None,
) -> SetCoverResult:
    """Dispatch to one of the registered solvers (``milp`` by default).

    ``warm_start`` optionally hands the solver a known-feasible selection of
    original candidate indices (e.g. the previous solve of a monotonically
    growing instance).  ``upper_bound`` is honoured by ``branch_and_bound``
    only, where it caps the incumbent: covers *larger* than it are never
    returned, an infeasible result means no cover within the cap exists,
    but a greedy or warm incumbent of exactly the cap size may be returned
    as-is.  ``greedy`` and ``milp`` ignore both hints and may return covers
    of any size, so callers that only profit from covers up to size ``T``
    must pass ``T + 1`` *and* re-check the returned objective regardless of
    method (the best-response loop's cost test does exactly that).  Hints
    never change a within-bound solution's objective.

    ``backend`` selects the kernel backend running the branch-and-bound
    recursion (see :mod:`repro.kernels`); all backends return bit-identical
    selections and node counts, so it is purely a speed knob.  The search
    nodes a solve expanded (:attr:`SetCoverResult.nodes`) are added to the
    ``repro_cover_nodes_total{backend}`` counter of the default registry.

    Passing hints to an exact solver that cannot consume them
    (``milp``) raises a :class:`RuntimeWarning`: the caller asked for a
    warm-started solve and would silently get cold re-solves instead.
    ``greedy`` stays quiet — it has no search to prune, so hints are
    meaningless rather than lost performance.
    """
    try:
        solver = SOLVERS[method]
    except KeyError as exc:
        raise ValueError(
            f"unknown solver {method!r}; available: {sorted(SOLVERS)}"
        ) from exc
    if (
        (warm_start is not None or upper_bound is not None)
        and method not in WARM_START_SOLVERS
        and method != "greedy"
    ):
        warnings.warn(
            f"set-cover solver {method!r} cannot consume warm_start/upper_bound "
            "hints (they are only honoured on its branch-and-bound fallback); "
            "use method='branch_and_bound' to exploit warm starts",
            RuntimeWarning,
            stacklevel=2,
        )
    result = solver(instance, upper_bound=upper_bound, warm_start=warm_start, backend=backend)
    if result.nodes:
        kernel = resolve_backend(backend)
        _cover_nodes_metric().labels(backend=kernel.name).inc(result.nodes)
    return result
