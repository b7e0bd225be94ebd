"""The numpy reference kernels — the bit-identity baseline.

These are the pure-Python-over-numpy hot loops the rest of the code base
was built on: the multi-source frontier expansion behind
:func:`repro.graphs.traversal.batched_bfs_distances` and the
branch-and-bound recursion behind
:func:`repro.solvers.set_cover.branch_and_bound_set_cover`.  Every other
backend is measured against this module: *bit-identical outputs, faster
machinery*.  The wrappers in the graph/solver layers own all argument
validation and corner cases; the kernels here assume validated inputs
(see :mod:`repro.kernels` for the exact contracts).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import MAX_EXPANSION_INCIDENCES, UNREACHABLE

__all__ = ["bfs", "bfs_reduce", "cover_search"]

#: Batches with ``len(sources) * n * n`` up to this bound run the dense BFS
#: (:func:`_dense_bfs`).  On tiny graphs — the reduced views behind every
#: best response — the chunked expansion's fixed cost per level dominates;
#: much larger products can start a threaded BLAS matrix product, whose
#: start-up costs more than it saves.  In a sweep of n from 16 to 1000 and
#: 1 to 128 sources (2-vCPU x86, OpenBLAS), dense was 1.3-13.5x faster at
#: every batch under the bound but one, n=512 with one source (0.74x, at
#: the bound itself).  Above it dense lost from n=300 on and once hit a
#: threaded-BLAS stall (n=128, 64 sources: 0.13x).
DENSE_BFS_MAX_PRODUCT: int = 1 << 18


def _dense_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    radius: int | None,
    dist: np.ndarray,
) -> np.ndarray:
    """Frontier BFS as one 0/1 matrix product per level (small graphs).

    Row ``i`` of the float32 frontier matrix holds source ``i``'s current
    level; multiplying by the adjacency matrix marks every neighbour of
    it (exact counts, far below ``2**24``), and the unvisited ones form
    the next level.  Same level sets as the chunked expansion, so the
    same distances.
    """
    n = len(indptr) - 1
    adjacency = np.zeros((n, n), dtype=np.float32)
    adjacency[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1
    row = np.arange(sources.size)
    dist[row, sources] = 0
    visited = np.zeros(dist.shape, dtype=bool)
    visited[row, sources] = True
    frontier = visited.astype(np.float32)
    level = 0
    while radius is None or level < radius:
        level += 1
        reached = (frontier @ adjacency) > 0
        reached &= ~visited
        if not reached.any():
            break
        dist[reached] = level
        visited |= reached
        frontier = reached.astype(np.float32)
    return dist


def bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    radius: int | None,
    dist: np.ndarray,
) -> np.ndarray:
    """Chunked multi-source frontier BFS (one numpy batch per level).

    All frontiers advance together: one level of every source's BFS is a
    batch of NumPy gather/scatter operations (``repeat`` to expand
    adjacency runs, a fancy-indexed visited test, ``unique`` to dedupe the
    next frontier), so the Python-level loop runs once per BFS *level*,
    not once per vertex.  Levels whose total incidence count exceeds
    :data:`~repro.kernels.common.MAX_EXPANSION_INCIDENCES` are expanded
    chunk by chunk, so the transient scratch stays bounded no matter how
    many sources run at once; the distance marks written by one chunk
    deduplicate the next chunk's rediscoveries, making the chunked
    expansion bit-identical to the monolithic one.

    When no frontier row holds more than one vertex, no two incidences of
    a level can produce the same (row, neighbour) pair — each row's
    candidates come from a single adjacency run of a simple graph — so the
    ``np.unique`` dedup sort is skipped outright (common on the sparse
    late-level frontiers of high-girth graphs; the level sets, and with
    them the output, are identical by construction).

    Small batches (``len(sources) * n * n <=``
    :data:`DENSE_BFS_MAX_PRODUCT`) take :func:`_dense_bfs` instead.
    """
    n = len(indptr) - 1
    num_sources = sources.size
    if num_sources * n * n <= DENSE_BFS_MAX_PRODUCT:
        return _dense_bfs(indptr, indices, sources, radius, dist)
    row = np.arange(num_sources, dtype=np.int32)
    dist[row, sources] = 0
    frontier_row = row
    frontier_node = sources.astype(np.int32)
    level = 0
    while frontier_node.size:
        level += 1
        if radius is not None and level > radius:
            break
        starts = indptr[frontier_node]
        counts = indptr[frontier_node + 1] - starts
        if int(counts.sum()) == 0:
            break
        cumulative = np.cumsum(counts)
        # One frontier vertex per row ⇒ per-row candidates are the
        # neighbours of a single vertex, which a simple graph never
        # duplicates — the unique pass below would be a no-op sort.
        rows_unique = bool(np.bincount(frontier_row).max(initial=0) <= 1)
        next_rows: list[np.ndarray] = []
        next_nodes: list[np.ndarray] = []
        chunk_start = 0
        while chunk_start < frontier_node.size:
            base = int(cumulative[chunk_start - 1]) if chunk_start else 0
            chunk_stop = int(
                np.searchsorted(
                    cumulative, base + MAX_EXPANSION_INCIDENCES, side="right"
                )
            )
            # Always advance by at least one frontier vertex, even when a
            # single vertex's adjacency run exceeds the expansion cap.
            chunk_stop = max(chunk_stop, chunk_start + 1)
            sub_counts = counts[chunk_start:chunk_stop]
            total = int(sub_counts.sum())
            if total == 0:
                chunk_start = chunk_stop
                continue
            # Flat positions of every (frontier vertex, neighbour) incidence
            # in this chunk: per frontier entry an arange(start, start +
            # count), vectorised.
            expanded_row = np.repeat(frontier_row[chunk_start:chunk_stop], sub_counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(sub_counts) - sub_counts, sub_counts
            )
            neighbours = indices[
                np.repeat(starts[chunk_start:chunk_stop], sub_counts) + offsets
            ].astype(np.int32)
            unvisited = dist[expanded_row, neighbours] == UNREACHABLE
            chunk_start = chunk_stop
            if not unvisited.any():
                continue
            expanded_row = expanded_row[unvisited]
            neighbours = neighbours[unvisited]
            if rows_unique:
                # No duplicates possible (see above): the visited test
                # against earlier chunks' marks was the whole dedup.
                new_row = expanded_row
                new_node = neighbours
            else:
                # The same (row, neighbour) pair can be produced by several
                # frontier vertices; keep one representative per pair.
                # Across chunks the distance marks just written do the
                # deduplication.
                _, first = np.unique(
                    expanded_row.astype(np.int64) * n + neighbours, return_index=True
                )
                new_row = expanded_row[first]
                new_node = neighbours[first]
            dist[new_row, new_node] = level
            next_rows.append(new_row)
            next_nodes.append(new_node)
        if not next_rows:
            break
        if len(next_rows) == 1:
            frontier_row, frontier_node = next_rows[0], next_nodes[0]
        else:
            frontier_row = np.concatenate(next_rows)
            frontier_node = np.concatenate(next_nodes)
    return dist


def bfs_reduce(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    radius: int | None,
    view_radius: int | None,
    ecc_out: np.ndarray,
    sum_out: np.ndarray,
    unreached_out: np.ndarray,
    view_size_out: np.ndarray,
) -> None:
    """Fused chunked frontier BFS + per-source statistics fold.

    The same level expansion as :func:`bfs`, but instead of writing an
    int32 distance row per source it folds every newly discovered level
    straight into the per-source scalars (eccentricity, finite-distance
    sum, unreached count, radius-``view_radius`` view size) with one
    ``np.bincount`` per expansion chunk.  The only per-node state is a
    boolean visited matrix — a quarter of the distance matrix's footprint
    and never exposed to the caller — so the statistics sweep stops
    materialising ``(len(sources), n)`` distance slices entirely.

    Bit-identity with materialise-then-fold is structural: the visited
    test ``~visited[row, node]`` marks exactly the entries the distance
    test ``dist[row, node] == UNREACHABLE`` would, so the discovered
    level sets — and therefore every fold — are identical.
    """
    n = len(indptr) - 1
    num_sources = sources.size
    visited = np.zeros((num_sources, n), dtype=bool)
    row = np.arange(num_sources, dtype=np.int32)
    visited[row, sources] = True
    ecc_out[:] = 0
    sum_out[:] = 0
    reached = np.ones(num_sources, dtype=np.int64)
    count_views = view_radius is not None
    # The source sits at distance 0 of itself: inside every view of
    # non-negative radius, outside a (degenerate) negative-radius one —
    # exactly the ``dist <= view_radius`` fold on materialised rows.
    view_size_out[:] = 1 if count_views and view_radius >= 0 else 0
    frontier_row = row
    frontier_node = sources.astype(np.int32)
    level = 0
    while frontier_node.size:
        level += 1
        if radius is not None and level > radius:
            break
        starts = indptr[frontier_node]
        counts = indptr[frontier_node + 1] - starts
        if int(counts.sum()) == 0:
            break
        cumulative = np.cumsum(counts)
        rows_unique = bool(np.bincount(frontier_row).max(initial=0) <= 1)
        in_view = count_views and level <= view_radius
        next_rows: list[np.ndarray] = []
        next_nodes: list[np.ndarray] = []
        chunk_start = 0
        while chunk_start < frontier_node.size:
            base = int(cumulative[chunk_start - 1]) if chunk_start else 0
            chunk_stop = int(
                np.searchsorted(
                    cumulative, base + MAX_EXPANSION_INCIDENCES, side="right"
                )
            )
            chunk_stop = max(chunk_stop, chunk_start + 1)
            sub_counts = counts[chunk_start:chunk_stop]
            total = int(sub_counts.sum())
            if total == 0:
                chunk_start = chunk_stop
                continue
            expanded_row = np.repeat(frontier_row[chunk_start:chunk_stop], sub_counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(sub_counts) - sub_counts, sub_counts
            )
            neighbours = indices[
                np.repeat(starts[chunk_start:chunk_stop], sub_counts) + offsets
            ].astype(np.int32)
            unvisited = ~visited[expanded_row, neighbours]
            chunk_start = chunk_stop
            if not unvisited.any():
                continue
            expanded_row = expanded_row[unvisited]
            neighbours = neighbours[unvisited]
            if rows_unique:
                new_row = expanded_row
                new_node = neighbours
            else:
                _, first = np.unique(
                    expanded_row.astype(np.int64) * n + neighbours, return_index=True
                )
                new_row = expanded_row[first]
                new_node = neighbours[first]
            visited[new_row, new_node] = True
            # The fused fold: this chunk's discoveries all sit at ``level``.
            discovered = np.bincount(new_row, minlength=num_sources).astype(np.int64)
            reached += discovered
            sum_out += discovered * level
            ecc_out[discovered > 0] = level
            if in_view:
                view_size_out += discovered
            next_rows.append(new_row)
            next_nodes.append(new_node)
        if not next_rows:
            break
        if len(next_rows) == 1:
            frontier_row, frontier_node = next_rows[0], next_nodes[0]
        else:
            frontier_row = np.concatenate(next_rows)
            frontier_node = np.concatenate(next_nodes)
    unreached_out[:] = n - reached


def cover_search(
    coverage: np.ndarray,
    order_by_size: np.ndarray,
    best_size: int,
    best_selection: list[int] | None,
) -> tuple[int, list[int] | None, int]:
    """The branch-and-bound set-cover recursion over the residual instance.

    Branches on the uncovered element with the fewest covering candidates
    (the most constrained element; candidates are counted over the whole
    free set, first minimum in element order), prunes with the incumbent
    handed in by the caller (greedy / warm-start seeded) and the simple
    lower bound ``ceil(#uncovered / max coverage size)``, and tries the
    candidates covering the branching element in ``order_by_size`` order.
    A chosen candidate covers no uncovered element, so it never covers the
    branching element and is never tried twice on one path.

    Returns the tightened ``(best_size, best_selection)`` incumbent —
    unchanged when the search proves nothing smaller exists — and the
    number of search nodes entered.
    """
    # ``remaining`` is a 0/1 float32 vector, so a coverage gain is one BLAS
    # matrix-vector product (exact: the counts stay far below 2**24) and a
    # child's vector one multiply by the candidate's complement row.
    weights = coverage.astype(np.float32)
    complements = (~coverage).astype(np.float32)
    # The branching rule counts every free candidate, so the per-element
    # counts never change during the search.
    element_counts = coverage.sum(axis=0)
    # Row ``e``: which candidates, by position in ``order_by_size``, cover e.
    covers_in_order = np.ascontiguousarray(coverage[order_by_size].T)
    chosen: list[int] = []
    nodes = 0

    def recurse(remaining: np.ndarray, num_remaining: int) -> None:
        nonlocal best_size, best_selection, nodes
        nodes += 1
        depth = len(chosen)
        if num_remaining == 0:
            if depth < best_size:
                best_size = depth
                best_selection = list(chosen)
            return
        if depth + 1 > best_size:
            return
        gains = weights @ remaining
        max_gain = int(np.maximum.reduce(gains, initial=0))
        if max_gain == 0:
            return
        lower = depth + -(-num_remaining // max_gain)  # ceil division
        if lower >= best_size + 1:
            return
        target_positions = np.flatnonzero(remaining)
        element = int(target_positions[np.argmin(element_counts[target_positions])])
        for candidate in order_by_size[covers_in_order[element]].tolist():
            chosen.append(candidate)
            # A candidate's gain is exactly what it removes from ``remaining``.
            recurse(remaining * complements[candidate], num_remaining - int(gains[candidate]))
            chosen.pop()

    recurse(np.ones(coverage.shape[1], dtype=np.float32), coverage.shape[1])
    # ``recurse`` refers to itself through its closure; clearing the name
    # breaks that cycle, so the scratch matrices above are freed here and
    # not at the next garbage collection.
    del recurse
    return best_size, best_selection, nodes
