"""Numba JIT kernel backend (optional dependency).

Importing this module raises :class:`ImportError` when numba is not
installed; the registry in :mod:`repro.kernels` performs the import
lazily and falls back to the numpy reference silently, so a numba-free
environment never notices this file exists.  With numba present, both
hot loops run as ``nopython`` machine code:

* the chunked ``repeat``/``searchsorted``/``unique`` level expansion of
  the numpy BFS becomes one per-source queue loop over the CSR arrays
  (BFS distances are unique, so traversal order cannot change the
  output),
* the fused ``bfs_reduce`` runs an MS-BFS — 64 sources advance together
  through one level-synchronous sweep, frontiers packed into uint64
  bitmasks; its outputs are order-independent aggregates, so the batched
  traversal cannot change them — and
* the branch-and-bound set-cover recursion becomes an explicit-stack
  depth-first search replicating the reference's exact traversal order —
  most-constrained element by first minimum in element order, candidates
  in ``order_by_size`` order, strictly-smaller incumbent updates — so the
  selected covers, the search node counts and every warm-start tie-break
  are bit-identical.

Kernel contracts are documented in :mod:`repro.kernels`; argument
validation and corner cases live in the graph/solver wrappers.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange  # noqa: F401 - ImportError signals "backend unavailable"

from repro.kernels.common import UNREACHABLE

__all__ = ["bfs", "bfs_reduce", "cover_search", "make_bfs", "make_bfs_reduce"]


@njit(cache=True)
def _bfs_sources(indptr, indices, sources, radius, unreachable, dist, start, stop, queue):
    for s in range(start, stop):
        head = 0
        tail = 0
        src = sources[s]
        dist[s, src] = 0
        queue[tail] = np.int32(src)
        tail += 1
        while head < tail:
            node = queue[head]
            head += 1
            d = dist[s, node]
            if radius >= 0 and d >= radius:
                continue
            for e in range(indptr[node], indptr[node + 1]):
                nb = indices[e]
                if dist[s, nb] == unreachable:
                    dist[s, nb] = d + np.int32(1)
                    queue[tail] = np.int32(nb)
                    tail += 1


@njit(cache=True)
def _bfs_impl(indptr, indices, sources, radius, unreachable, dist):
    n = indptr.shape[0] - 1
    queue = np.empty(n, dtype=np.int32)
    _bfs_sources(
        indptr, indices, sources, radius, unreachable, dist, 0, sources.shape[0], queue
    )


@njit(cache=True, parallel=True)
def _bfs_parallel(indptr, indices, sources, radius, unreachable, dist, num_slabs):
    # Contiguous source slabs, one per prange iteration: each source's row
    # of ``dist`` is written by exactly one slab, so the result is
    # bit-identical to the serial loop no matter how slabs are scheduled.
    n = indptr.shape[0] - 1
    num_sources = sources.shape[0]
    slab = (num_sources + num_slabs - 1) // num_slabs
    for t in prange(num_slabs):
        start = t * slab
        stop = min(start + slab, num_sources)
        if start < stop:
            queue = np.empty(n, dtype=np.int32)
            _bfs_sources(
                indptr, indices, sources, radius, unreachable, dist, start, stop, queue
            )


# Branch-free trailing-zero count for the MS-BFS bit extraction: the
# isolated lowest set bit times this de Bruijn multiplier indexes the
# table (verified for all 64 single-bit words).
_CTZ_MULT = np.uint64(0x03F79D71B4CB0A89)
_CTZ_TABLE = np.array(
    [
        0, 1, 48, 2, 57, 49, 28, 3, 61, 58, 50, 42, 38, 29, 17, 4,
        62, 55, 59, 36, 53, 51, 43, 22, 45, 39, 33, 30, 24, 18, 12, 5,
        63, 47, 56, 27, 60, 41, 37, 16, 54, 35, 52, 21, 44, 32, 23, 11,
        46, 26, 40, 15, 34, 20, 31, 10, 25, 14, 19, 9, 13, 8, 7, 6,
    ],
    dtype=np.int64,
)


@njit(cache=True)
def _bfs_reduce_sources(
    indptr,
    indices,
    sources,
    radius,
    view_radius,
    unreachable,
    ecc_out,
    sum_out,
    unreached_out,
    view_size_out,
    start,
    stop,
    cur,
    nxt,
    visited,
):
    # MS-BFS (Then et al., VLDB 2015): 64 sources advance together, their
    # frontiers packed into one uint64 bitmask per node, so one level costs
    # O(m) word-ORs for the whole batch instead of one queue traversal per
    # source; per-source statistics fall out of the newly set bits at each
    # level.  Traversal order differs from the queue BFS, but the outputs
    # are order-independent aggregates of the unique distance function, so
    # they stay bit-identical to the numpy reference.  ``unreachable`` is
    # unused — kept for contract symmetry with ``bfs``.
    n = indptr.shape[0] - 1
    zero = np.uint64(0)
    one = np.uint64(1)
    cnt = np.empty(64, dtype=np.int64)
    ecc = np.empty(64, dtype=np.int64)
    total = np.empty(64, dtype=np.int64)
    in_view = np.empty(64, dtype=np.int64)
    reached = np.empty(64, dtype=np.int64)
    b = start
    while b < stop:
        batch = min(stop - b, 64)
        for v in range(n):
            cur[v] = zero
            visited[v] = zero
        for i in range(batch):
            src = sources[b + i]
            bit = one << np.uint64(i)
            cur[src] |= bit
            visited[src] |= bit
            ecc[i] = 0
            total[i] = 0
            reached[i] = 1
            in_view[i] = 1 if view_radius >= 0 else 0
        level = np.int64(0)
        nonempty = True
        while nonempty and (radius < 0 or level < radius):
            level += 1
            for v in range(n):
                nxt[v] = zero
            for v in range(n):
                w = cur[v]
                if w == zero:
                    continue
                for e in range(indptr[v], indptr[v + 1]):
                    nxt[indices[e]] |= w
            for i in range(64):
                cnt[i] = 0
            nonempty = False
            for v in range(n):
                fresh = nxt[v] & ~visited[v]
                cur[v] = fresh
                if fresh == zero:
                    continue
                visited[v] |= fresh
                nonempty = True
                while fresh != zero:
                    low = fresh & (zero - fresh)
                    cnt[_CTZ_TABLE[(low * _CTZ_MULT) >> np.uint64(58)]] += 1
                    fresh ^= low
            for i in range(batch):
                if cnt[i] == 0:
                    continue
                reached[i] += cnt[i]
                total[i] += cnt[i] * level
                ecc[i] = level
                if view_radius >= 0 and level <= view_radius:
                    in_view[i] += cnt[i]
        for i in range(batch):
            ecc_out[b + i] = ecc[i]
            sum_out[b + i] = total[i]
            unreached_out[b + i] = np.int64(n) - reached[i]
            view_size_out[b + i] = in_view[i]
        b += 64


@njit(cache=True)
def _bfs_reduce_impl(
    indptr,
    indices,
    sources,
    radius,
    view_radius,
    unreachable,
    ecc_out,
    sum_out,
    unreached_out,
    view_size_out,
):
    n = indptr.shape[0] - 1
    cur = np.empty(n, dtype=np.uint64)
    nxt = np.empty(n, dtype=np.uint64)
    visited = np.empty(n, dtype=np.uint64)
    _bfs_reduce_sources(
        indptr,
        indices,
        sources,
        radius,
        view_radius,
        unreachable,
        ecc_out,
        sum_out,
        unreached_out,
        view_size_out,
        0,
        sources.shape[0],
        cur,
        nxt,
        visited,
    )


@njit(cache=True, parallel=True)
def _bfs_reduce_parallel(
    indptr,
    indices,
    sources,
    radius,
    view_radius,
    unreachable,
    ecc_out,
    sum_out,
    unreached_out,
    view_size_out,
    num_slabs,
):
    n = indptr.shape[0] - 1
    num_sources = sources.shape[0]
    # Slab boundaries aligned to the 64-source MS-BFS batch width so every
    # slab works on full batches (any partition is bit-identical — each
    # source's outputs are independent of its batchmates — alignment just
    # avoids fragmenting batches).
    num_batches = (num_sources + 63) // 64
    slab = ((num_batches + num_slabs - 1) // num_slabs) * 64
    for t in prange(num_slabs):
        start = t * slab
        stop = min(start + slab, num_sources)
        if start < stop:
            # Per-slab scratch allocated inside the prange body: no thread-id
            # bookkeeping, no sharing, no ordering sensitivity.
            cur = np.empty(n, dtype=np.uint64)
            nxt = np.empty(n, dtype=np.uint64)
            visited = np.empty(n, dtype=np.uint64)
            _bfs_reduce_sources(
                indptr,
                indices,
                sources,
                radius,
                view_radius,
                unreachable,
                ecc_out,
                sum_out,
                unreached_out,
                view_size_out,
                start,
                stop,
                cur,
                nxt,
                visited,
            )


@njit(cache=True)
def _cover_search_impl(coverage, order_by_size, best_size, selection_out):
    num_free, num_elements = coverage.shape
    remaining_stack = np.empty((num_free + 2, num_elements), dtype=np.uint8)
    chosen = np.empty(num_free + 1, dtype=np.int32)
    pos_stack = np.empty(num_free + 2, dtype=np.int64)
    elem_stack = np.empty(num_free + 2, dtype=np.int64)
    # Branching counts every free candidate, so per-element counts are fixed.
    element_counts = np.zeros(num_elements, dtype=np.int64)
    for c in range(num_free):
        for e in range(num_elements):
            element_counts[e] += coverage[c, e]
    for e in range(num_elements):
        remaining_stack[0, e] = 1
    best_len = np.int64(-1)
    nodes = np.int64(0)
    depth = 0
    entering = True
    while depth >= 0:
        if entering:
            nodes += 1
            num_remaining = 0
            for e in range(num_elements):
                num_remaining += remaining_stack[depth, e]
            if num_remaining == 0:
                if depth < best_size:
                    best_size = depth
                    best_len = depth
                    for i in range(depth):
                        selection_out[i] = chosen[i]
                entering = False
                depth -= 1
                continue
            if depth + 1 > best_size:
                entering = False
                depth -= 1
                continue
            max_gain = 0
            for c in range(num_free):
                gain = 0
                for e in range(num_elements):
                    gain += coverage[c, e] & remaining_stack[depth, e]
                if gain > max_gain:
                    max_gain = gain
            if max_gain == 0:
                entering = False
                depth -= 1
                continue
            lower = depth + (num_remaining + max_gain - 1) // max_gain
            if lower >= best_size + 1:
                entering = False
                depth -= 1
                continue
            # Most-constrained element: fewest covering candidates, first
            # minimum in element order (matches numpy argmin).
            element = np.int64(-1)
            for e in range(num_elements):
                if remaining_stack[depth, e] == 0:
                    continue
                if element < 0 or element_counts[e] < element_counts[element]:
                    element = e
            elem_stack[depth] = element
            pos_stack[depth] = 0
        pushed = False
        pos = pos_stack[depth]
        element = elem_stack[depth]
        while pos < num_free:
            cand = order_by_size[pos]
            pos += 1
            # A chosen candidate covers no remaining element, so it never
            # covers the branching element.
            if coverage[cand, element] == 0:
                continue
            pos_stack[depth] = pos
            for e in range(num_elements):
                remaining_stack[depth + 1, e] = remaining_stack[depth, e] & (
                    1 - coverage[cand, e]
                )
            chosen[depth] = np.int32(cand)
            depth += 1
            entering = True
            pushed = True
            break
        if not pushed:
            entering = False
            depth -= 1
    return best_size, best_len, nodes


def bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    radius: int | None,
    dist: np.ndarray,
) -> np.ndarray:
    """Per-source queue BFS, JIT-compiled; same contract as numpy ``bfs``."""
    _bfs_impl(
        np.ascontiguousarray(indptr, dtype=np.int64),
        np.ascontiguousarray(indices, dtype=np.int64),
        np.ascontiguousarray(sources, dtype=np.int64),
        np.int64(-1 if radius is None else int(radius)),
        np.int32(UNREACHABLE),
        dist,
    )
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
    """Fused MS-BFS + fold, JIT-compiled; same contract as numpy ``bfs_reduce``."""
    _bfs_reduce_impl(
        np.ascontiguousarray(indptr, dtype=np.int64),
        np.ascontiguousarray(indices, dtype=np.int64),
        np.ascontiguousarray(sources, dtype=np.int64),
        np.int64(-1 if radius is None else int(radius)),
        np.int64(-1 if view_radius is None else int(view_radius)),
        np.int32(UNREACHABLE),
        ecc_out,
        sum_out,
        unreached_out,
        view_size_out,
    )


def make_bfs(threads: int):
    """Build the ``bfs`` kernel for ``threads`` (1 => the serial impl)."""
    if threads <= 1:
        return bfs

    def threaded_bfs(indptr, indices, sources, radius, dist):
        _bfs_parallel(
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64),
            np.ascontiguousarray(sources, dtype=np.int64),
            np.int64(-1 if radius is None else int(radius)),
            np.int32(UNREACHABLE),
            dist,
            np.int64(threads),
        )
        return dist

    return threaded_bfs


def make_bfs_reduce(threads: int):
    """Build the ``bfs_reduce`` kernel for ``threads`` (1 => the serial impl)."""
    if threads <= 1:
        return bfs_reduce

    def threaded_bfs_reduce(
        indptr,
        indices,
        sources,
        radius,
        view_radius,
        ecc_out,
        sum_out,
        unreached_out,
        view_size_out,
    ):
        _bfs_reduce_parallel(
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64),
            np.ascontiguousarray(sources, dtype=np.int64),
            np.int64(-1 if radius is None else int(radius)),
            np.int64(-1 if view_radius is None else int(view_radius)),
            np.int32(UNREACHABLE),
            ecc_out,
            sum_out,
            unreached_out,
            view_size_out,
            np.int64(threads),
        )

    return threaded_bfs_reduce


def cover_search(
    coverage: np.ndarray,
    order_by_size: np.ndarray,
    best_size: int,
    best_selection: list[int] | None,
) -> tuple[int, list[int] | None, int]:
    """Explicit-stack branch and bound; same contract as numpy ``cover_search``."""
    num_free = coverage.shape[0]
    selection_out = np.empty(num_free + 1, dtype=np.int32)
    found_size, found_len, nodes = _cover_search_impl(
        np.ascontiguousarray(coverage, dtype=np.uint8),
        np.ascontiguousarray(order_by_size, dtype=np.int64),
        np.int64(best_size),
        selection_out,
    )
    if found_len < 0:
        return best_size, best_selection, int(nodes)
    return int(found_size), [int(idx) for idx in selection_out[:found_len]], int(nodes)
