"""Per-layer attribution for the traced benchmark pass.

The program is not edited: :class:`LayerTracer` replaces each layer's
public functions *where callers look them up* with wrappers that record
one span per call (name, start, end, parent span, run id).  Spans stay in
memory and are folded into per-layer busy time, self time and counts when
the pass ends.  A patch target that no longer exists raises, and
:func:`missing_layers` reports expected layers that recorded no call, so
an upstream rename cannot silently blank a layer.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict

#: Wrapped functions: layer name -> ``(module, attribute path)`` lookup
#: sites.  Kernel entry points are wrapped on the resolved backend instead
#: (see :meth:`LayerTracer.install`).
PATCH_SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "solvers.solve_set_cover": (("repro.core.best_response", "solve_set_cover"),),
    "core.best_response": (("repro.engine.core", "best_response"),),
    "core.max_cover_context": (
        ("repro.engine.core", "max_cover_context"),
        ("repro.core.best_response", "max_cover_context"),
    ),
    "core.compute_profile_metrics": (("repro.engine.core", "compute_profile_metrics"),),
    "engine.run": (("repro.engine.core", "DynamicsEngine.run"),),
    "engine.certify": (("repro.engine.core", "DynamicsEngine.certify"),),
    "engine.views.refresh_dirty": (
        ("repro.engine.views", "IncrementalViewCache.refresh_dirty"),
    ),
    "experiments.run_sweep": (("repro.experiments.runner", "run_sweep"),),
    "experiments.build_instance": (("repro.experiments.runner", "build_instance"),),
    "experiments.apply_perturbation": (
        ("repro.experiments.extensions.robustness", "apply_perturbation"),
    ),
    "service.journal.append": (("repro.service.journal", "SweepJournal.append"),),
    "service.cache.get": (("repro.service.jobs", "ResultCache.get"),),
    "service.cache.put": (("repro.service.jobs", "ResultCache.put"),),
}

KERNEL_LAYERS = ("kernels.bfs", "kernels.bfs_reduce", "kernels.cover_search")

#: Every wrapped layer, in report order.
LAYERS: tuple[str, ...] = KERNEL_LAYERS + tuple(PATCH_SITES)


def _sources(args, kwargs, result) -> int:
    """Source count of a ``bfs`` / ``bfs_reduce`` kernel call (third argument)."""
    return len(args[2])


def _feasible(args, kwargs, result) -> int:
    return int(result.feasible)


#: Extra per-call counts: layer -> (count name, extractor).
COUNTERS = {
    "kernels.bfs": ("sources", _sources),
    "kernels.bfs_reduce": ("sources", _sources),
    "solvers.solve_set_cover": ("feasible", _feasible),
}


def _resolve(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"trace target {module_name}.{path} no longer exists")
    return owner, attr


class LayerTracer:
    """Span recorder plus the patches that feed it.

    Installing is one-way: the traced pass is the last thing a benchmark
    process does, so nothing is restored.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, run_id]`` per wrapped call.
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id: str = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, lock, counts = self.spans, self._lock, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                key, extract = counter
                value = extract(args, kwargs, result)
                with lock:
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer; the kernels on the auto-resolved backend."""
        from repro import kernels

        backend = kernels.resolve_backend()
        wrapped = dataclasses.replace(
            backend,
            bfs=self.wrap("kernels.bfs", backend.bfs),
            cover_search=self.wrap("kernels.cover_search", backend.cover_search),
            bfs_reduce=(
                None
                if backend.bfs_reduce is None
                else self.wrap("kernels.bfs_reduce", backend.bfs_reduce)
            ),
        )
        # Re-registering drops the cached build, so every later
        # resolution (engines, sweeps, solver calls) gets the wrapped set.
        kernels.register_backend(backend.name, lambda threads=1: wrapped)
        if kernels.resolve_backend() is not wrapped:
            raise RuntimeError("wrapped kernel backend is not the resolved default")
        for name, sites in PATCH_SITES.items():
            for module_name, path in sites:
                owner, attr = _resolve(module_name, path)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def mark(self, run_id: str) -> None:
        """Tag the spans that follow with ``run_id`` (one operation)."""
        self.run_id = run_id

    def dump(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        import json

        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def reset(self) -> None:
        """Forget what was recorded so far (set-up done after installing)."""
        with self._lock:
            self.spans.clear()
            self.counts.clear()

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer ``calls``, ``busy_s``, ``self_s`` and ``share`` of ``wall_s``.

        Busy time is inclusive wall time inside the wrapped call; self time
        subtracts the wrapped calls it made.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for index, (name, start, end, _parent, _run) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[index]
        for layer in LAYERS:
            out[f"{layer}.share"] = out[f"{layer}.busy_s"] / wall_s if wall_s > 0 else 0.0
        out.update(self.counts)
        return out


def missing_layers(summary: dict[str, float], expected: tuple[str, ...]) -> list[str]:
    """Expected layers whose wrappers never fired."""
    return [layer for layer in expected if summary.get(f"{layer}.calls", 0) == 0]


def format_table(summary: dict[str, float], wall_s: float) -> str:
    """Human-readable per-layer table, busiest layer first."""
    rows = sorted(
        (layer for layer in LAYERS if summary[f"{layer}.calls"]),
        key=lambda layer: -summary[f"{layer}.busy_s"],
    )
    lines = [
        f"per-layer attribution (traced wall {wall_s:.3f} s)",
        f"{'layer':34} {'calls':>9} {'busy_s':>9} {'self_s':>9} {'share':>7}",
    ]
    for layer in rows:
        lines.append(
            f"{layer:34} {summary[f'{layer}.calls']:>9d} "
            f"{summary[f'{layer}.busy_s']:>9.3f} {summary[f'{layer}.self_s']:>9.3f} "
            f"{summary[f'{layer}.share']:>7.1%}"
        )
    return "\n".join(lines)
