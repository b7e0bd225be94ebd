"""One repetition of one benchmark workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH=src`` from the checkout root.
Protocol on standard output: free-form report lines, the line
``READY <cpu seconds>`` when set-up is done (the CPU time the working
processes spent from their start to the first timed operation, which the
parent reports as ``setup_s``), and, with ``--phase run``, one JSON result
as the last line.  ``--phase setup`` stops after ``READY``, tearing down
what set-up started.

Operations are timed in CPU seconds of the processes that do the work:
this process for the in-process workloads, the daemon and its workers for
``daemon_jobs``.  On a host whose cores are shared, wall time mostly
measures who else is running; the wall-clock figures are still reported,
as per-layer metrics of the traced run.

Workloads (the README says why each was chosen):

``gnp_cell``     ``run_sweep`` at workers=1 over a fixed G(n, p) sweep cell.
``tree_cell``    ``run_sweep`` at workers=1 over a fixed random-tree cell.
``shock_chain``  warm recoveries of a converged engine after perturbations.
``daemon_jobs``  one closed-loop client sending grid jobs to ``repro serve``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
#: Scratch space for daemon stores, inside the checkout; removed after use.
TMP_ROOT = Path.cwd() / ".perfbench_tmp"
#: Where the traced run writes its spans (``[name, start, end, parent, run]``).
SPANS_DIR = Path.cwd() / ".perfbench_out"

WORKLOADS = ("gnp_cell", "tree_cell", "shock_chain", "daemon_jobs")
SHOCK_OPERATORS = ("drop_random_edges", "reset_player", "add_shortcuts", "multi_reset")
#: A job (or its event stream) that takes longer than this counts as failed.
JOB_TIMEOUT_S = 60.0
DAEMON_WORKERS = 2
#: Every FRESH_EVERY-th job is a fresh grid; the others are cache hits.
FRESH_EVERY = 4
#: A hit job repeats this many finished grids at once.
HIT_GRIDS = 4

#: Instance sizes.  ``tiny`` only serves the self-test.
SIZES = {
    "full": {
        "gnp": dict(family="gnp", n=150, p=0.03, alpha=1.0, k=3, seeds=4),
        "tree": dict(family="tree", n=2000, alpha=0.5, k=2, seeds=2),
        "shock": dict(family="tree", n=1000, alpha=0.5, k=2, seed=1),
        "shock_chain_len": 8,
        "shock_intensity": 2,
        "job": dict(family="tree", n=200, alpha=0.5, k=2),
        "job_grids": 128,
        "grid_size": 4,
    },
    "tiny": {
        "gnp": dict(family="gnp", n=30, p=0.15, alpha=1.0, k=3, seeds=2),
        "tree": dict(family="tree", n=60, alpha=0.5, k=2, seeds=2),
        "shock": dict(family="tree", n=60, alpha=0.5, k=2, seed=1),
        "shock_chain_len": 8,
        "shock_intensity": 2,
        "job": dict(family="tree", n=30, alpha=0.5, k=2),
        "job_grids": 16,
        "grid_size": 4,
    },
}

#: Layers whose wrappers must fire in the traced pass of each workload.
EXPECTED_LAYERS = {
    "gnp_cell": (
        "kernels.cover_search",
        "kernels.bfs_reduce",
        "solvers.solve_set_cover",
        "core.best_response",
        "core.max_cover_context",
        "core.compute_profile_metrics",
        "engine.run",
        "engine.views.refresh_dirty",
        "experiments.run_sweep",
        "experiments.build_instance",
    ),
    "shock_chain": (
        "solvers.solve_set_cover",
        "core.best_response",
        "engine.run",
        "engine.certify",
        "engine.views.refresh_dirty",
        "experiments.apply_perturbation",
    ),
    "daemon_jobs": ("service.journal.append", "service.cache.get", "service.cache.put"),
}
EXPECTED_LAYERS["tree_cell"] = EXPECTED_LAYERS["gnp_cell"]


# ----------------------------------------------------------------------
# Inputs and output checks
# ----------------------------------------------------------------------
def cell_specs(params: dict) -> list:
    from repro.experiments.runner import RunSpec

    fixed = {key: value for key, value in params.items() if key != "seeds"}
    return [RunSpec(seed=seed, **fixed) for seed in range(params["seeds"])]


def job_grids(sizes: dict) -> list[list]:
    from repro.experiments.runner import RunSpec

    size = sizes["grid_size"]
    return [
        [RunSpec(seed=grid * size + i, **sizes["job"]) for i in range(size)]
        for grid in range(sizes["job_grids"])
    ]


def spec_key(spec) -> str:
    return f"{spec.family}:{spec.n}:{spec.p}:{spec.alpha}:{spec.k}:{spec.seed}"


def row_digest(result) -> str:
    """Digest of a run's deterministic output fields (timing fields removed)."""
    from repro.service.tasks import strip_timing_fields

    row = strip_timing_fields([result.as_row()])[0]
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()[:16]


def check_results(results: list, expected: dict[str, str]) -> list[str]:
    """Mismatch messages for runs whose digest differs from the recorded one."""
    problems = []
    for result in results:
        key = spec_key(result.spec)
        want = expected.get(key)
        if want is None:
            problems.append(f"{key}: no recorded digest")
        elif row_digest(result) != want:
            problems.append(f"{key}: output digest differs from the recorded one")
    return problems


def shock_digest(previous: str, record, result, engine) -> str:
    """Rolling digest of one recovery: the shock, the trajectory, the profile."""
    state = (
        previous,
        record.operator,
        record.players,
        record.edges_dropped,
        record.edges_added,
        result.rounds,
        result.total_changes,
        engine.state.canonical_key(),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()[:8]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ----------------------------------------------------------------------
# Measurement bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Measure:
    """Wall and CPU times of successful operations plus failure accounting."""

    latencies: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: Time spent in the benchmark's own checks inside the window.
    check_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def elapsed_s(self) -> float:
        return self.wall_s - self.check_s

    def done(self, wall_s: float, cpu_s: float) -> None:
        self.latencies.append(wall_s)
        self.cpu.append(cpu_s)

    def metrics(self) -> dict[str, float]:
        """End-to-end metrics, in CPU time of the working processes."""
        if not self.cpu or sum(self.cpu) <= 0:
            return {"ops_per_cpu_s": 0.0, "op_cpu_p50_ms": 0.0, "op_cpu_p90_ms": 0.0}
        return {
            "ops_per_cpu_s": len(self.cpu) / sum(self.cpu),
            "op_cpu_p50_ms": statistics.median(self.cpu) * 1e3,
            "op_cpu_p90_ms": p90(self.cpu) * 1e3,
        }

    def wall_metrics(self) -> dict[str, float]:
        """The same in wall time; operations per second of the window."""
        if not self.latencies or self.elapsed_s <= 0:
            return {"wall.ops_per_s": 0.0, "wall.op_p50_ms": 0.0, "wall.op_p90_ms": 0.0}
        return {
            "wall.ops_per_s": len(self.latencies) / self.elapsed_s,
            "wall.op_p50_ms": statistics.median(self.latencies) * 1e3,
            "wall.op_p90_ms": p90(self.latencies) * 1e3,
        }


def p90(values: list[float]) -> float:
    """90th percentile, interpolated like ``statistics.median``.

    On a cell covered k >= 2 times it falls among the copies of the
    slowest instance whatever k is, so the pass count cannot move it.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def fingerprint() -> dict:
    import platform

    import numpy

    from repro import kernels

    backend = kernels.resolve_backend()
    return {
        "backend": backend.name,
        "threads": backend.threads,
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_s(pid: int) -> float:
    """CPU seconds process ``pid`` has used, all its threads, dead ones too."""
    # MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) from the Linux ABI.
    return time.clock_gettime(((~pid) << 3) | 2)


# ----------------------------------------------------------------------
# gnp_cell / tree_cell
# ----------------------------------------------------------------------
def run_cell(specs: list, seed: int, seconds: float, expected: dict, mark=None) -> Measure:
    """Run the whole cell, in a seeded order, until ``seconds`` have passed.

    The window closes at a pass boundary, so every run measures each
    instance equally often and instance hardness cannot skew the figures.
    ``mark`` (the traced pass) tags each run.
    """
    from repro.experiments import runner

    order = list(specs)
    random.Random(f"perfbench:cell:{seed}").shuffle(order)
    measure = Measure()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for spec in order:
            measure.attempted += 1
            if mark is not None:
                mark(spec_key(spec))
            began, cpu = time.perf_counter(), time.process_time()
            try:
                # Looked up on the module so the traced pass sees its wrapper.
                (result,) = runner.run_sweep([spec])
            except Exception as exc:  # noqa: BLE001 - a failed run is a data point
                measure.fail(f"{spec_key(spec)}: {type(exc).__name__}: {exc}")
                continue
            took, cpu = time.perf_counter() - began, time.process_time() - cpu
            checked = time.perf_counter()
            problems = check_results([result], expected)
            measure.check_s += time.perf_counter() - checked
            if problems:
                measure.fail(problems[0])
            else:
                measure.done(took, cpu)
    measure.wall_s = time.perf_counter() - start
    return measure


# ----------------------------------------------------------------------
# shock_chain
# ----------------------------------------------------------------------
def converge_base(params: dict):
    """Converged engine on the base instance and its equilibrium profile."""
    from repro.engine.core import DynamicsEngine
    from repro.experiments import runner

    spec = runner.RunSpec(**params)
    # Metric bookends are O(n * edges) per run; a warm replay skips them,
    # as the robustness study does.
    engine = DynamicsEngine(runner.build_instance(spec), spec.game(), collect_metrics=False)
    result = engine.run()
    if not result.converged:
        raise RuntimeError(f"base instance {spec_key(spec)} did not converge")
    return engine, engine.state.to_profile()


def run_shock_chain(
    engine,
    base,
    sizes: dict,
    seed: int,
    seconds: float,
    recorded: str | None,
    limit: int | None = None,
    mark=None,
) -> Measure:
    """Chains of shocks from the base equilibrium, each followed by a warm run.

    Every ``shock_chain_len`` attempts the engine is restored to the base
    equilibrium (``restore_profile``), so a run averages many short chains
    instead of drifting along one.  A shock that disconnects the strict
    game is rolled back the same way.  Recovery latency is the warm
    ``engine.run()``; every recovery must then certify.  ``limit`` stops
    after that many recoveries (used to record the chain digests).
    """
    from repro.engine.core import DynamicsEngine
    from repro.experiments.extensions import robustness

    rng = random.Random(f"perfbench:shock_chain:{seed}")
    sample = random.Random(f"perfbench:shock_sample:{seed}").randrange(20)
    chain_len = sizes["shock_chain_len"]
    intensity = sizes["shock_intensity"]
    measure = Measure()
    digest = ""
    digests: list[str] = []
    cold_check = None
    attempt = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline and measure.attempted != limit:
        if attempt % chain_len == 0 and attempt:
            engine.restore_profile(base)
        operator = SHOCK_OPERATORS[attempt % len(SHOCK_OPERATORS)]
        attempt += 1
        if mark is not None:
            mark(f"shock-{attempt}")
        record = robustness.apply_perturbation(engine, operator, rng, intensity)
        if record.is_empty:
            continue
        if record.disconnected:
            engine.restore_profile(base)
            continue
        index = measure.attempted
        measure.attempted += 1
        checked = time.perf_counter()
        shocked = engine.state.to_profile() if index == sample else None
        measure.check_s += time.perf_counter() - checked
        began, cpu = time.perf_counter(), time.process_time()
        try:
            result = engine.run()
            took, cpu = time.perf_counter() - began, time.process_time() - cpu
            report = engine.certify()
        except Exception as exc:  # noqa: BLE001 - a failed recovery is a data point
            measure.fail(f"recovery {index}: {type(exc).__name__}: {exc}")
            engine.restore_profile(base)
            continue
        checked = time.perf_counter()
        digest = shock_digest(digest, record, result, engine)
        digests.append(digest)
        want = recorded[8 * index : 8 * index + 8] if recorded else ""
        if not (result.converged and result.certified and report.is_equilibrium):
            measure.fail(f"recovery {index}: did not certify")
        elif want and digest != want:
            measure.fail(f"recovery {index}: digest differs from the recorded chain")
        else:
            measure.done(took, cpu)
            if shocked is not None:
                cold_check = (index, shocked, engine.state.to_profile(), result.rounds)
        measure.check_s += time.perf_counter() - checked
    measure.wall_s = time.perf_counter() - start
    measure.extra["digest_checked"] = bool(recorded)
    measure.extra["digests"] = digests
    if cold_check is not None:
        # Bit-identity of warm replay: a cold engine started from the
        # shocked profile must land on the same equilibrium, same rounds.
        index, shocked, recovered, rounds = cold_check
        cold = DynamicsEngine(shocked, engine.game, collect_metrics=False).run()
        if cold.final_profile != recovered or cold.rounds != rounds:
            measure.fail(f"recovery {index}: warm recovery differs from a cold run")
    return measure


# ----------------------------------------------------------------------
# daemon_jobs
# ----------------------------------------------------------------------
def _children(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        with contextlib.suppress(OSError):
            found += [int(child) for child in (task / "children").read_text().split()]
    return found + [grandchild for child in found for grandchild in _children(child)]


def _peak_rss_mb(pid: int) -> float:
    with contextlib.suppress(OSError):
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by another user
        return False
    stat = Path(f"/proc/{pid}/stat")
    with contextlib.suppress(OSError):
        return stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"
    return False


def remove_store(store: Path) -> None:
    shutil.rmtree(store, ignore_errors=True)
    with contextlib.suppress(OSError):
        TMP_ROOT.rmdir()  # only once no other store is left


class SubprocessDaemon:
    """``python -m repro serve`` on a temporary store, as a user runs it."""

    def __init__(self) -> None:
        TMP_ROOT.mkdir(exist_ok=True)
        self.store = Path(tempfile.mkdtemp(prefix="daemon-", dir=TMP_ROOT))
        self.log = (self.store / "daemon.log").open("w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(self.store / "store"),
                "--workers", str(DAEMON_WORKERS),
                "--port", "0",
            ],
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.closed = False
        try:
            self.url = self._wait_ready()
            # The worker pool is forked before the daemon serves.
            self.pids = [self.proc.pid, *_children(self.proc.pid)]
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> str:
        from repro.service.client import SweepClient

        deadline = time.monotonic() + 60.0
        url = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self.log_text()}")
            if url is None:
                for line in self.log_text().splitlines():
                    if "listening on " in line:
                        url = line.split("listening on ", 1)[1].split()[0]
            if url is not None:
                with contextlib.suppress(OSError):
                    SweepClient(url, timeout=5.0).health()
                    return url
            time.sleep(0.02)
        raise RuntimeError("daemon did not answer /healthz within 60 s")

    def log_text(self) -> str:
        return (self.store / "daemon.log").read_text()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus its worker processes."""
        return sum(_peak_rss_mb(pid) for pid in [self.proc.pid, *_children(self.proc.pid)])

    def cpu_s(self) -> float:
        """CPU seconds of the daemon plus its workers since they started."""
        return sum(process_cpu_s(pid) for pid in self.pids)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        workers = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 10.0
        for pid in workers:
            while _alive(pid):
                if time.monotonic() > deadline:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                time.sleep(0.01)
        self.log.close()
        remove_store(self.store)


class InProcessDaemon:
    """The same daemon hosted in this process, so its I/O layers can be wrapped."""

    def __init__(self) -> None:
        from repro.service.daemon import DaemonConfig, ServiceDaemon

        TMP_ROOT.mkdir(exist_ok=True)
        self.store = Path(tempfile.mkdtemp(prefix="daemon-", dir=TMP_ROOT))
        self.daemon = ServiceDaemon(
            DaemonConfig(store_dir=self.store / "store", workers=DAEMON_WORKERS)
        )
        try:
            self.daemon.start()
        except BaseException:
            self.close()
            raise
        self.url = self.daemon.base_url
        self.workers = _children(os.getpid())

    def cpu_s(self) -> float:
        """CPU seconds of this process (daemon and client) plus the workers."""
        return time.process_time() + sum(process_cpu_s(pid) for pid in self.workers)

    def close(self) -> None:
        self.daemon.stop()
        remove_store(self.store)


@dataclass
class JobSample:
    hit: bool
    latency_s: float
    submit_s: float
    queue_wait_s: float
    execute_s: float
    results_s: float
    results_bytes: int


def run_daemon_jobs(daemon, sizes: dict, seed: int, seconds: float, expected: dict) -> Measure:
    """One closed-loop client; every ``FRESH_EVERY``-th job is fresh, the rest hit.

    A fresh job takes the next grid of the pool (never sent before on this
    store); a hit job repeats a grid that already finished, chosen by the
    seeded generator, and its results must equal the fresh job's.  The
    fresh grids come in pool order whatever the seed, as the cells are
    fixed: grids differ in cost, and a seeded draw of a few dozen of them
    would measure the draw.  Job latency runs from submit until the results
    are fetched; completion is read from the job's event stream, not by
    polling.  A job's CPU time is what the daemon and its workers spent
    meanwhile: with one client no two jobs overlap.
    """
    from repro.service.client import SweepClient
    from repro.service.jobs import TERMINAL_STATUSES, run_spec_description
    from repro.service.tasks import decode_result, strip_timing_fields

    fresh = iter(job_grids(sizes))
    finished: list[tuple[list, list]] = []
    client = SweepClient(daemon.url, timeout=JOB_TIMEOUT_S)
    rng = random.Random(f"perfbench:daemon_client:{seed}")
    measure = Measure()
    samples: list[JobSample] = []

    def one_job(grid, hit: bool) -> tuple[list, JobSample]:
        began = time.perf_counter()
        job = client.submit(run_spec_description(grid))
        submitted = running = time.perf_counter()
        status = None
        with contextlib.closing(client.events(job["id"])) as events:
            for event in events:
                if event.get("type") != "status":
                    continue
                if event["status"] == "running":
                    running = time.perf_counter()
                if event["status"] in TERMINAL_STATUSES:
                    status = event["status"]
                    break
                if time.perf_counter() - began > JOB_TIMEOUT_S:
                    raise TimeoutError(f"job {job['id']} exceeded {JOB_TIMEOUT_S} s")
        done = time.perf_counter()
        if status != "done":
            raise RuntimeError(f"job {job['id']} ended {status}")
        entries = client.results(job["id"])
        ended = time.perf_counter()
        if ended - began > JOB_TIMEOUT_S:
            raise TimeoutError(f"job {job['id']} exceeded {JOB_TIMEOUT_S} s")
        return entries, JobSample(
            hit=hit,
            latency_s=ended - began,
            submit_s=submitted - began,
            queue_wait_s=running - began,
            execute_s=done - running,
            results_s=ended - done,
            results_bytes=len(json.dumps(entries)),
        )

    start = time.perf_counter()
    for sent in itertools.count():
        if time.perf_counter() - start >= seconds:
            break
        grid = None
        if sent % FRESH_EVERY == 0 or len(finished) < HIT_GRIDS:
            grid = next(fresh, None)
            if grid is None:
                measure.fail("fresh grid pool exhausted; enlarge job_grids")
                break
        measure.attempted += 1
        hit = grid is None
        if hit:
            repeated = rng.sample(finished, HIT_GRIDS)
            grid = [spec for specs, _ in repeated for spec in specs]
            fresh_rows = [row for _, rows in repeated for row in rows]
        try:
            cpu = daemon.cpu_s()
            entries, sample = one_job(grid, hit)
            cpu = daemon.cpu_s() - cpu
            checked = time.perf_counter()
            results = [decode_result(entry["kind"], entry["payload"]) for entry in entries]
            rows = strip_timing_fields([result.as_row() for result in results])
            problems = check_results(results, expected)
            if hit and rows != fresh_rows:
                problems.append("cache-hit results differ from the fresh job's")
            measure.check_s += time.perf_counter() - checked
        except Exception as exc:  # noqa: BLE001 - a failed job is a data point
            measure.fail(f"{type(exc).__name__}: {exc}")
            continue
        if problems:
            measure.fail(problems[0])
            continue
        samples.append(sample)
        measure.done(sample.latency_s, cpu)
        if not hit:
            finished.append((grid, rows))
    measure.wall_s = time.perf_counter() - start
    measure.extra["samples"] = samples
    return measure


def daemon_counters(url: str) -> dict[str, float]:
    """Task sources and dispatch decisions from ``/stats`` and ``/metrics``."""
    from repro.service.client import SweepClient

    client = SweepClient(url, timeout=30.0)
    stats = client.stats()
    counters = {
        "service.tasks.engine": stats["engine_executions"],
        "service.tasks.cache": stats["cache_hits"],
        "service.tasks.journal": stats["journal_hits"],
    }
    host, port = url.removeprefix("http://").rsplit(":", 1)
    import http.client

    connection = http.client.HTTPConnection(host, int(port), timeout=30.0)
    try:
        connection.request("GET", "/metrics")
        text = connection.getresponse().read().decode()
    finally:
        connection.close()
    for op, name in (("dispatch", "dispatched"), ("steal", "steals")):
        counters[f"service.dispatch.{name}"] = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith(f'repro_dispatch_total{{op="{op}"}}')
        )
    return counters


def service_metrics(measure: Measure, counters: dict[str, float]) -> dict[str, float]:
    samples: list[JobSample] = measure.extra["samples"] or [JobSample(False, 0, 0, 0, 0, 0, 0)]
    fresh = [s.latency_s for s in samples if not s.hit] or [0.0]
    hits = [s.latency_s for s in samples if s.hit] or [0.0]
    tasks = counters["service.tasks.engine"] + counters["service.tasks.cache"] + (
        counters["service.tasks.journal"]
    )
    return {
        **counters,
        "service.cache_hit_ratio": counters["service.tasks.cache"] / tasks if tasks else 0.0,
        "service.queue_wait_ms.p50": statistics.median(s.queue_wait_s for s in samples) * 1e3,
        "service.queue_wait_ms.p90": p90([s.queue_wait_s for s in samples]) * 1e3,
        "service.execute_s.p50": statistics.median(s.execute_s for s in samples),
        "service.http.submit_ms.p50": statistics.median(s.submit_s for s in samples) * 1e3,
        "service.http.results_ms.p50": statistics.median(s.results_s for s in samples) * 1e3,
        "service.results_bytes": statistics.median(s.results_bytes for s in samples),
        "service.jobs.fresh_p50_ms": statistics.median(fresh) * 1e3,
        "service.jobs.fresh_p90_ms": p90(fresh) * 1e3,
        "service.jobs.hit_p50_ms": statistics.median(hits) * 1e3,
        "service.jobs.hit_p90_ms": p90(hits) * 1e3,
    }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def setup(workload: str, sizes: dict):
    """Work that precedes the first timed operation; returns the context."""
    from repro import kernels

    kernels.resolve_backend()
    if workload == "shock_chain":
        import repro.experiments.extensions.robustness  # noqa: F401 - paid by the user

        return converge_base(sizes["shock"])
    if workload == "daemon_jobs":
        return SubprocessDaemon()
    import repro.experiments.runner  # noqa: F401 - paid by the user

    return None


def measure_pass(
    workload: str, context, sizes: dict, seed: int, seconds: float, expected: dict, mark=None
):
    """One measured window.  Daemon spans carry no run id: jobs overlap."""
    runs = expected["run_spec"]
    if workload == "gnp_cell":
        return run_cell(cell_specs(sizes["gnp"]), seed, seconds, runs, mark)
    if workload == "tree_cell":
        return run_cell(cell_specs(sizes["tree"]), seed, seconds, runs, mark)
    if workload == "shock_chain":
        engine, base = context
        recorded = expected["shock_chain"][sizes["name"]].get(str(seed))
        return run_shock_chain(engine, base, sizes, seed, seconds, recorded, mark=mark)
    return run_daemon_jobs(context, sizes, seed, seconds, runs)


def traced_run(workload: str, context, sizes: dict, seed: int, seconds: float, expected: dict):
    """Untraced pass, then the same inputs traced; per-layer metrics."""
    from layers import LAYERS, LayerTracer, format_table, missing_layers

    from repro.obs import get_telemetry

    passes = 3 if workload == "daemon_jobs" else 2
    share = seconds / passes
    untraced = measure_pass(workload, context, sizes, seed, share, expected)
    measures = [untraced]
    metrics: dict[str, float] = untraced.wall_metrics()
    if workload == "daemon_jobs":
        metrics.update(service_metrics(untraced, daemon_counters(context.url)))
        context.close()
        hosted = InProcessDaemon()
        try:
            untraced = measure_pass(workload, hosted, sizes, seed, share, expected)
        finally:
            hosted.close()
        measures.append(untraced)
    tracer = LayerTracer()
    tracer.install()
    if workload == "shock_chain":
        # Engines resolve their kernels when built, so the traced pass needs
        # its own base engine; its convergence is set-up, not measured.
        context = converge_base(sizes["shock"])
        tracer.reset()
    elif workload == "daemon_jobs":
        context = InProcessDaemon()
    registry = get_telemetry().registry
    before = registry.snapshot()
    began = time.perf_counter()
    try:
        traced = measure_pass(workload, context, sizes, seed, share, expected, tracer.mark)
        wall = time.perf_counter() - began
    finally:
        if workload == "daemon_jobs":
            context.close()
    measures.append(traced)
    after = registry.snapshot()

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    summary = tracer.summary(wall)
    for layer in LAYERS:
        for stat in ("calls", "busy_s", "self_s", "share"):
            metrics[f"{layer}.{stat}"] = summary[f"{layer}.{stat}"]
    calls = summary["solvers.solve_set_cover.calls"]
    computed = delta('repro_engine_responses_total{result="computed"}')
    reused = delta('repro_engine_responses_total{result="reused"}')
    metrics.update(
        {
            "kernels.bfs.sources": summary.get("kernels.bfs.sources", 0),
            "kernels.bfs_reduce.sources": summary.get("kernels.bfs_reduce.sources", 0),
            "solvers.solve_set_cover.feasible_ratio": (
                summary.get("solvers.solve_set_cover.feasible", 0) / calls if calls else 0.0
            ),
            "engine.rounds": delta("repro_engine_rounds_total"),
            "engine.responses.computed": computed,
            "engine.responses.reused": reused,
            "engine.memo_hit_ratio": reused / (computed + reused) if computed + reused else 0.0,
            "engine.views.built": delta('repro_views_total{source="built"}'),
            "engine.views.shared": delta('repro_views_total{source="shared"}'),
            "trace.spans": len(tracer.spans),
            "trace.overhead_frac": (
                untraced.metrics()["ops_per_cpu_s"] / traced.metrics()["ops_per_cpu_s"] - 1.0
            ),
            "trace.hosting_frac": (
                measures[1].wall_metrics()["wall.ops_per_s"]
                / measures[0].wall_metrics()["wall.ops_per_s"]
                - 1.0
                if workload == "daemon_jobs"
                else 0.0
            ),
        }
    )
    if workload != "daemon_jobs":
        for key in SERVICE_KEYS:
            metrics.setdefault(key, 0.0)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.dump(spans_path)
    print(format_table(summary, wall))
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(Path.cwd())}")
    print(
        f"tracing overhead {metrics['trace.overhead_frac']:+.1%} "
        "(untraced ops per CPU second over traced, same inputs)"
        + (
            f"; hosting difference {metrics['trace.hosting_frac']:+.1%} "
            "(in-process daemon ops per wall second over subprocess daemon, both untraced)"
            if workload == "daemon_jobs"
            else ""
        )
    )
    missing = missing_layers(summary, EXPECTED_LAYERS[workload])
    return measures, metrics, missing


SERVICE_KEYS = (
    "service.tasks.engine",
    "service.tasks.cache",
    "service.tasks.journal",
    "service.dispatch.dispatched",
    "service.dispatch.steals",
    "service.cache_hit_ratio",
    "service.queue_wait_ms.p50",
    "service.queue_wait_ms.p90",
    "service.execute_s.p50",
    "service.http.submit_ms.p50",
    "service.http.results_ms.p50",
    "service.results_bytes",
    "service.jobs.fresh_p50_ms",
    "service.jobs.fresh_p90_ms",
    "service.jobs.hit_p50_ms",
    "service.jobs.hit_p90_ms",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--sizes", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    sizes = {**SIZES[args.sizes], "name": args.sizes}
    expected = load_expected()

    context = setup(args.workload, sizes)
    setup_cpu_s = time.process_time()
    if args.workload == "daemon_jobs":
        setup_cpu_s += context.cpu_s()
    print(f"READY {setup_cpu_s!r}", flush=True)
    if args.phase == "setup":
        if args.workload == "daemon_jobs":
            context.close()
        return 0
    missing: list[str] = []
    try:
        if args.trace:
            measures, metrics, missing = traced_run(
                args.workload, context, sizes, args.seed, args.seconds, expected
            )
        else:
            measure = measure_pass(
                args.workload, context, sizes, args.seed, args.seconds, expected
            )
            measures = [measure]
            metrics = measure.metrics()
            metrics["peak_rss_mb"] = (
                context.peak_rss_mb() if args.workload == "daemon_jobs" else own_peak_rss_mb()
            )
    finally:
        if args.workload == "daemon_jobs":
            context.close()
    attempted = sum(m.attempted for m in measures)
    failed = sum(m.failed for m in measures)
    for m in measures:
        for problem in m.problems:
            print(f"failed: {problem}", file=sys.stderr)
    for layer in missing:
        print(f"failed: layer {layer} recorded no calls on {args.workload}", file=sys.stderr)
    if args.workload == "shock_chain" and not measures[0].extra["digest_checked"]:
        print(
            f"note: no recorded chain digest for seed {args.seed}; recoveries were "
            "checked by certification and a warm-vs-cold replay",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": failed == 0 and not missing,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "fingerprint": fingerprint(),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
