"""End-to-end benchmark of the repository: one workload, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload gnp_cell --seed 0 --seconds 15 --trace 0

Every repetition runs in fresh processes (``workloads.py``) with the
kernel-selection environment variables cleared, so the default backend
resolution is what gets measured, and with a fixed ``PYTHONHASHSEED``.
``setup_s`` is the median of ``SETUP_REPS`` process starts, each the CPU
seconds its working processes spent from launch to the first timed
operation.  The last line of standard output is the JSON result; the line
before it is the host fingerprint.  With ``--trace 1`` the metrics are the
per-layer ones of a traced pass (see ``layers.py``).  The exit code is 1
when an output check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gnp_cell", "tree_cell", "shock_chain", "daemon_jobs")
SETUP_REPS = 3
#: Whole-run budget; a child still running then is killed.
BUDGET_S = 170.0
CLEARED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_KERNEL_THREADS")
#: Hash randomisation lays dicts and sets out differently in every process,
#: which moved a daemon job's CPU cost by up to 7% from one daemon to the
#: next; a fixed seed measures the same layout on every run.
HASH_SEED = "0"


class ChildFailed(RuntimeError):
    pass


def stop_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)
    for _ in range(1000):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(command: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one child; return (its set-up CPU seconds, parsed last JSON line).

    The child leads its own process group, so the daemon and workers it
    starts can be stopped with it if it overruns the budget or leaks them.
    """
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    timer = threading.Timer(
        max(0.0, deadline - time.monotonic()), lambda: stop_group(proc.pid)
    )
    timer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("READY ") and ready is None:
                ready = float(line.split()[1])
            elif line.startswith("{"):
                result = json.loads(line)
            else:
                print(line, flush=True)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        stop_group(proc.pid)
    if code != 0 or ready is None:
        raise ChildFailed(f"{' '.join(command[1:])} exited with code {code}")
    return ready, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a repository checkout (src/repro not found)", file=sys.stderr)
        return 2
    env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(root / "src"), os.environ.get("PYTHONPATH")) if part
    )
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--sizes", args.sizes,
    ]
    setups: list[float] = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPS - 1):
                setups.append(run_child(command + ["--phase", "setup"], env, deadline)[0])
        ready, result = run_child(command, env, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if result is None:
        print("perfbench: the workload printed no result", file=sys.stderr)
        return 2
    setups.append(ready)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    declared = declared_units(root, args.trace)
    if set(declared) != set(result["metrics"]):
        print(
            "perfbench: printed metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(result['metrics']))}",
            file=sys.stderr,
        )
        return 2
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in declared.items()
    }
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if result["correct"] else 1


def declared_units(root: Path, trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
