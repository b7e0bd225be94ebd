"""Fast self-test of the benchmark at tiny sizes (under a minute).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints exactly the
metrics ``BENCHMARK.json`` declares, with their units, and passes its
output checks; that a perturbed output row is rejected by the digest
check; and that the benchmark refuses to run outside a checkout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run_bench(workload: str, trace: int, cwd: Path) -> tuple[int, str]:
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--sizes", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc.returncode, proc.stdout + proc.stderr


def check_outputs(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, output = run_bench(workload, trace, ROOT)
            label = f"{workload} --trace {trace}"
            if code != 0:
                failures.append(f"{label}: exit {code}\n{output}")
                continue
            result = json.loads(output.strip().splitlines()[-1])
            declared = {entry["name"]: entry["unit"] for entry in spec[section]}
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            before = len(failures)
            if printed != declared:
                failures.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if not all(isinstance(e["value"], (int, float)) for e in result["metrics"].values()):
                failures.append(f"{label}: a metric value is not a number")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                failures.append(f"{label}: output checks failed\n{output}")
            if len(failures) == before:
                print(f"ok  {label}: {result['attempted']} operations", flush=True)


def check_digest_rejects_perturbed_row(failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from repro.experiments.runner import run_single

    expected = workloads.load_expected()["run_spec"]
    spec = workloads.cell_specs(workloads.SIZES["tiny"]["tree"])[0]
    result = run_single(spec)
    perturbed = dataclasses.replace(result, total_changes=result.total_changes + 1)
    if workloads.check_results([result], expected):
        failures.append("digest check rejects an unperturbed row")
    elif not workloads.check_results([perturbed], expected):
        failures.append("digest check accepts a perturbed row")
    else:
        print("ok  digest check rejects a perturbed row", flush=True)


def check_refuses_outside_checkout(failures: list[str]) -> None:
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=tmp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, output = run_bench("gnp_cell", 0, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()
    if code == 0 or '"metrics"' in output:
        failures.append("benchmark printed a result without a checkout")
    else:
        print("ok  refuses to run outside a checkout", flush=True)


def main() -> int:
    if not (ROOT / "BENCHMARK.json").is_file():
        print("run from the repository root", file=sys.stderr)
        return 2
    failures: list[str] = []
    check_digest_rejects_perturbed_row(failures)
    check_refuses_outside_checkout(failures)
    check_outputs(failures)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
