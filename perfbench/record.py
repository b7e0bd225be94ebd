"""Record the output digests the benchmark checks against.

Run from the repository root after a change that is *meant* to alter
trajectories (the digests pin the bit-identity contract, so a change that
only claims speed must leave them untouched)::

    PYTHONPATH=src python3 perfbench/record.py

Writes ``perfbench/expected.json``: one digest per RunSpec of every cell
and of the daemon grid pool (full and tiny sizes), and the per-recovery
chain digests of ``shock_chain`` for seeds ``0 .. SHOCK_SEEDS - 1``.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor

import workloads

#: Seeds whose shock chains are recorded (other seeds are checked by
#: certification and a warm-vs-cold replay only).
SHOCK_SEEDS = 16
#: Recoveries recorded per chain: about twice what a 20 s run completes.
SHOCK_RECOVERIES = {"full": 1000, "tiny": 40}


def spec_digest(spec) -> tuple[str, str]:
    from repro.experiments.runner import run_single

    return workloads.spec_key(spec), workloads.row_digest(run_single(spec))


def chain_digests(size_name: str, seed: int) -> tuple[str, int, str]:
    sizes = {**workloads.SIZES[size_name], "name": size_name}
    engine, base = workloads.converge_base(sizes["shock"])
    measure = workloads.run_shock_chain(
        engine, base, sizes, seed, float("inf"), None, limit=SHOCK_RECOVERIES[size_name]
    )
    if measure.failed:
        raise RuntimeError(f"{size_name} chain {seed}: {measure.problems}")
    return size_name, seed, "".join(measure.extra["digests"])


def main() -> int:
    specs = []
    for size_name, sizes in workloads.SIZES.items():
        specs += workloads.cell_specs(sizes["gnp"]) + workloads.cell_specs(sizes["tree"])
        specs += [spec for grid in workloads.job_grids(sizes) for spec in grid]
    chains = [("tiny", 0)] + [("full", seed) for seed in range(SHOCK_SEEDS)]
    expected = {"run_spec": {}, "shock_chain": {"full": {}, "tiny": {}}}
    with ProcessPoolExecutor(max_workers=2) as pool:
        chain_futures = [pool.submit(chain_digests, *chain) for chain in chains]
        for key, digest in pool.map(spec_digest, specs, chunksize=8):
            expected["run_spec"][key] = digest
        for future in chain_futures:
            size_name, seed, digests = future.result()
            expected["shock_chain"][size_name][str(seed)] = digests
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}: {len(specs)} runs, {len(chains)} chains")
    return 0


if __name__ == "__main__":
    sys.exit(main())
