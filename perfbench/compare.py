"""Summarise saved benchmark runs, and compare two sets of them.

Each argument is a file holding the standard output of one ``run.py``
run, or a directory of such files (``*.out``).  One set prints, per
metric, the median, the quartiles and the spread (quartile distance over
the median); two sets, separated by ``--``, also print the change of the
median against the metric's bound in ``BENCHMARK.json``::

    python3 perfbench/compare.py base/ -- change/

Results whose host fingerprints differ are refused: they measured
different machines or kernel backends.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(paths: list[str]) -> tuple[dict, dict[str, list[float]]]:
    files: list[Path] = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.out")) if path.is_dir() else [path]
    fingerprints, values = set(), {}
    for file in files:
        lines = file.read_text().strip().splitlines()
        fingerprints.add(lines[-2].removeprefix("fingerprint "))
        for name, entry in json.loads(lines[-1])["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    if len(fingerprints) != 1:
        raise SystemExit(f"refusing to compare: fingerprints differ {sorted(fingerprints)}")
    return json.loads(fingerprints.pop()), values


def summary(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv: list[str]) -> int:
    sides = [argv] if "--" not in argv else [argv[: argv.index("--")], argv[argv.index("--") + 1 :]]
    loaded = [load(side) for side in sides]
    if len({json.dumps(fp, sort_keys=True) for fp, _ in loaded}) != 1:
        raise SystemExit("refusing to compare: the two sets ran on different fingerprints")
    bench = json.loads(Path("BENCHMARK.json").read_text())
    spec = {entry["name"]: entry for entry in bench["end_to_end"] + bench["per_layer"]}
    print("fingerprint", json.dumps(loaded[0][0], sort_keys=True))
    for name in loaded[0][1]:
        cells = []
        for _, values in loaded:
            median, spread = summary(values.get(name, [0.0]))
            cells.append(f"median {median:12.4f} spread {spread:6.1%} (n={len(values[name])})")
        line = f"{name:40} " + " | ".join(cells)
        if len(loaded) == 2 and "bound" in spec.get(name, {}):
            base, new = (statistics.median(values[name]) for _, values in loaded)
            worse = (new - base) / base * (1 if spec[name]["better"] == "lower" else -1)
            verdict = "WORSE" if worse > spec[name]["bound"] else "ok"
            line += f" | worse by {worse:+.1%} (bound {spec[name]['bound']:.0%}) {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
