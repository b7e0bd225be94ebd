"""Shared helpers for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper on its smoke
grid (the full paper grid is available through the CLI: ``python -m repro
<figure> [--workers N]``), times it with pytest-benchmark, writes the
resulting rows to ``benchmarks/output/`` and prints them so the series can be
compared with the paper's.

The performance suites print their ``BENCH_*.json`` reports and write them
to the repository root only when ``REPRO_BENCH_RECORD=1`` (CI sets it in
the steps that upload them), so running the tests leaves the tracked
reports untouched.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.io import format_table, write_csv

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture
def emit_rows():
    """Return a callable that persists and pretty-prints benchmark rows."""

    def _emit(rows: list[dict], name: str, title: str | None = None) -> list[dict]:
        OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
        write_csv(rows, OUTPUT_DIR / f"{name}.csv")
        print()
        print(format_table(rows, title=title or name))
        return rows

    return _emit


def run_once(benchmark, func, *args, **kwargs):
    """Run an expensive harness exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def record_report(path: Path, report: dict) -> None:
    """Print a benchmark report; write it to ``path`` if ``REPRO_BENCH_RECORD=1``."""
    text = json.dumps(report, indent=2)
    if os.environ.get("REPRO_BENCH_RECORD") == "1":
        path.write_text(text + "\n")
    print()
    print(text)
