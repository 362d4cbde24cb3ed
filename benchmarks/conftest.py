"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
corresponding rows/series, so running ``pytest benchmarks/bench_*.py``
produces both timing information (via pytest-benchmark) and the reproduced
results themselves (via stdout, use ``-s`` to see them live; they are also
written to ``benchmarks/results/``).

The experiment scale is selected with the ``REPRO_BENCH_SCALE`` environment
variable: ``smoke`` (default; minutes → seconds, for CI) or ``paper``
(reduced-scale stand-in for the paper's runs).
"""

from __future__ import annotations

import pathlib

import pytest

from benchmarks.timing import RESULTS_DIR
from repro.experiments.harness import ExperimentScale


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale shared by all benchmarks."""
    return ExperimentScale.from_env()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory where each benchmark writes its reproduced table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a reproduced table and persist it under ``benchmarks/results``."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
