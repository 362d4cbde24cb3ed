"""Campaign executor scaling: distributed workers and the process pool.

One uniform CPU-bound grid of flit ping-pong cells (identical work per
cell, distinct seeds so nothing dedupes, no store so every cell executes)
runs through both executors: the distributed coordinator
(``run_distributed`` on the ``local`` stdio-subprocess transport) at 1 and
2 workers, and the process-pool executor (``execute_plan``) at 1, 2 and 4
workers.  The five are contenders of the shared protocol in
``benchmarks/timing.py`` (``REPEATS`` interleaved order-flipping rounds).
The cells run in worker processes, so the bench reads the minimum wall
time per contender, and it skips the warm-up round: every run starts fresh
workers anyway.

Two bars are asserted:

* 2 distributed workers reach >= ``SPEEDUP_FLOOR`` times the cells/s of 1
  worker — the overhead budget of the shard/lease protocol.  On a
  single-core machine the bar is skipped (``assert_skipped`` in the JSON):
  the executor cannot beat physics.
* 4 pool workers keep >= ``POOL_FLOOR`` of serial throughput — fan-out may
  not cost more than noise.

A JSON artifact goes to ``benchmarks/results/BENCH_executor_scaling.json``::

    python benchmarks/bench_executor_scaling.py            # 8-cell grid
    python benchmarks/bench_executor_scaling.py --smoke    # CI grid (6 cells)
"""

from __future__ import annotations

import functools
import os
import pathlib
import sys

if __package__ in (None, ""):  # `python benchmarks/bench_executor_scaling.py`
    ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.conftest import emit
from benchmarks.timing import Region, interleave, write_result
from repro.campaign import (
    CampaignPlan,
    DistOptions,
    RunSpec,
    ensure_builtin_scenarios,
    execute_plan,
    run_distributed,
)

#: (executor, worker count) of every contender.
CONTENDERS = (
    ("distributed", 1),
    ("distributed", 2),
    ("pool", 1),
    ("pool", 2),
    ("pool", 4),
)

#: Interleaved timing rounds; every contender's time is its minimum.
REPEATS = 5

SPEEDUP_FLOOR = 1.7
POOL_FLOOR = 0.5


def _bench_plan(cells: int) -> CampaignPlan:
    """A uniform CPU-bound grid: one ~1s flit cell per distinct seed."""
    ensure_builtin_scenarios()
    specs = tuple(
        RunSpec.make(
            "pingpong-placement",
            {"placement": "inter-groups", "message_kib": 16, "noise": "light"},
            seed=3000 + i,
        )
        for i in range(cells)
    )
    return CampaignPlan(name="bench-executor", specs=specs)


def _run(executor: str, workers: int, plan: CampaignPlan, region: Region) -> None:
    with region:
        if executor == "distributed":
            result = run_distributed(
                plan,
                store=None,
                options=DistOptions(workers=workers, transport="local"),
            )
        else:
            result = execute_plan(plan, store=None, workers=workers)
    assert result.failed == 0, result.summary()
    assert result.executed == len(plan), result.summary()


def measure_scaling(cells: int) -> dict:
    """Time the grid under every contender; returns the JSON payload."""
    plan = _bench_plan(cells)
    timed = interleave(
        {
            f"{executor}@{workers}": functools.partial(_run, executor, workers, plan)
            for executor, workers in CONTENDERS
        },
        REPEATS,
        warmup=False,
    )
    series = []
    for executor, workers in CONTENDERS:
        wall = timed[f"{executor}@{workers}"].wall.min
        base = timed[f"{executor}@1"].wall.min
        series.append(
            {
                "executor": executor,
                "workers": workers,
                "cells_per_sec": round(len(plan) / wall, 3),
                "speedup_vs_1_worker": round(base / wall, 3),
                **timed[f"{executor}@{workers}"].to_json(),
            }
        )
    return {
        "benchmark": "executor_scaling",
        "transport": "local",
        "grid_cells": len(plan),
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "speedup_floor": SPEEDUP_FLOOR,
        "pool_floor": POOL_FLOOR,
        "assert_skipped": (os.cpu_count() or 1) < 2,
        "series": series,
    }


def check_bars(payload: dict) -> None:
    """Assert the pool bar, and the 2-worker bar unless on one core."""
    by_name = {(e["executor"], e["workers"]): e for e in payload["series"]}
    pool = by_name[("pool", 4)]["speedup_vs_1_worker"]
    assert pool >= POOL_FLOOR, (
        f"pool executor regressed: 4 workers reach only {pool}x of serial "
        f"throughput (floor: {POOL_FLOOR}x)"
    )
    if payload["assert_skipped"]:
        return
    speedup = by_name[("distributed", 2)]["speedup_vs_1_worker"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"distributed executor regressed: 2 workers reach only {speedup}x "
        f"over 1 worker (floor: {SPEEDUP_FLOOR}x)"
    )


def _render(payload: dict) -> str:
    lines = [
        f"executor scaling ({payload['grid_cells']}-cell grid, min wall of "
        f"{payload['repeats']} interleaved runs)"
    ]
    for entry in payload["series"]:
        lines.append(
            f"  {entry['executor']:11s} {entry['workers']} worker(s): "
            f"{entry['cells_per_sec']:.2f} cells/s ({entry['wall_s']['min']:.2f} s, "
            f"{entry['speedup_vs_1_worker']:.2f}x vs 1 worker)"
        )
    if payload["assert_skipped"]:
        lines.append("  (single-core machine: distributed speedup bar not asserted)")
    return "\n".join(lines)


def test_executor_scaling(benchmark, results_dir):
    """Both executors at 1..4 workers; BENCH JSON emitted, both bars asserted."""
    payload = benchmark.pedantic(measure_scaling, args=(6,), rounds=1, iterations=1)
    write_result("executor_scaling", payload)
    emit(results_dir, "executor_scaling", _render(payload))
    check_bars(payload)


if __name__ == "__main__":
    payload = measure_scaling(cells=6 if "--smoke" in sys.argv[1:] else 8)
    path = write_result("executor_scaling", payload)
    print(_render(payload))
    print(f"wrote {path}")
    check_bars(payload)
