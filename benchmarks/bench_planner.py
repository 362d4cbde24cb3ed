"""Planner throughput: blind vs. cost-routed campaign planning.

Planning used to be pure grid expansion; with ``backend="auto"`` every cell
is profiled, costed under each backend and routed under a budget.  This
benchmark measures what that costs on a synthetic three-axis grid:

* ``blind`` — fixed-backend expansion (the pre-cost-model planner path);
* ``auto`` — cost estimation + fidelity routing for every cell;
* ``auto+budget`` — the same plus the greedy budget-demotion pass.

The three modes are contenders of the shared protocol in
``benchmarks/timing.py`` (``REPEATS`` interleaved warm rounds, min of
process CPU, quartiles recorded).  A JSON artifact with the series is
written to ``benchmarks/results/BENCH_planner.json``::

    python -m pytest benchmarks/bench_planner.py -q -s
    python benchmarks/bench_planner.py            # standalone, same JSON
    python benchmarks/bench_planner.py --smoke    # smaller grid (CI)

The bar: cost-routed planning must stay above ``MIN_CELLS_PER_SEC`` — the
point of the cost layer is to make *running* cheaper, so *planning* must
stay effectively free next to any real campaign execution.
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import sys

if __package__ in (None, ""):  # `python benchmarks/bench_planner.py`
    ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.conftest import emit
from benchmarks.timing import Region, interleave, write_result
from repro.campaign import BackendRouter, plan_campaign
from repro.campaign.registry import Scenario, ScenarioError, register

#: Interleaved timing rounds; every mode's time is its minimum.
REPEATS = 5

#: Acceptance bar: routed planning throughput, in cells per second.
MIN_CELLS_PER_SEC = 500.0


def _bench_runner(scale, **params):  # pragma: no cover - never executed
    return {"metrics": {}}


def _bench_cost(scale, *, a, b, c):
    """Heterogeneous volumes so budget demotion has a real greedy order."""
    return {
        "messages": 500.0 * (a + 1) * (b + 1),
        "message_bytes": 8192.0 * (c + 1),
        "concurrent_flows": 8.0,
    }


def ensure_scenario(axis_cells: int) -> str:
    """Register the synthetic benchmark grid (idempotent per size)."""
    name = f"_bench-planner-{axis_cells}"
    try:
        register(
            Scenario(
                name=name,
                description="synthetic planner-benchmark grid (never executed)",
                axes={
                    "a": tuple(range(axis_cells)),
                    "b": tuple(range(axis_cells)),
                    "c": tuple(range(4)),
                },
                runner=_bench_runner,
                cost_hints=_bench_cost,
            )
        )
    except ScenarioError:
        pass  # already registered in this process
    return name


def _timed_plan(name: str, kwargs: dict, region: Region):
    with region:
        return plan_campaign([name], **kwargs)


def measure_planner(axis_cells: int) -> dict:
    """Plan the grid blind, auto, and auto-under-budget; return the payload."""
    name = ensure_scenario(axis_cells)
    auto_plan = plan_campaign([name], backend="auto")
    flit_total = sum(cell.estimates["flit"].work for cell in auto_plan.costs)
    flow_total = sum(cell.estimates["flow"].work for cell in auto_plan.costs)
    budget = (flit_total + flow_total) / 2.0  # forces a real demotion pass
    modes = {
        "blind": {},
        "auto": {"backend": "auto"},
        "auto+budget": {"backend": "auto", "router": BackendRouter(budget=budget)},
    }
    timed = interleave(
        {mode: functools.partial(_timed_plan, name, kw) for mode, kw in modes.items()},
        REPEATS,
    )
    cells = len(timed["blind"].results[0])
    series = [
        {
            "mode": mode,
            "cells_per_sec": round(cells / max(1e-9, runs.cpu.min), 1),
            **runs.to_json(),
        }
        for mode, runs in timed.items()
    ]
    series[2]["demoted_cells"] = sum(
        1 for cell in timed["auto+budget"].results[0].costs if cell.reason == "budget"
    )
    return {
        "benchmark": "planner",
        "cells": cells,
        "repeats": REPEATS,
        "flit_total_work": round(flit_total, 1),
        "flow_total_work": round(flow_total, 1),
        "budget": round(budget, 1),
        "auto_overhead_vs_blind": round(
            timed["auto"].cpu.min / max(1e-9, timed["blind"].cpu.min), 2
        ),
        "routed_cells_per_sec": series[2]["cells_per_sec"],
        "series": series,
    }


def _render(payload: dict) -> str:
    lines = [
        f"planner throughput — {payload['cells']} cell grid "
        f"(min of {payload['repeats']} interleaved runs, process CPU)"
    ]
    for entry in payload["series"]:
        extra = (
            f", {entry['demoted_cells']} demoted" if "demoted_cells" in entry else ""
        )
        lines.append(
            f"  {entry['mode']:12s}: {entry['cpu_s']['min']:8.4f} s CPU "
            f"({entry['cells_per_sec']:>10.1f} cells/s{extra})"
        )
    lines.append(
        f"  auto overhead vs blind: {payload['auto_overhead_vs_blind']:.1f}x"
    )
    return "\n".join(lines)


def _assert_bars(payload: dict) -> None:
    routed = payload["routed_cells_per_sec"]
    assert routed >= MIN_CELLS_PER_SEC, (
        f"cost-routed planning too slow: {routed} cells/s "
        f"(bar: {MIN_CELLS_PER_SEC})"
    )


def test_planner_throughput(benchmark, results_dir):
    """Blind vs routed planning; JSON emitted for the perf trajectory."""
    payload = benchmark.pedantic(
        measure_planner, args=(16,), rounds=1, iterations=1
    )
    write_result("planner", payload)
    emit(results_dir, "planner", _render(payload))
    _assert_bars(payload)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="smaller grid for CI"
    )
    args = parser.parse_args()
    result = measure_planner(8 if args.smoke else 16)
    path = write_result("planner", result)
    print(_render(result))
    print(f"wrote {path}")
    _assert_bars(result)
