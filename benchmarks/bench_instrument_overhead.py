"""Instrumentation overhead: each plane on vs off over its own smoke grid.

The two planes of :mod:`repro.telemetry.core` are measured separately, each
on the grid where it does the most work: ``spans`` on a serial flow
ping-pong grid (solver and engine spans), ``probes`` on a serial flit
ping-pong grid (link samplers plus the UGAL decision audit at the default
interval and decision rate).  Each plane's enabled run must stay within 5%
of the same grid with instrumentation off.

Measuring a few percent on a shared machine needs care.  Every cell of a
grid is two contenders of the shared protocol in ``benchmarks/timing.py``
(plane off, plane on), so a sample is one ``run_cell`` call: interleaved
order-flipping warm rounds, process CPU of the measured region only, and
the minimum per contender.  A mode's grid time is the sum of its cells'
minima, so a disturbance has to hit the same cell in every round, not just
one whole-grid run, to inflate it.  Up to three measurement attempts run —
ambient noise can only spuriously *inflate* the estimate, so retrying a
failed attempt is sound while a genuine regression keeps failing.

The disabled fast path is bounded too.  With a plane off its only cost is
one check per hot-path entry: ``TELEMETRY.enabled`` per would-be span, and
for probes ``probe_hook is not None`` per executed event in the sim
engines plus ``TELEMETRY.recorder is not None`` per adaptive routing
decision.  The bench microbenchmarks that guard in the same interleaved
rounds as the grid, counts how many times one grid hits it (span counts,
executed events and decisions seen, all read from one instrumented cell),
and asserts the implied disabled-mode overhead is under 1% of the
baseline.  A JSON artifact goes to
``benchmarks/results/BENCH_instrument_overhead.json``::

    python benchmarks/bench_instrument_overhead.py            # 8 + 4 cells
    python benchmarks/bench_instrument_overhead.py --smoke    # CI grids (4 + 2)
"""

from __future__ import annotations

import functools
import pathlib
import sys

if __package__ in (None, ""):  # `python benchmarks/bench_instrument_overhead.py`
    ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.conftest import emit
from benchmarks.timing import Region, interleave, write_result
from repro.campaign import CampaignPlan, RunSpec, ensure_builtin_scenarios, run_cell
from repro.telemetry import TELEMETRY, disable, enable
from repro.telemetry.probes import DECISION_RATE, INTERVAL

ENABLED_CEILING_PCT = 5.0
DISABLED_CEILING_PCT = 1.0
REPEATS = 16
ATTEMPTS = 3
GUARD_ITERS = 200_000

#: plane -> (backend, first seed, cells in the full grid, cells at --smoke).
GRIDS = {
    "spans": ("flow", 4000, 8, 4),
    "probes": ("flit", 4100, 4, 2),
}


def _bench_plan(plane: str, cells: int) -> CampaignPlan:
    """A serial grid for one plane: distinct seeds, identical work per cell."""
    ensure_builtin_scenarios()
    backend, seed, _full, _smoke = GRIDS[plane]
    specs = tuple(
        RunSpec.make(
            "pingpong-placement",
            {"placement": "inter-groups", "message_kib": 16, "noise": "light"},
            seed=seed + i,
            backend=backend,
        )
        for i in range(cells)
    )
    return CampaignPlan(name=f"bench-{plane}", specs=specs)


def _run_mode(spec: RunSpec, plane: str, on: bool, region: Region) -> None:
    """Run one cell with ``plane`` on or off, timing only ``run_cell``."""
    disable("spans,probes")
    if on:
        enable(plane)
    try:
        with region:
            record = run_cell(spec)
    finally:
        disable("spans,probes")
    assert record.ok, record.error


def _guard_loop(region: Region) -> None:
    """The disabled-path guard, ``GUARD_ITERS`` times.

    The loop runs the two guard shapes the probes hot paths use — the
    engines' ``hook is not None`` and the router's recorder check — back to
    back, and includes loop overhead.  Both overestimate every single guard
    site (the spans guard is one attribute check): the conservative
    direction for the <1% disabled bound.
    """
    hook = None
    with region:
        for _ in range(GUARD_ITERS):
            if hook is not None:
                raise AssertionError("unreachable")
            if TELEMETRY.recorder is not None:
                raise AssertionError("probes must be off for the guard bench")


def _guard_checks_per_run(plan: CampaignPlan, plane: str) -> int:
    """How many disabled-path guard hits one grid performs for ``plane``.

    Every span an enabled run records is one ``TELEMETRY.enabled`` branch a
    disabled run takes instead.  The engines check ``probe_hook`` once per
    executed event (the ``sim.events`` counter) and the router checks the
    recorder once per adaptive decision (``decisions_seen``).  One cell run
    with both planes on measures all three.
    """
    enable("spans,probes")
    try:
        record = run_cell(plan.specs[0])
        assert record.ok and record.telemetry is not None
        if plane == "spans":
            per_cell = sum(
                agg["count"] for agg in record.telemetry["spans"].values()
            )
        else:
            per_cell = int(record.telemetry["counters"].get("sim.events", 0))
            per_cell += int((record.probes or {}).get("decisions_seen", 0))
    finally:
        disable("spans,probes")
    return per_cell * len(plan.specs)


def _measure_once(plan: CampaignPlan, plane: str, repeats: int) -> dict:
    """One attempt: every cell off and on, interleaved; sums of cell minima.

    The guard loop runs in the same rounds, so its cost and the baseline
    it is compared with are measured under the same machine load.
    """
    contenders = {"guard": _guard_loop}
    for cell, spec in enumerate(plan.specs):
        for mode, on in (("off", False), ("on", True)):
            contenders[f"cell{cell}/{mode}"] = functools.partial(
                _run_mode, spec, plane, on
            )
    timed = interleave(contenders, repeats)
    guard = timed.pop("guard")
    baseline = sum(runs.cpu.min for name, runs in timed.items() if name.endswith("off"))
    enabled = sum(runs.cpu.min for name, runs in timed.items() if name.endswith("on"))
    return {
        "cells_cpu_s": {name: runs.cpu.to_json() for name, runs in timed.items()},
        "guard_ns_per_check": round(guard.cpu.min * 1e9 / GUARD_ITERS, 2),
        "baseline_s": round(baseline, 4),
        "instrumented_s": round(enabled, 4),
        "enabled_overhead_pct": round((enabled / baseline - 1.0) * 100.0, 3),
    }


def measure_plane(
    plane: str, cells: int, repeats: int = REPEATS, attempts: int = ATTEMPTS,
) -> dict:
    """Time one plane's grid off and on; returns that plane's JSON entry."""
    plan = _bench_plan(plane, cells)
    trials = []
    for _ in range(attempts):
        trials.append(_measure_once(plan, plane, repeats))
        if trials[-1]["enabled_overhead_pct"] <= ENABLED_CEILING_PCT:
            break
    best = min(trials, key=lambda t: t["enabled_overhead_pct"])

    guard_checks = _guard_checks_per_run(plan, plane)
    disabled_pct = (
        guard_checks * best["guard_ns_per_check"] / (best["baseline_s"] * 1e9) * 100.0
    )
    entry = {
        "backend": GRIDS[plane][0],
        "grid_cells": len(plan),
        "attempts": len(trials),
        "trials": trials,
        "guard_checks_per_run": guard_checks,
        "disabled_overhead_pct": round(disabled_pct, 4),
    }
    entry.update(best)  # the attempt the assertion runs against
    return entry


def measure_overhead(smoke: bool, repeats: int = REPEATS) -> dict:
    """Measure every plane; returns the JSON payload."""
    disable("spans,probes")
    planes = {
        plane: measure_plane(plane, grid[3] if smoke else grid[2], repeats)
        for plane, grid in GRIDS.items()
    }
    return {
        "benchmark": "instrument_overhead",
        "repeats": repeats,
        "interval": INTERVAL,
        "decision_rate": DECISION_RATE,
        "enabled_ceiling_pct": ENABLED_CEILING_PCT,
        "disabled_ceiling_pct": DISABLED_CEILING_PCT,
        "planes": planes,
    }


def check_overhead(payload: dict) -> None:
    """Assert both overhead ceilings for every plane."""
    for plane, entry in payload["planes"].items():
        assert entry["enabled_overhead_pct"] <= payload["enabled_ceiling_pct"], (
            f"{plane} slow the {entry['backend']} campaign by "
            f"{entry['enabled_overhead_pct']}% "
            f"(ceiling: {payload['enabled_ceiling_pct']}%)"
        )
        assert entry["disabled_overhead_pct"] < payload["disabled_ceiling_pct"], (
            f"disabled {plane} guard costs {entry['disabled_overhead_pct']}% "
            f"(ceiling: {payload['disabled_ceiling_pct']}%)"
        )


def _render(payload: dict) -> str:
    lines = [
        f"instrumentation overhead (sum of per-cell minima over "
        f"{payload['repeats']} interleaved runs; probes at interval "
        f"{payload['interval']}, decision rate {payload['decision_rate']})"
    ]
    for plane, entry in payload["planes"].items():
        lines += [
            f"  {plane} ({entry['grid_cells']}-cell {entry['backend']} grid, "
            f"{entry['attempts']} attempt(s))",
            f"    off: {entry['baseline_s']:.3f} s CPU",
            f"    on:  {entry['instrumented_s']:.3f} s CPU "
            f"({entry['enabled_overhead_pct']:+.2f}%, "
            f"ceiling {payload['enabled_ceiling_pct']:.0f}%)",
            f"    disabled guard: {entry['guard_ns_per_check']:.0f} ns/check x "
            f"{entry['guard_checks_per_run']} checks = "
            f"{entry['disabled_overhead_pct']:.4f}% "
            f"(ceiling {payload['disabled_ceiling_pct']:.0f}%)",
        ]
    return "\n".join(lines)


def test_instrument_overhead(benchmark, results_dir):
    """Per-plane on-vs-off grids; BENCH JSON emitted, 5%/1% bars asserted."""
    payload = benchmark.pedantic(measure_overhead, args=(True,), rounds=1, iterations=1)
    write_result("instrument_overhead", payload)
    emit(results_dir, "instrument_overhead", _render(payload))
    check_overhead(payload)


if __name__ == "__main__":
    payload = measure_overhead(smoke="--smoke" in sys.argv[1:])
    path = write_result("instrument_overhead", payload)
    print(_render(payload))
    print(f"wrote {path}")
    check_overhead(payload)
