"""Instrumentation overhead: each plane on vs off over its own smoke grid.

The two planes of :mod:`repro.telemetry.core` are measured separately, each
on the grid where it does the most work: ``spans`` on a serial flow
ping-pong grid (solver and engine spans), ``probes`` on a serial flit
ping-pong grid (link samplers plus the UGAL decision audit at the default
interval and decision rate).  Each plane's enabled run must stay within 5%
of the same grid with instrumentation off.

Measuring a few percent on a shared machine needs care, so the protocol is
deliberately defensive: CPU time (``time.process_time``) instead of wall
clock, interleaved runs whose mode order flips every pair (so
thermal/frequency drift cannot systematically land on one mode), the
minimum over all runs per mode (the least-disturbed sample), and up to
three measurement attempts — ambient noise can only spuriously *inflate*
the estimate, so retrying a failed attempt is sound while a genuine
regression keeps failing.

The disabled fast path is bounded too.  With a plane off its only cost is
one check per hot-path entry: ``TELEMETRY.enabled`` per would-be span, and
for probes ``probe_hook is not None`` per executed event in the sim
engines plus ``TELEMETRY.recorder is not None`` per adaptive routing
decision.  The bench microbenchmarks that guard, counts how many times one
grid hits it (span counts, executed events and decisions seen, all read
from one instrumented cell), and asserts the implied disabled-mode overhead
is under 1% of the baseline.  A JSON artifact goes to
``benchmarks/results/BENCH_instrument_overhead.json``::

    python benchmarks/bench_instrument_overhead.py            # 8 + 4 cells
    python benchmarks/bench_instrument_overhead.py --smoke    # CI grids (4 + 2)
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

if __package__ in (None, ""):  # `python benchmarks/bench_instrument_overhead.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import RESULTS_DIR, emit
from repro.campaign import CampaignPlan, RunSpec, ensure_builtin_scenarios, run_cell
from repro.telemetry import TELEMETRY, disable, enable
from repro.telemetry.probes import DECISION_RATE, INTERVAL

ENABLED_CEILING_PCT = 5.0
DISABLED_CEILING_PCT = 1.0
REPEATS = 8
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


def _run_grid(plan: CampaignPlan) -> float:
    """Execute every cell serially in-process; returns CPU seconds."""
    start = time.process_time()
    for spec in plan.specs:
        record = run_cell(spec)
        assert record.ok, record.error
    return time.process_time() - start


def _run_mode(plan: CampaignPlan, plane: str, on: bool) -> float:
    disable("spans,probes")
    if on:
        enable(plane)
    try:
        return _run_grid(plan)
    finally:
        disable("spans,probes")


def _guard_ns() -> float:
    """Cost of one disabled-path guard per hit.

    The loop runs the two guard shapes the probes hot paths use — the
    engines' ``hook is not None`` and the router's recorder check — back to
    back, and includes loop overhead.  Both overestimate every single guard
    site (the spans guard is one attribute check): the conservative
    direction for the <1% disabled bound.
    """
    hook = None
    start = time.perf_counter()
    for _ in range(GUARD_ITERS):
        if hook is not None:
            raise AssertionError("unreachable")
        if TELEMETRY.recorder is not None:
            raise AssertionError("probes must be off for the guard bench")
    return (time.perf_counter() - start) / GUARD_ITERS * 1e9


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
    """One attempt: interleaved order-flipping pairs, minimum per mode."""
    disabled_runs, enabled_runs = [], []
    for pair in range(repeats):
        first_on = pair % 2 == 1
        for on in (first_on, not first_on):
            (enabled_runs if on else disabled_runs).append(
                _run_mode(plan, plane, on)
            )
    baseline = min(disabled_runs)
    enabled = min(enabled_runs)
    return {
        "disabled_s": [round(v, 4) for v in disabled_runs],
        "enabled_s": [round(v, 4) for v in enabled_runs],
        "baseline_s": round(baseline, 4),
        "instrumented_s": round(enabled, 4),
        "enabled_overhead_pct": round((enabled / baseline - 1.0) * 100.0, 3),
    }


def measure_plane(
    plane: str, cells: int, guard_ns: float,
    repeats: int = REPEATS, attempts: int = ATTEMPTS,
) -> dict:
    """Time one plane's grid off and on; returns that plane's JSON entry."""
    plan = _bench_plan(plane, cells)
    _run_grid(plan)  # warm caches/imports outside both measured modes

    trials = []
    for _ in range(attempts):
        trials.append(_measure_once(plan, plane, repeats))
        if trials[-1]["enabled_overhead_pct"] <= ENABLED_CEILING_PCT:
            break
    best = min(trials, key=lambda t: t["enabled_overhead_pct"])

    guard_checks = _guard_checks_per_run(plan, plane)
    disabled_pct = guard_checks * guard_ns / (best["baseline_s"] * 1e9) * 100.0
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
    guard_ns = _guard_ns()
    planes = {
        plane: measure_plane(plane, grid[3] if smoke else grid[2], guard_ns, repeats)
        for plane, grid in GRIDS.items()
    }
    return {
        "benchmark": "instrument_overhead",
        "repeats": repeats,
        "interval": INTERVAL,
        "decision_rate": DECISION_RATE,
        "enabled_ceiling_pct": ENABLED_CEILING_PCT,
        "disabled_ceiling_pct": DISABLED_CEILING_PCT,
        "guard_ns_per_check": round(guard_ns, 2),
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


def _write_json(payload: dict, results_dir: pathlib.Path) -> pathlib.Path:
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_instrument_overhead.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _render(payload: dict) -> str:
    lines = [
        f"instrumentation overhead (min of {payload['repeats']} interleaved "
        f"runs; probes at interval {payload['interval']}, decision "
        f"rate {payload['decision_rate']})"
    ]
    for plane, entry in payload["planes"].items():
        lines += [
            f"  {plane} ({entry['grid_cells']}-cell {entry['backend']} grid, "
            f"{entry['attempts']} attempt(s))",
            f"    off: {entry['baseline_s']:.3f} s CPU",
            f"    on:  {entry['instrumented_s']:.3f} s CPU "
            f"({entry['enabled_overhead_pct']:+.2f}%, "
            f"ceiling {payload['enabled_ceiling_pct']:.0f}%)",
            f"    disabled guard: {payload['guard_ns_per_check']:.0f} ns/check x "
            f"{entry['guard_checks_per_run']} checks = "
            f"{entry['disabled_overhead_pct']:.4f}% "
            f"(ceiling {payload['disabled_ceiling_pct']:.0f}%)",
        ]
    return "\n".join(lines)


def test_instrument_overhead(benchmark, results_dir):
    """Per-plane on-vs-off grids; BENCH JSON emitted, 5%/1% bars asserted."""
    payload = benchmark.pedantic(measure_overhead, args=(True,), rounds=1, iterations=1)
    _write_json(payload, results_dir)
    emit(results_dir, "instrument_overhead", _render(payload))
    check_overhead(payload)


if __name__ == "__main__":
    payload = measure_overhead(smoke="--smoke" in sys.argv[1:])
    path = _write_json(payload, RESULTS_DIR)
    print(_render(payload))
    print(f"wrote {path}")
    check_overhead(payload)
