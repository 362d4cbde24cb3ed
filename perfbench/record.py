#!/usr/bin/env python3
"""Record the benchmark's ``baseline.json``: seed pools, output hashes, figures.

Two steps, run from the repository root on the commit being recorded::

    python3 perfbench/record.py pool        # seed pools + recorded outputs
    python3 perfbench/record.py baseline    # end-to-end medians, per-layer table

``pool`` executes every workload twice per candidate campaign seed and
the ``2 * POOL_SIZE`` candidates closest to the median CPU time three
times more (CPU times host-scaled like the benchmark's, see
``run.HostSpeed``); the ``POOL_SIZE`` finalists whose median CPU times lie
closest together become the workload's pool.  The benchmark's ``--seed``
indexes this pool, so runs at different seeds replay different campaigns
of the same size, and their spread measures the program rather than how
much work a seed happens to draw (one ``cluster-trace`` cell costs 1-8 s
CPU depending on its synthetic trace).  The output hashes of every pool
seed, of the program's default campaign seed and of one held-out seed
(never used for tuning; reach it with ``run.py --campaign-seed``) are
recorded with the routing split, which does not depend on the seed.
``select`` redoes the selection and the hashes from the stored
calibration.

``baseline`` runs the benchmark command itself, once per seed, and
records each end-to-end metric's median and quartile spread, then one
traced run per workload for the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Mapping

import run
import workloads

DEFAULT_SEED = 2019
HELD_OUT_SEED = 7919
POOL_SIZE = 4


def _save(baseline) -> None:
    workloads.BASELINE_PATH.write_text(
        json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def _measure(workload, seed: int, reps: int, speed: run.HostSpeed):
    """``reps`` repetitions at a campaign seed: (host-scaled CPU times, check)."""
    plan = workloads.plan(workload, seed)
    runner = run.Runner(workload, plan, {}, run.WORK / f"record-{seed}")
    cpus = []
    try:
        speed.sample()
        for _ in range(reps):
            _, cpu, chk, _, _ = runner.rep()
            cpus.extend(speed.scale(cpu))
    finally:
        runner.cleanup()
    if runner.failed:
        raise SystemExit(f"{workload.name} seed {seed}: {runner.problems}")
    print(f"{workload.name} seed {seed}: scaled cpu {[round(c, 3) for c in cpus]} "
          f"digest {chk.digest}", flush=True)
    return cpus, chk


def calibrate(workload, candidates: int, speed: run.HostSpeed) -> Dict[str, List[float]]:
    """Host-scaled CPU times per candidate seed: two each, five for finalists."""
    _measure(workload, 1, 1, speed)  # warm-up
    seeds = list(range(1, candidates + 1))
    cpu = {seed: _measure(workload, seed, 2, speed)[0] for seed in seeds}
    center = statistics.median(statistics.median(v) for v in cpu.values())
    finalists = sorted(seeds, key=lambda s: abs(math.log(statistics.median(cpu[s]) / center)))
    for seed in finalists[:2 * POOL_SIZE][::-1]:
        cpu[seed].extend(_measure(workload, seed, 3, speed)[0])
    return {str(seed): [round(x, 4) for x in cpu[seed]] for seed in seeds}


def select_pool(calibration: Mapping[str, List[float]]) -> List[int]:
    """The ``POOL_SIZE`` finalists whose median CPU times lie closest together."""
    finalists = sorted(
        (statistics.median(v), int(seed)) for seed, v in calibration.items() if len(v) > 2
    )
    windows = [finalists[i:i + POOL_SIZE] for i in range(len(finalists) - POOL_SIZE + 1)]
    tightest = min(windows, key=lambda w: math.log(w[-1][0] / w[0][0]))
    return sorted(seed for _, seed in tightest)


def record_outputs(workload, pool: List[int], speed: run.HostSpeed) -> Dict:
    """Output hashes and routing split of the pool, default and held-out seeds."""
    recorded = pool + [DEFAULT_SEED, HELD_OUT_SEED]
    checks = {seed: _measure(workload, seed, 1, speed)[1] for seed in recorded}
    splits = {json.dumps(chk.split, sort_keys=True) for chk in checks.values()}
    if len(splits) != 1:
        raise SystemExit(f"{workload.name}: routing split depends on the seed: {splits}")
    return {
        "why": workload.why,
        "pool": pool,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": recorded,
        "split": checks[DEFAULT_SEED].split,
        "digests": {str(s): checks[s].digest for s in recorded},
        "cells": {k: v for s in recorded for k, v in checks[s].hashes.items()},
    }


def record_pool(names, candidates: int, measure: bool) -> None:
    import repro.campaign as campaign

    campaign.ensure_builtin_scenarios()
    baseline = workloads.load_baseline()
    entries = baseline.setdefault("workloads", {})
    speed = run.HostSpeed()
    for name in names:
        workload = workloads.WORKLOADS[name]
        entry = entries.setdefault(name, {})
        if measure:
            entry["calibration_scaled_cpu_s"] = calibrate(workload, candidates, speed)
        entry.update(record_outputs(workload, select_pool(entry["calibration_scaled_cpu_s"]),
                                    speed))
        _save(baseline)


def _run_bench(name: str, seed: int, seconds: int, trace: int):
    command = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
               "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{name} seed {seed} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def record_baseline(names, runs: int, seconds: int) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    baseline = workloads.load_baseline()
    for name in names:
        values = {}
        for seed in range(runs):
            t0 = time.perf_counter()
            result, _ = _run_bench(name, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: output check failed")
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed} ({time.perf_counter() - t0:.0f} s): "
                  + ", ".join(f"{m} {e['value']:.4g}" for m, e in result["metrics"].items()),
                  flush=True)
        summary = {}
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            summary[metric] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median,
                "unit": result["metrics"][metric]["unit"],
                "better": better[metric],
                "runs": len(series),
            }
            print(f"  {metric}: median {median:.4g}, spread {summary[metric]['spread']:.3f}")
        entry = baseline["workloads"][name]
        entry["end_to_end"] = summary
        _save(baseline)
        traced, table = _run_bench(name, 0, seconds, 1)
        entry["per_layer"] = {
            metric: {"value": e["value"], "unit": e["unit"], "better": better[metric]}
            for metric, e in traced["metrics"].items()
        }
        start = next(i for i, line in enumerate(table) if line.startswith("per-layer table"))
        end = next(i for i, line in enumerate(table) if line.startswith("per-layer metrics"))
        entry["layer_table"] = [line for line in table[start:end] if line.strip()]
        entry["run_seconds"] = seconds
        _save(baseline)


def main() -> None:
    run._import_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("step", choices=("pool", "select", "baseline"))
    parser.add_argument("--workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--candidates", type=int, default=16)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    if args.step in ("pool", "select"):
        record_pool(args.workloads, args.candidates, measure=args.step == "pool")
    else:
        record_baseline(args.workloads, args.runs, args.seconds)


if __name__ == "__main__":
    main()
