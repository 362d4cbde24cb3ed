#!/usr/bin/env python3
"""Fast self-test of the benchmark, on one cell per scenario.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that

* ``run.py`` prints every end-to-end and per-layer metric of
  ``BENCHMARK.json`` with its unit, on every workload, and ends with a
  well-formed result line;
* a tampered ``results/<hash>.json`` is counted as a failed cell, both
  against the recorded hashes and against the run's first repetition;
* a campaign whose routing split differs from the recorded one fails the
  output check as a whole.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def check_command(spec) -> None:
    """Every metric prints by name with its unit, in the table and the JSON."""
    for workload in workloads.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                       "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(command, capture_output=True, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            expect(done.returncode == 0 and bool(lines),
                   f"{workload} trace={trace}: exits 0 with output")
            if done.returncode != 0 or not lines:
                print(done.stderr[-2000:])
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace}: result line is correct and complete")
            printed = {
                tuple(line.split()[i] for i in (0, -1)) for line in lines[:-1] if line.strip()
            }
            missing = [
                m["name"] for m in wanted
                if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]
                or (m["name"], m["unit"]) not in printed
            ]
            expect(not missing, f"{workload} trace={trace}: every metric printed with "
                   f"its unit (missing: {missing})")
            expect(("failed_frac", "frac") in printed, f"{workload} trace={trace}: "
                   "failed_frac printed")
            if trace:
                expect(any(line.lstrip().startswith("unattributed") for line in lines)
                       and any("tracing overhead" in line for line in lines),
                       f"{workload}: layer table has the remainder and the overhead")


def _tamper(store) -> None:
    """Change one digit of the first result file, keeping it valid JSON."""
    path = sorted(store.results_dir.glob("*.json"))[0]
    text = path.read_text(encoding="utf-8")
    index = next(i for i, ch in enumerate(text) if ch.isdigit())
    digit = str((int(text[index]) + 1) % 10)
    path.write_text(text[:index] + digit + text[index + 1:], encoding="utf-8")


def check_tamper() -> None:
    workload = workloads.WORKLOADS["flit-pingpong"]
    plan = workloads.plan(workload, 0, tiny=True)
    runner = run.Runner(workload, plan, {}, run.WORK / "selftest-tamper")
    try:
        runner.rep()
        expect(runner.failed == 0, "clean repetition passes the output check")
        runner.rep(tamper=_tamper)
        expect(runner.failed == 1, "tampered result fails against the first repetition")
        recorded = {"seeds": [plan.seed], "cells": dict(runner.first_hashes)}
        pinned = run.Runner(workload, plan, recorded, run.WORK / "selftest-recorded")
        try:
            pinned.rep(tamper=_tamper)
        finally:
            pinned.cleanup()
        expect(pinned.failed == 1 and pinned.attempted == len(plan),
               "tampered result fails against the recorded hashes "
               f"(failed_frac {pinned.failed}/{pinned.attempted})")
    finally:
        runner.cleanup()


def check_split() -> None:
    workload = workloads.WORKLOADS["dist-auto"]
    plan = workloads.plan(workload, 0, tiny=True)
    recorded = {"split": workloads.split_of(plan, workload.audit_fraction)}
    # A tighter budget demotes a cell to flow: the campaign a store-seeded
    # cost history would also have planned differently.
    all_flit = sum(cell.estimates["flit"].work for cell in plan.costs)
    changed = workloads.plan(workload, 0, tiny=True, budget=all_flit - 1.0)
    expect(workloads.split_of(changed, workload.audit_fraction) != recorded["split"],
           "a tighter budget changes the routing split")
    runner = run.Runner(workload, changed, recorded, run.WORK / "selftest-split")
    try:
        runner.rep()
    finally:
        runner.cleanup()
    expect(runner.failed == runner.attempted and any("split" in p for p in runner.problems),
           f"a changed routing split fails every cell ({runner.failed}/{runner.attempted})")


def main() -> int:
    run._import_program()
    import repro.campaign as campaign

    campaign.ensure_builtin_scenarios()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_tamper()
    check_split()
    check_command(spec)
    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
