#!/usr/bin/env python3
"""Campaign benchmark: named campaign workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload flit-pingpong --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``flit-pingpong``, ``flow-cluster``,
``dist-auto``.  One run

1. times ``SETUP_PROBES`` fresh processes that import the package, build
   the registry, plan and route the campaign and check the (empty) cache —
   ``setup_s`` is their median;
2. after one untimed warm-up repetition, repeats the workload into a
   fresh empty store until ``--seconds`` are used (at least ``MIN_REPS``
   times), checking every repetition's outputs — ``wall_s`` and ``cpu_s``
   are medians over repetitions, ``cpu_s`` counting the runner and every
   child process it waited for;
3. with ``--trace 1``, alternates untraced and traced repetitions instead
   and reports the per-layer metrics of the traced ones (medians) plus
   the tracing overhead (traced minus untraced wall, medians).

Every end-to-end time is host-scaled (:class:`HostSpeed`): the benchmark
shares its host, whose speed drifts by tens of percent within minutes.
The unscaled medians are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 without a
result when the program's sources (``src/repro``) are not beside it.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh-process set-ups timed per run (``setup_s`` is their median).
SETUP_PROBES = 5
#: Repetitions measured per run even when they overrun ``--seconds``.
MIN_REPS = 3

#: End-to-end metric -> unit (``failed_frac`` and ``flow_err_max`` are
#: printed but travel as ``failed``/``attempted`` and a per-layer metric,
#: because an end-to-end metric must never be 0).
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, with a clean env.

    ``REPRO_*`` variables select engines and instrumentation; a benchmark
    run must not inherit them (spawned workers copy this environment).
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _cpu_now() -> float:
    """User+sys CPU of this process and every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


#: Nominal CPU time of :func:`reference_work`; timed spans are reported in
#: seconds of a host on which the reference loop takes this long.
REFERENCE_S = 0.1


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def reference_work() -> int:
    """A fixed pure-Python loop: object attribute updates, dict inserts, heap ops.

    It is the benchmark's own code, so a change to the program never moves
    it; its CPU time tracks how fast the host currently runs the kind of
    code the simulator is made of.
    """
    rng = random.Random(7)
    nodes = [_Node(i, 2 * i) for i in range(25000)]
    table = {}
    for i in range(50000):
        node = nodes[rng.randrange(25000)]
        node.a += 1
        table[(node.b, i & 1023)] = node
    heap: List = []
    for k in range(10000):
        heapq.heappush(heap, (k * 7919 % 10007, k))
    while heap:
        heapq.heappop(heap)
    return len(table)


class HostSpeed:
    """Scales timed spans by how fast the (shared) host ran while they ran.

    On a shared 2-vCPU VM the same repetition measured anywhere from 1.6 s
    to 3.8 s CPU within minutes, and a 0.1 s reference loop drifted with
    it.  Every timed span is multiplied by ``REFERENCE_S`` over the mean of
    the :func:`reference_work` samples taken just before and just after
    it: the result is seconds on a host where the reference loop takes
    ``REFERENCE_S``.  Over eight consecutive ``flit-pingpong`` runs this
    cut the run-to-run quartile spread of the median repetition from 29 %
    to 4 %; on ``flow-cluster`` (NumPy-heavy) it did not help.  A program
    change that does less work still shows in full, since the reference
    loop never runs program code.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.sample()

    def sample(self) -> None:
        t0 = time.process_time()
        reference_work()
        self.samples.append(time.process_time() - t0)

    def scale(self, *spans: float) -> List[float]:
        """Scale spans that ended now and began after the latest sample."""
        before = self.samples[-1]
        self.sample()
        factor = 2 * REFERENCE_S / (before + self.samples[-1])
        return [span * factor for span in spans]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probe(args) -> int:
    """Child mode: import, register, plan, route and cache-check, then exit."""
    import workloads
    import repro.campaign as campaign

    campaign.ensure_builtin_scenarios()
    workload = workloads.WORKLOADS[args.workload]
    plan = workloads.plan(workload, args.campaign_seed, tiny=args.tiny)
    store = campaign.ArtifactStore(WORK / "setup-probe-empty-store")
    cached = sum(1 for spec in plan if store.has(spec))
    split = workloads.split_of(plan, workload.audit_fraction)
    print(json.dumps({"cells": len(plan), "cached": cached, "split": split}))
    return 0


def time_setups(args, campaign_seed: int, count: int, speed: HostSpeed) -> List[Dict]:
    """Time ``count`` fresh set-up processes; returns their reports.

    ``seconds`` is host-scaled (see :class:`HostSpeed`), ``raw_s`` is not.
    """
    command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--campaign-seed", str(campaign_seed)]
    if args.tiny:
        command.append("--tiny")
    reports = []
    for _ in range(count):
        t0 = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        report["raw_s"] = elapsed
        (report["seconds"],) = speed.scale(elapsed)
        reports.append(report)
    return reports


class Runner:
    """Repetitions of one workload at one campaign seed, with output checks."""

    def __init__(self, workload, plan, recorded, work_dir: pathlib.Path,
                 make_plan=None) -> None:
        self.workload = workload
        self.plan = plan
        #: Rebuilds the plan inside traced repetitions, so planning is traced.
        self.make_plan = make_plan
        self.recorded = recorded
        self.work_dir = work_dir
        self.first_hashes: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.checks = []
        self._count = 0

    def rep(self, tracer=None, tamper=None):
        """One repetition; returns (wall_s, cpu_s, check, result, store)."""
        import workloads

        self._count += 1
        store_root = self.work_dir / f"rep-{self._count}"
        cpu0, t0 = _cpu_now(), time.perf_counter()
        if tracer is not None and self.make_plan is not None:
            if list(self.make_plan()) != list(self.plan):
                self.problems.append("re-planning gave a different campaign")
        result, store = workloads.execute(self.workload, self.plan, store_root, tracer)
        wall, cpu = time.perf_counter() - t0, _cpu_now() - cpu0
        if tamper is not None:
            tamper(store)
        chk = workloads.check(self.plan, result, store, self.workload.audit_fraction,
                              self.recorded, self.first_hashes)
        if self.first_hashes is None:
            self.first_hashes = chk.hashes
        self.attempted += chk.attempted
        self.failed += chk.failed
        self.problems.extend(p for p in chk.problems if p not in self.problems)
        self.checks.append(chk)
        return wall, cpu, chk, result, store

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _format(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def measure(runner: Runner, args, speed: HostSpeed) -> Dict:
    """Repeat until ``args.seconds`` are used; traced repetitions alternate in.

    Returns the untraced walls and CPU times (raw, and host-scaled by
    ``speed``), and for ``--trace 1`` the traced walls, per-layer metrics,
    layer tables and worker telemetry.
    """
    from layers import LayerTracer, worker_telemetry
    from repro.telemetry import core as telemetry

    out: Dict = {"walls": [], "cpus": [], "raw_walls": [], "raw_cpus": [],
                 "traced_walls": [], "traced": [], "tables": [], "workers": {}}
    dist = bool(runner.workload.workers)
    # One untimed, output-checked repetition first: lazy imports and the
    # program's caches fill before anything is timed.
    runner.rep()
    speed.sample()
    start = time.perf_counter()
    while True:
        wall, cpu, *_ = runner.rep()
        out["raw_walls"].append(wall)
        out["raw_cpus"].append(cpu)
        wall, cpu = speed.scale(wall, cpu)
        out["walls"].append(wall)
        out["cpus"].append(cpu)
        if args.trace:
            tracer = LayerTracer()
            if dist:
                telemetry.enable()  # session and per-cell telemetry from workers
            try:
                with tracer:
                    wall, _, chk, result, store = runner.rep(tracer=tracer)
            finally:
                telemetry.disable()
            speed.sample()  # the next untraced repetition starts from here
            out["traced_walls"].append(wall)
            out["traced"].append(tracer.metrics(result, store, wall, chk.flow_err_max or 0.0))
            out["tables"].append(tracer.table(wall))
            if dist:
                out["workers"] = worker_telemetry(store)
        elapsed = time.perf_counter() - start
        rounds = len(out["walls"])
        if rounds >= (1 if args.trace else MIN_REPS) and elapsed * (rounds + 1) / rounds > args.seconds:
            return out


def print_layer_table(out: Dict, dist: bool) -> float:
    """Print the middle traced repetition's layer table; returns the overhead."""
    traced_wall = statistics.median(out["traced_walls"])
    untraced_wall = statistics.median(out["raw_walls"])
    middle = len(out["tables"]) // 2
    print(f"\nper-layer table (traced repetition, wall {out['traced_walls'][middle]:.3f} s;"
          " share of traced wall, single-threaded so about CPU):")
    print(f"  {'layer':20s} {'calls':>10s} {'self s':>10s} {'share':>8s}")
    for layer, calls, self_s, share in out["tables"][middle]:
        print(f"  {layer:20s} {calls:>10d} {self_s:>10.4f} {100 * share:>7.1f}%")
    overhead = traced_wall - untraced_wall
    print(f"  tracing overhead: traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s"
          f" = {overhead:.3f} s (wall, medians)")
    if dist:
        print("  layers inside worker processes are not wrapped; they appear only in the")
        print("  session telemetry (REPRO_TELEMETRY snapshots of every worker cell):")
        for name, value in sorted(out["workers"].items()):
            print(f"    {name:24s} {_format(value)}")
    return overhead


def run(args) -> int:
    import workloads

    baseline = {} if args.tiny else workloads.load_baseline()
    workload = workloads.WORKLOADS[args.workload]
    recorded = baseline.get("workloads", {}).get(workload.name, {})
    seed = workloads.campaign_seed(workload, args.seed, baseline)
    if args.campaign_seed is not None:
        seed = args.campaign_seed

    speed = HostSpeed()
    probes = time_setups(args, seed, 2 if args.tiny else SETUP_PROBES, speed)

    import repro.campaign as campaign

    campaign.ensure_builtin_scenarios()
    plan = workloads.plan(workload, seed, tiny=args.tiny)
    split = workloads.split_of(plan, workload.audit_fraction)
    problems = [
        f"set-up probe planned {p['cells']} cell(s), {p['cached']} cached, split {p['split']}"
        for p in probes
        if p["cells"] != len(plan) or p["cached"] or p["split"] != split
    ]
    runner = Runner(workload, plan, recorded, WORK / f"run-{os.getpid()}",
                    make_plan=lambda: workloads.plan(workload, seed, tiny=args.tiny))
    try:
        out = measure(runner, args, speed)
    finally:
        runner.cleanup()
    problems.extend(runner.problems)
    attempted = runner.attempted
    # A set-up probe that planned a different campaign fails the whole run.
    failed = attempted if problems and not runner.failed else runner.failed

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed} -> campaign seed {seed}; {len(plan)} cell(s), split {split}; "
          f"{len(out['walls'])} untraced repetition(s); digest {runner.checks[0].digest}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if args.trace:
        from layers import METRIC_UNITS

        values = {name: statistics.median(t[name] for t in out["traced"])
                  for name in out["traced"][0]}
        values["trace.overhead_s"] = print_layer_table(out, bool(workload.workers))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in METRIC_UNITS.items()}
        print("\nper-layer metrics (medians over traced repetitions)")
    else:
        values = {
            "setup_s": statistics.median(p["seconds"] for p in probes),
            "wall_s": statistics.median(out["walls"]),
            "cpu_s": statistics.median(out["cpus"]),
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        print(f"\nraw medians: setup {statistics.median(p['raw_s'] for p in probes):.4f} s, "
              f"wall {statistics.median(out['raw_walls']):.4f} s, "
              f"cpu {statistics.median(out['raw_cpus']):.4f} s")
        print("repetition cpu s (raw): " + " ".join(f"{c:.4f}" for c in out["raw_cpus"]))
        print("reference loop s (before the first set-up, then after each set-up, "
              "warm-up and repetition): " + " ".join(f"{x:.4f}" for x in speed.samples))
        print("end-to-end, host-scaled (set-up: median of fresh processes; "
              "wall/cpu: median of repetitions)")
    for name, metric in metrics.items():
        print(f"  {name:26s} {_format(metric['value']):>14s} {metric['unit']}")
    print(f"  {'failed_frac':26s} {_format(failed / attempted if attempted else 1.0):>14s} frac")
    if workload.audit_fraction:
        errors = [c.flow_err_max for c in runner.checks if c.flow_err_max is not None]
        worst = max(errors) if errors else float("nan")
        print(f"  {'flow_err_max':26s} {_format(worst):>14s} ratio")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--campaign-seed", type=int, default=None,
                        help="bypass the seed pool (held-out seeds, recording)")
    parser.add_argument("--tiny", action="store_true",
                        help="one cell per scenario, no recorded hashes (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    try:
        return run(args)
    finally:
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
