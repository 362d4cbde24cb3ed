"""Flit-engine benchmark: calendar-vs-reference parity, speedup over the seed.

Measurements on the ``bench_backends`` scenario (noisy inter-group
16 KiB ping-pong), flit backend only:

1. **Parity** — the scenario runs under each engine kind (``calendar``
   bucketed queue, ``reference`` binary heap).  All runs must be
   event-for-event equivalent: identical event counts, simulated cycles,
   per-iteration timelines, NIC counter blocks and routing-decision
   tallies.  The digests are compared byte-for-byte and the benchmark
   *fails* on any mismatch — the speedup numbers are meaningless without it.
2. **Engine matrix** — CPU time, events and events/s per engine;
   ``calendar_speedup_vs_reference`` isolates the scheduler data structure.
3. **Seed speedup** — the production engine (``calendar``) vs the *frozen
   pre-optimization tree* (``SEED_REV``), materialized from git history into
   a temp directory via ``git archive`` and run in a subprocess.  This
   captures the aggregate effect of the calendar scheduler, the
   event-count reduction and the callback slimming.  When the seed commit
   is absent from history (shallow clone, sdist) the section is skipped
   with a notice; any *other* rebuild failure raises loudly instead of
   silently writing ``null``.

Timing protocol (the one ``bench_instrument_overhead.py`` uses): process
CPU time (``time.process_time``) of the measured region only, ``REPEATS``
interleaved rounds whose contender order flips every round (so drift
cannot systematically land on one contender), and the minimum per
contender — ambient noise can only *inflate* a sample, so the minimum is
the least-disturbed one.  Every contender, the seed included, runs the
scenario once untimed first, so all are compared warm.  Each contender's
samples and spread go into the JSON artifact
``benchmarks/results/BENCH_flit_engine.json``::

    python -m pytest benchmarks/bench_flit_engine.py -q -s
    python benchmarks/bench_flit_engine.py            # standalone, same JSON
    python benchmarks/bench_flit_engine.py --smoke    # tiny scenario (CI)
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

if __package__ in (None, ""):  # `python benchmarks/bench_flit_engine.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import RESULTS_DIR, emit
from repro.experiments.harness import ExperimentScale
from repro.model import build_network_model
from repro.mpi.job import MpiJob
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.sim.engine import SIM_ENGINE_ENV_VAR, SIM_ENGINE_KINDS, make_simulator
from repro.workloads.microbench import PingPongBenchmark

#: The pre-optimization tree the engine work started from (kept runnable
#: from git history so the speedup baseline is measured, not remembered).
SEED_REV = "1db438ac73c347f8a8b1be20c4db375bc1e5f97c"

#: Interleaved timing rounds; every contender's time is its minimum.
REPEATS = 5

#: Self-asserted floor for the end-to-end speedup of the production engine
#: (calendar) over the seed tree.  The original 5x target was not reached
#: in pure CPython: the event count is already within ~5% of the
#: information-theoretic floor (one arrival per hop), and with exact
#: decision parity every remaining cycle is per-packet routing/NIC
#: bookkeeping that must run at its simulated time (queue depths are probed
#: signals), so it cannot be batched across cycles (see README "Flit
#: engine").
MIN_SEED_SPEEDUP = 1.5

#: The calendar engine must never regress against the reference engine
#: (0.9 rather than 1.0 absorbs timer noise on loaded CI machines).
MIN_ENGINE_SPEEDUP = 0.9

#: The seed-tree side of the comparison: the seed's own scenario runner
#: (``bench_backends.run_backend``, the same scenario and measured region as
#: :func:`run_flit`), with that module's clock switched to process CPU time
#: and one untimed warm-up run.
_SEED_SCRIPT = """
import gc, json, time, types
import benchmarks.bench_backends as bench
from repro.experiments.harness import ExperimentScale
bench.time = types.SimpleNamespace(perf_counter=time.process_time)
scale = ExperimentScale.from_env("REPRO_BENCH_SCALE")
bench.run_backend("flit", scale)
gc.collect()
print(json.dumps(bench.run_backend("flit", scale)))
"""


def run_flit(engine: str, scale: ExperimentScale) -> dict:
    """Run the flit scenario once under one engine kind.

    Returns the measured region's process CPU time plus the run digest,
    which covers everything observable from the outside: event count,
    simulated cycles, the per-iteration timeline, both endpoint NIC counter
    blocks and the selector's decision tallies.  Two engines that execute
    the same events in the same order produce identical digests.
    """
    network = build_network_model(
        scale.simulation_config().with_backend("flit"),
        sim=make_simulator(engine),
    )
    allocation = [0, network.num_nodes - 1]
    noise = BackgroundTraffic.for_level(
        network, allocation, NoiseLevel.MODERATE, name="bench-noise"
    )
    if noise is not None:
        noise.start()
    # Same job name under every engine: the name seeds the job's random
    # streams, so it must be identical for runs to be comparable.
    job = MpiJob(network, allocation, name="bench-flit")
    workload = PingPongBenchmark(
        size_bytes=scale.scaled_size(16 * 1024),
        iterations=scale.pingpong_repetitions,
        warmup=1,
    )
    gc.collect()  # earlier runs' garbage must not be collected on our clock
    start = time.process_time()
    result = workload.run(job)
    if noise is not None:
        noise.stop()
    cpu_s = time.process_time() - start
    selector = network.selector
    observable = {
        "events": network.sim.events_executed,
        "simulated_cycles": network.sim.now,
        "iteration_times": list(result.iteration_times),
        "counters": [
            dataclasses.asdict(network.nic(node).counters.snapshot())
            for node in allocation
        ],
        "decisions": [
            selector.decisions,
            selector.minimal_decisions,
            selector.nonminimal_decisions,
        ],
    }
    digest = hashlib.sha256(
        json.dumps(observable, sort_keys=True).encode()
    ).hexdigest()
    return {
        "cpu_s": cpu_s,
        "events": observable["events"],
        "simulated_cycles": observable["simulated_cycles"],
        "median_iteration_cycles": result.median_time(),
        "digest": digest,
    }


def extract_seed(tmp: str) -> pathlib.Path | None:
    """Materialize the frozen seed tree into ``tmp``; returns its root.

    Returns ``None`` only for the one *legitimate* unavailability: the seed
    commit is absent from history (shallow clone, sdist tarball).  Every
    other failure — ``git archive`` refusing a commit that exists, the
    extracted tree failing to run (see :func:`run_seed`) — indicates a
    broken benchmark setup and raises with the captured stderr, so a
    regression in this path cannot masquerade as "seed unavailable" in the
    JSON artifact.
    """
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    probe = subprocess.run(
        ["git", "-C", str(repo_root), "cat-file", "-e", f"{SEED_REV}^{{commit}}"],
        capture_output=True,
    )
    if probe.returncode != 0:
        print(
            f"seed commit {SEED_REV[:12]} not in history "
            "(shallow clone?) — skipping the seed comparison",
            file=sys.stderr,
        )
        return None
    tar = subprocess.run(
        ["git", "-C", str(repo_root), "archive", SEED_REV],
        capture_output=True,
    )
    if tar.returncode != 0:
        raise RuntimeError(
            f"git archive {SEED_REV[:12]} failed although the commit "
            f"exists:\n{tar.stderr.decode(errors='replace')}"
        )
    subprocess.run(["tar", "-x", "-C", tmp], input=tar.stdout, check=True)
    return pathlib.Path(tmp)


def run_seed(root: pathlib.Path, scale: ExperimentScale) -> dict:
    """One warmed run of the scenario in a fresh seed-tree interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_BENCH_SCALE"] = scale.name
    env.pop(SIM_ENGINE_ENV_VAR, None)  # the seed predates engine selection
    run = subprocess.run(
        [sys.executable, "-c", _SEED_SCRIPT],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )
    if run.returncode != 0:
        raise RuntimeError(
            f"seed tree {SEED_REV[:12]} failed to run the flit "
            f"scenario:\n{run.stderr}"
        )
    entry = json.loads(run.stdout.strip().splitlines()[-1])
    entry["cpu_s"] = entry.pop("wall_s")  # measured on the swapped-in CPU clock
    return entry


def _summary(runs: list) -> dict:
    """Min-of-N CPU summary of one contender's runs, with its spread."""
    samples = [r["cpu_s"] for r in runs]
    best = min(samples)
    events = runs[0]["events"]
    return {
        "cpu_s": round(best, 4),
        "cpu_median_s": round(statistics.median(samples), 4),
        "cpu_runs_s": [round(v, 4) for v in samples],
        "spread_pct": round((max(samples) / best - 1.0) * 100.0, 1),
        "events": events,
        "events_per_sec": round(events / max(1e-9, best), 1),
        "median_iteration_cycles": runs[0]["median_iteration_cycles"],
    }


def measure_flit_engine(scale: ExperimentScale, with_seed: bool = True) -> dict:
    """Time every engine (and optionally the seed tree); returns the payload."""
    with tempfile.TemporaryDirectory(prefix="seed-flit-") as tmp:
        seed_root = extract_seed(tmp) if with_seed else None
        contenders = {
            engine: (lambda engine=engine: run_flit(engine, scale))
            for engine in SIM_ENGINE_KINDS
        }
        if seed_root is not None:
            # Each seed run warms itself in its own interpreter.
            contenders["seed"] = lambda: run_seed(seed_root, scale)
        for engine in SIM_ENGINE_KINDS:
            run_flit(engine, scale)  # warm caches/imports outside the timing
        runs = {name: [] for name in contenders}
        order = list(contenders)
        for round_no in range(REPEATS):
            for name in order if round_no % 2 == 0 else reversed(order):
                runs[name].append(contenders[name]())

    series = [
        {
            "engine": engine,
            **_summary(runs[engine]),
            "simulated_cycles": runs[engine][0]["simulated_cycles"],
            "digest": runs[engine][0]["digest"],
        }
        for engine in SIM_ENGINE_KINDS
    ]
    by_engine = {entry["engine"]: entry for entry in series}
    calendar = by_engine["calendar"]
    # Every timed run, not just one per engine, must replay the same events.
    digests = {r["digest"] for engine in SIM_ENGINE_KINDS for r in runs[engine]}
    payload = {
        "benchmark": "flit_engine",
        "scale": scale.name,
        "scenario": "noisy inter-group 16 KiB ping-pong (flit backend)",
        "timing": (
            f"process CPU s of the measured region, min of {REPEATS} "
            "interleaved order-alternating warm runs"
        ),
        "repeats": REPEATS,
        "engines_agree": len(digests) == 1,
        "run_digest": calendar["digest"],
        "calendar_speedup_vs_reference": round(
            by_engine["reference"]["cpu_s"] / max(1e-9, calendar["cpu_s"]), 3
        ),
        "series": series,
        "seed": None,
        "speedup_vs_seed": None,
        "event_reduction_vs_seed": None,
    }
    if "seed" in runs:
        seed = {"rev": SEED_REV, **_summary(runs["seed"])}
        payload["seed"] = seed
        payload["speedup_vs_seed"] = round(
            seed["cpu_s"] / max(1e-9, calendar["cpu_s"]), 3
        )
        payload["event_reduction_vs_seed"] = round(
            seed["events"] / max(1, calendar["events"]), 3
        )
    return payload


def check_bars(payload: dict) -> None:
    """Self-asserted acceptance bars (raises AssertionError on regression).

    Parity is asserted unconditionally — it is exact and noise-free.  The
    timing floors are asserted at smoke scale only (the CI scale); at
    larger scales they are reported but not enforced.
    """
    assert payload["engines_agree"], (
        "flit engines diverged: "
        + ", ".join(f"{e['engine']}={e['digest'][:12]}" for e in payload["series"])
    )
    if payload["scale"] != "smoke":
        return
    assert payload["calendar_speedup_vs_reference"] >= MIN_ENGINE_SPEEDUP, (
        f"calendar engine regressed vs reference: "
        f"{payload['calendar_speedup_vs_reference']:.2f}x < {MIN_ENGINE_SPEEDUP}x"
    )
    if payload["speedup_vs_seed"] is not None:
        assert payload["speedup_vs_seed"] >= MIN_SEED_SPEEDUP, (
            f"speedup vs seed tree below the floor: "
            f"{payload['speedup_vs_seed']:.2f}x < {MIN_SEED_SPEEDUP}x"
        )


def _write_json(payload: dict, results_dir: pathlib.Path) -> pathlib.Path:
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_flit_engine.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _render(payload: dict) -> str:
    lines = [
        f"flit engine — {payload['scenario']} ({payload['scale']} scale, "
        f"min of {payload['repeats']} interleaved runs, process CPU)"
    ]
    for entry in payload["series"]:
        lines.append(
            f"  {entry['engine']:9s}: {entry['cpu_s']:8.3f} s CPU "
            f"(spread {entry['spread_pct']:4.1f}%), "
            f"{entry['events']:8d} events ({entry['events_per_sec']:>12.1f} ev/s)"
        )
    agree = "identical" if payload["engines_agree"] else "DIVERGED"
    lines.append(f"  parity: run digests {agree} ({payload['run_digest'][:12]})")
    lines.append(
        f"  calendar speedup vs reference: "
        f"{payload['calendar_speedup_vs_reference']:.2f}x"
    )
    seed = payload["seed"]
    if seed is not None:
        lines.append(
            f"  seed tree ({seed['rev'][:7]}): {seed['cpu_s']:.3f} s CPU "
            f"(spread {seed['spread_pct']:.1f}%), {seed['events']} events"
        )
        lines.append(
            f"  calendar speedup vs seed: {payload['speedup_vs_seed']:.2f}x CPU, "
            f"{payload['event_reduction_vs_seed']:.2f}x fewer events"
        )
    else:
        lines.append("  seed tree unavailable (shallow clone?) — section skipped")
    return "\n".join(lines)


def test_flit_engine(benchmark, scale, results_dir):
    """Engine parity + speedup trajectory; JSON emitted per PR."""
    payload = benchmark.pedantic(
        measure_flit_engine, args=(scale,), rounds=1, iterations=1
    )
    _write_json(payload, results_dir)
    emit(results_dir, "flit_engine", _render(payload))
    check_bars(payload)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="force the tiny smoke scale regardless of REPRO_BENCH_SCALE",
    )
    parser.add_argument(
        "--no-seed",
        action="store_true",
        help="skip the frozen-seed subprocess comparison",
    )
    args = parser.parse_args()
    bench_scale = (
        ExperimentScale.smoke() if args.smoke else ExperimentScale.from_env()
    )
    result = measure_flit_engine(bench_scale, with_seed=not args.no_seed)
    path = _write_json(result, RESULTS_DIR)
    print(_render(result))
    print(f"wrote {path}")
    check_bars(result)
