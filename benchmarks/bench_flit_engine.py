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

Every contender runs the scenario through ``bench_backends.run_backend``
(its engine injected with ``sim=``) and is timed by the shared protocol of
``benchmarks/timing.py``: ``REPEATS`` interleaved warm rounds, min of
process CPU of the measured region, quartiles recorded.  The seed tree
times its own measured region in a fresh interpreter, after one untimed
warm-up run there, and reports it.  The JSON artifact is
``benchmarks/results/BENCH_flit_engine.json``::

    python -m pytest benchmarks/bench_flit_engine.py -q -s
    python benchmarks/bench_flit_engine.py            # standalone, same JSON
    python benchmarks/bench_flit_engine.py --smoke    # tiny scenario (CI)
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import subprocess
import sys
import tempfile

if __package__ in (None, ""):  # `python benchmarks/bench_flit_engine.py`
    ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.bench_backends import run_backend
from benchmarks.conftest import emit
from benchmarks.timing import Region, interleave, write_result
from repro.experiments.harness import ExperimentScale
from repro.sim.calendar import CalendarSimulator
from repro.sim.engine import Simulator

#: The pre-optimization tree the engine work started from (kept runnable
#: from git history so the speedup baseline is measured, not remembered).
SEED_REV = "1db438ac73c347f8a8b1be20c4db375bc1e5f97c"

#: The engines timed against each other: production first, then its spec.
ENGINES = {"calendar": CalendarSimulator, "reference": Simulator}

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
#: (``bench_backends.run_backend``, the same scenario and measured region),
#: its clock swapped for one that marks process CPU and wall time, run once
#: untimed and then once measured.
_SEED_SCRIPT = """
import gc, json, time, types
import benchmarks.bench_backends as bench
from repro.experiments.harness import ExperimentScale
marks = []
def mark():
    marks.append((time.process_time(), time.perf_counter()))
    return marks[-1][1]
bench.time = types.SimpleNamespace(perf_counter=mark)
scale = ExperimentScale.from_env("REPRO_BENCH_SCALE")
bench.run_backend("flit", scale)
gc.collect()
entry = bench.run_backend("flit", scale)
(cpu0, wall0), (cpu1, wall1) = marks[-2:]
entry.update(cpu_s=cpu1 - cpu0, wall_s=wall1 - wall0)
print(json.dumps(entry))
"""


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


def run_seed(root: pathlib.Path, scale: ExperimentScale, region: Region) -> dict:
    """One warmed run of the scenario in a fresh seed-tree interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_BENCH_SCALE"] = scale.name
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
    region.report(entry["cpu_s"], entry["wall_s"])
    return entry


def _summary(runs) -> dict:
    """One contender's timing stats plus its first run's observables."""
    first = runs.results[0]
    return {
        "events": first["events"],
        "events_per_sec": round(first["events"] / max(1e-9, runs.cpu.min), 1),
        "median_iteration_cycles": first["median_iteration_cycles"],
        **runs.to_json(),
    }


def measure_flit_engine(scale: ExperimentScale, with_seed: bool = True) -> dict:
    """Time every engine (and optionally the seed tree); returns the payload."""
    with tempfile.TemporaryDirectory(prefix="seed-flit-") as tmp:
        seed_root = extract_seed(tmp) if with_seed else None
        contenders = {
            engine: (
                lambda region, sim=sim: run_backend("flit", scale, region, sim=sim())
            )
            for engine, sim in ENGINES.items()
        }
        if seed_root is not None:
            contenders["seed"] = functools.partial(run_seed, seed_root, scale)
        timed = interleave(contenders, REPEATS)

    series = [
        {
            "engine": engine,
            **_summary(timed[engine]),
            "simulated_cycles": timed[engine].results[0]["simulated_cycles"],
            "digest": timed[engine].results[0]["digest"],
        }
        for engine in ENGINES
    ]
    calendar_cpu = timed["calendar"].cpu.min
    # Every timed run, not just one per engine, must replay the same events.
    digests = {run["digest"] for engine in ENGINES for run in timed[engine].results}
    payload = {
        "benchmark": "flit_engine",
        "scale": scale.name,
        "scenario": "noisy inter-group 16 KiB ping-pong (flit backend)",
        "repeats": REPEATS,
        "engines_agree": len(digests) == 1,
        "run_digest": series[0]["digest"],
        "calendar_speedup_vs_reference": round(
            timed["reference"].cpu.min / max(1e-9, calendar_cpu), 3
        ),
        "series": series,
        "seed": None,
        "speedup_vs_seed": None,
        "event_reduction_vs_seed": None,
    }
    if "seed" in timed:
        seed = {"rev": SEED_REV, **_summary(timed["seed"])}
        payload["seed"] = seed
        payload["speedup_vs_seed"] = round(
            timed["seed"].cpu.min / max(1e-9, calendar_cpu), 3
        )
        payload["event_reduction_vs_seed"] = round(
            seed["events"] / max(1, series[0]["events"]), 3
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


def _cpu(entry: dict) -> str:
    cpu = entry["cpu_s"]
    return f"{cpu['min']:8.3f} s CPU (quartiles {cpu['q1']:.3f}-{cpu['q3']:.3f})"


def _render(payload: dict) -> str:
    lines = [
        f"flit engine — {payload['scenario']} ({payload['scale']} scale, "
        f"min of {payload['repeats']} interleaved runs, process CPU)"
    ]
    for entry in payload["series"]:
        lines.append(
            f"  {entry['engine']:9s}: {_cpu(entry)}, "
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
            f"  seed tree ({seed['rev'][:7]}): {_cpu(seed)}, "
            f"{seed['events']} events"
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
    write_result("flit_engine", payload)
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
    path = write_result("flit_engine", result)
    print(_render(result))
    print(f"wrote {path}")
    check_bars(result)
