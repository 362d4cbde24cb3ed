"""Flit vs. flow backend: CPU time and events/sec on the same scenario.

The benchmark scenario is a noisy inter-group ping-pong (the Figure-3/7
shape): a two-node job exchanging 16 KiB messages while background traffic
crosses the same groups.  Both backends run the identical scenario — same
:class:`~repro.config.SimulationConfig`, allocation, noise level and
iteration count — so the comparison isolates the substrate.  Construction
(fabric wiring, noise placement, job setup) stays outside the measured
region, so ``events_per_sec`` and the speedup reflect substrate
throughput.  Timing follows the shared protocol of
``benchmarks/timing.py`` (``REPEATS`` interleaved warm rounds, min of
process CPU, quartiles recorded).  A JSON artifact with the series is
written to ``benchmarks/results/BENCH_backends.json``::

    python -m pytest benchmarks/bench_backends.py -q -s
    python benchmarks/bench_backends.py            # standalone, same JSON
    python benchmarks/bench_backends.py --smoke    # tiny scenario (CI)

This file seeds the backend-performance trajectory: the CI job uploads the
JSON per PR so regressions in either backend are visible.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import pathlib
import sys

if __package__ in (None, ""):  # `python benchmarks/bench_backends.py`
    ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.conftest import emit
from benchmarks.timing import Region, interleave, write_result
from repro.experiments.harness import ExperimentScale
from repro.model import build_network_model
from repro.mpi.job import MpiJob
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.workloads.microbench import PingPongBenchmark

BACKENDS = ("flit", "flow")

#: Interleaved timing rounds; every backend's time is its minimum.
REPEATS = 5

#: The acceptance bar: the flow backend must beat flit by at least this
#: factor on the benchmark scenario (it typically wins by 50-100x).
MIN_FLOW_SPEEDUP = 10.0


def run_backend(backend: str, scale: ExperimentScale, region: Region, sim=None) -> dict:
    """Run the scenario once on one backend, timing the workload in ``region``.

    ``sim`` injects an event engine (the flit-engine bench passes each
    engine kind).  Returns the observables plus their digest, which covers
    everything visible from outside: event count, simulated cycles, the
    per-iteration timeline, both endpoint NIC counter blocks and, on flit,
    the selector's decision tallies.  Two engines that execute the same
    events in the same order produce identical digests.
    """
    network = build_network_model(
        scale.simulation_config().with_backend(backend), sim=sim
    )
    allocation = [0, network.num_nodes - 1]
    noise = BackgroundTraffic.for_level(
        network, allocation, NoiseLevel.MODERATE, name="bench-noise"
    )
    if noise is not None:
        noise.start()
    # The name seeds the job's random streams, so it must not depend on the
    # engine for runs to be comparable.
    job = MpiJob(network, allocation, name=f"bench-{backend}")
    workload = PingPongBenchmark(
        size_bytes=scale.scaled_size(16 * 1024),
        iterations=scale.pingpong_repetitions,
        warmup=1,
    )
    with region:
        result = workload.run(job)
        if noise is not None:
            noise.stop()
    observable = {
        "events": network.sim.events_executed,
        "simulated_cycles": network.sim.now,
        "iteration_times": list(result.iteration_times),
        "counters": [
            dataclasses.asdict(network.nic(node).counters.snapshot())
            for node in allocation
        ],
    }
    if backend == "flit":  # the flow backend has no UGAL selector
        selector = network.selector
        observable["decisions"] = [
            selector.decisions,
            selector.minimal_decisions,
            selector.nonminimal_decisions,
        ]
    counters = network.nic(allocation[0]).counters
    return {
        "events": observable["events"],
        "simulated_cycles": observable["simulated_cycles"],
        "median_iteration_cycles": result.median_time(),
        "stall_ratio": round(counters.stall_ratio, 4),
        "avg_packet_latency": round(counters.avg_packet_latency, 1),
        "digest": hashlib.sha256(
            json.dumps(observable, sort_keys=True).encode()
        ).hexdigest(),
    }


def measure_backends(scale: ExperimentScale) -> dict:
    """Time the scenario on every backend; returns the JSON payload."""
    contenders = {b: functools.partial(run_backend, b, scale) for b in BACKENDS}
    timed = interleave(contenders, REPEATS)
    series = []
    for backend, runs in timed.items():
        entry = {"backend": backend, **runs.results[0]}
        entry["events_per_sec"] = round(entry["events"] / max(1e-9, runs.cpu.min), 1)
        series.append({**entry, **runs.to_json()})
    speedup = timed["flit"].cpu.min / max(1e-9, timed["flow"].cpu.min)
    return {
        "benchmark": "backends",
        "scale": scale.name,
        "scenario": "noisy inter-group 16 KiB ping-pong",
        "repeats": REPEATS,
        "flow_speedup_vs_flit": round(speedup, 2),
        "series": series,
    }


def _render(payload: dict) -> str:
    lines = [
        f"backend comparison — {payload['scenario']} ({payload['scale']} scale, "
        f"min of {payload['repeats']} interleaved runs, process CPU)"
    ]
    for entry in payload["series"]:
        lines.append(
            f"  {entry['backend']:4s}: {entry['cpu_s']['min']:8.3f} s CPU, "
            f"{entry['events']:8d} events ({entry['events_per_sec']:>12.1f} ev/s), "
            f"median {entry['median_iteration_cycles']:.0f} cycles"
        )
    lines.append(f"  flow speedup vs flit: {payload['flow_speedup_vs_flit']:.1f}x")
    return "\n".join(lines)


def _assert_bars(payload: dict) -> None:
    assert {entry["backend"] for entry in payload["series"]} == set(BACKENDS)
    assert payload["flow_speedup_vs_flit"] >= MIN_FLOW_SPEEDUP, (
        f"flow backend regressed: only {payload['flow_speedup_vs_flit']}x "
        f"faster than flit (bar: {MIN_FLOW_SPEEDUP}x)"
    )


def test_backend_throughput(benchmark, scale, results_dir):
    """Same scenario on flit vs flow; JSON emitted for the perf trajectory."""
    payload = benchmark.pedantic(measure_backends, args=(scale,), rounds=1, iterations=1)
    write_result("backends", payload)
    emit(results_dir, "backends", _render(payload))
    _assert_bars(payload)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="force the tiny smoke scale regardless of REPRO_BENCH_SCALE",
    )
    args = parser.parse_args()
    bench_scale = (
        ExperimentScale.smoke() if args.smoke else ExperimentScale.from_env()
    )
    result = measure_backends(bench_scale)
    path = write_result("backends", result)
    print(_render(result))
    print(f"wrote {path}")
    _assert_bars(result)
