"""Per-layer tracing for the campaign benchmark.

:class:`LayerTracer` wraps the public entry points of every simulator and
campaign layer (class attributes and module functions, patched for the
duration of one traced repetition and restored afterwards) and reads the
program's own public counters.  Nothing inside ``src/`` is changed.

A layer's *self time* is the wall time spent inside its wrapped calls minus
the time of wrapped calls nested inside them, so the self times of all
layers plus the unattributed remainder add up to the traced repetition's
wall time.  Everything runs on the main thread except the coordinator's
``Channel.recv`` reader threads, whose time is waiting and is reported as
``dist.recv_wait_share`` rather than as self time.  The coordinator's own
``Coordinator.run`` self time is mostly its event loop waiting for worker
results; worker processes are not wrapped and are summarized from their
``REPRO_TELEMETRY`` snapshots instead (:func:`worker_telemetry`).
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names in table order (:meth:`LayerTracer.install` lists the
#: entry points each one wraps).
LAYERS: Tuple[str, ...] = (
    "sim",
    "network.link",
    "network",
    "routing",
    "topology",
    "mpi",
    "model.flow.network",
    "model.flow.solver",
    "cluster",
    "campaign.plan",
    "campaign.router",
    "campaign.executor",
    "campaign.store",
    "campaign.dist",
)

#: Per-layer metric -> unit, in the order ``BENCHMARK.json`` lists them.
#: A layer's self time is reported as its share of the traced wall time
#: (the table prints seconds): a layer a workload never calls then reads
#: 0, not a constant 0-second "time".
METRIC_UNITS: Dict[str, str] = {
    "sim.events": "count",
    "sim.self_share": "ratio",
    "sim.ns_per_event": "ns",
    "link.enqueues": "count",
    "link.flits": "count",
    "link.credits": "count",
    "link.self_share": "ratio",
    "nic.submits": "count",
    "network.self_share": "ratio",
    "routing.decisions": "count",
    "routing.minimal_fraction": "ratio",
    "routing.self_share": "ratio",
    "paths.calls": "count",
    "paths.self_share": "ratio",
    "mpi.self_share": "ratio",
    "flow.sends": "count",
    "flow.send_self_share": "ratio",
    "solver.full": "count",
    "solver.incremental": "count",
    "solver.aborts": "count",
    "solver.rounds": "count",
    "solver.abort_ratio": "ratio",
    "solver.self_share": "ratio",
    "cluster.jobs": "count",
    "cluster.replay_share": "ratio",
    "plan.s": "s",
    "router.cells_flit": "count",
    "router.cells_flow": "count",
    "executor.self_share": "ratio",
    "cell_s.p50": "s",
    "cell_s.max": "s",
    "audit.cells": "count",
    "audit.share": "ratio",
    "audit.flow_err_max": "ratio",
    "store.saves": "count",
    "store.save_s": "s",
    "store.bytes_per_cell": "bytes",
    "store.flush_s": "s",
    "store.self_share": "ratio",
    "dist.frames": "count",
    "dist.bytes": "bytes",
    "dist.recv_wait_share": "ratio",
    "dist.leases": "count",
    "dist.revocations": "count",
    "dist.spawn_share": "ratio",
    "dist.shard_imbalance": "ratio",
    "dist.self_share": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_s": "s",
}


class LayerTracer:
    """Wraps layer entry points and accumulates calls, self time and counts."""

    def __init__(self) -> None:
        #: Calls per wrapped entry point (``Class.method``), and its layer.
        self.calls: Dict[str, int] = {}
        self.layer_of: Dict[str, str] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Dict[str, float] = {}
        #: Child-time accumulators of the open spans (main thread only).
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._networks: List[object] = []
        self._lock = threading.Lock()
        self.exec_started: Optional[float] = None
        self.first_hello: Optional[float] = None

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    # -- wrapping ------------------------------------------------------------

    def _span(self, layer: str, key: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        calls = self.calls
        calls[key] = 0
        self.layer_of[key] = layer
        selfs = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[key] += 1
                selfs[layer] += dur - child
            if after is not None:
                after(args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: object, name: str, replacement: Callable) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _wrap(self, owner: object, name: str, layer: str, after: Optional[Callable] = None) -> None:
        key = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
        self._patch(owner, name, self._span(layer, key, getattr(owner, name), after))

    def install(self) -> None:
        """Patch every layer entry point (undo with :meth:`restore`)."""
        import repro.campaign as campaign
        from repro.campaign import executor
        from repro.campaign.dist import coordinator, protocol
        from repro.campaign.router import BackendRouter
        from repro.campaign.store import ArtifactStore
        from repro.cluster.scheduler import ClusterScheduler
        from repro.model.flow.engine import ReferenceFairShareEngine
        from repro.model.flow.network import FlowNetwork
        from repro.model.flow.vectorized import VectorizedFairShareEngine
        from repro.mpi.job import MpiJob
        from repro.network.link import Link
        from repro.network.network import Network
        from repro.network.nic import Nic
        from repro.routing.ugal import UgalSelector
        from repro.sim.calendar import CalendarSimulator
        from repro.sim.engine import Simulator
        from repro.topology.paths import PathSampler

        self._wrap(Simulator, "run", "sim")
        self._wrap(Simulator, "step", "sim")
        self._wrap(CalendarSimulator, "step", "sim")
        self._wrap(Link, "enqueue", "network.link")
        self._wrap(Link, "return_credits", "network.link")
        self._wrap(Nic, "submit", "network")
        self._wrap(Network, "send", "network")
        self._wrap(UgalSelector, "select", "routing", self._after_select)
        for name in ("minimal", "nonminimal", "all_minimal"):
            self._wrap(PathSampler, name, "topology")
        self._wrap(MpiJob, "run", "mpi")
        self._wrap(FlowNetwork, "send", "model.flow.network")
        for engine in (VectorizedFairShareEngine, ReferenceFairShareEngine):
            for name in ("solve", "add_flow", "remove_flow"):
                self._wrap(engine, name, "model.flow.solver")
        self._wrap(ClusterScheduler, "replay", "cluster", self._after_replay)
        self._wrap(campaign, "plan_campaign", "campaign.plan")
        self._wrap(BackendRouter, "route", "campaign.router")
        self._wrap(campaign, "execute_plan", "campaign.executor")
        self._wrap(executor, "run_cell", "campaign.executor", self._after_cell)
        audits = self._span("campaign.executor", "executor.run_audits", executor.run_audits,
                            self._after_audits)
        self._patch(executor, "run_audits", audits)
        self._patch(coordinator, "run_audits", audits)
        self._wrap(ArtifactStore, "save", "campaign.store", self._after_save)
        self._wrap(ArtifactStore, "save_audit", "campaign.store")
        self._wrap(ArtifactStore, "flush_journal", "campaign.store", self._after_flush)
        self._wrap(coordinator.Coordinator, "run", "campaign.dist")
        self._wrap(protocol.Channel, "send", "campaign.dist", self._after_send)
        self._patch(protocol.Channel, "recv", self._recv_wrapper(protocol.Channel.recv))
        for cls in (Network, FlowNetwork):
            self._patch(cls, "__init__", self._registering_init(cls.__init__))

    def restore(self) -> None:
        """Undo every patch, newest first, and harvest leftover networks."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._harvest()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- counters read from the program ------------------------------------

    def _registering_init(self, init: Callable) -> Callable:
        networks = self._networks

        def __init__(net, *args, **kwargs):
            init(net, *args, **kwargs)
            networks.append(net)

        return __init__

    def _harvest(self) -> None:
        """Read the public counters of every network built since last time."""
        from repro.model.flow.network import FlowNetwork

        sims = {}
        for net in self._networks:
            sims[id(net.sim)] = net.sim
            if isinstance(net, FlowNetwork):
                stats = net.solver_stats
                for key in ("full", "incremental", "aborts", "rounds"):
                    self.add(f"solver.{key}", stats.get(key, 0))
            else:
                self.add("link.flits", net.total_flits_traversed())
                self.add("link.credits", net.total_credits_returned())
        self.add("sim.events", sum(sim.events_executed for sim in sims.values()))
        self._networks.clear()

    def _after_cell(self, args, record, dur) -> None:
        self._harvest()

    def _after_audits(self, args, result, dur) -> None:
        self._harvest()
        self.add("audit.cells", len(args[1].audits))
        self.add("audit.s", dur)

    def _after_select(self, args, decision, dur) -> None:
        if decision.minimal:
            self.add("routing.minimal", 1)

    def _after_replay(self, args, result, dur) -> None:
        self.add("cluster.jobs", len(result.records))
        self.add("cluster.replay_s", dur)

    def _after_save(self, args, path, dur) -> None:
        self.add("store.saves", 1)
        self.add("store.save_s", dur)

    def _after_flush(self, args, result, dur) -> None:
        self.add("store.flush_s", dur)

    def _after_send(self, args, result, dur) -> None:
        from repro.campaign.dist.protocol import encode_frame

        message = args[1]
        with self._lock:
            self.add("dist.frames", 1)
            self.add("dist.bytes", len(encode_frame(message)))
            if message.get("type") == "lease":
                self.add("dist.leases", 1)

    def _recv_wrapper(self, recv: Callable) -> Callable:
        """Reader threads block in ``recv``: count frames and waiting time."""
        from repro.campaign.dist.protocol import encode_frame

        def wrapper(channel):
            t0 = time.perf_counter()
            message = recv(channel)
            t1 = time.perf_counter()
            with self._lock:
                self.add("dist.recv_wait_s", t1 - t0)
                if message is not None:
                    self.add("dist.frames", 1)
                    self.add("dist.bytes", len(encode_frame(message)))
                    if message.get("type") == "hello" and self.first_hello is None:
                        self.first_hello = t1
            return message

        return wrapper

    # -- results -------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(n for key, n in self.calls.items() if self.layer_of[key] == layer)

    def metrics(self, result, store, wall_s: float, flow_err_max: float) -> Dict[str, float]:
        """Per-layer metrics of one traced repetition (see :data:`METRIC_UNITS`)."""
        c = lambda name: self.counts.get(name, 0.0)  # noqa: E731
        selfs = self.self_s
        events = c("sim.events")
        decisions = self.calls["UgalSelector.select"]
        incremental, aborts = c("solver.incremental"), c("solver.aborts")
        executed = [r for r in result.records if r.ok and not r.cached]
        cell_times = sorted(r.elapsed_s for r in executed)
        result_bytes = sum(p.stat().st_size for p in store.results_dir.glob("*.json"))
        session = session_summary(store)
        spawn_s = 0.0
        if self.first_hello is not None and self.exec_started is not None:
            spawn_s = self.first_hello - self.exec_started
        flit_cells = sum(1 for spec in result.plan if spec.backend == "flit")
        share = {layer: seconds / wall_s for layer, seconds in selfs.items()}
        return {
            "sim.events": events,
            "sim.self_share": share["sim"],
            "sim.ns_per_event": 1e9 * selfs["sim"] / events if events else 0.0,
            "link.enqueues": float(self.calls["Link.enqueue"]),
            "link.flits": c("link.flits"),
            "link.credits": c("link.credits"),
            "link.self_share": share["network.link"],
            "nic.submits": float(self.calls["Nic.submit"]),
            "network.self_share": share["network"],
            "routing.decisions": float(decisions),
            "routing.minimal_fraction": c("routing.minimal") / decisions if decisions else 0.0,
            "routing.self_share": share["routing"],
            "paths.calls": float(self.layer_calls("topology")),
            "paths.self_share": share["topology"],
            "mpi.self_share": share["mpi"],
            "flow.sends": float(self.calls["FlowNetwork.send"]),
            "flow.send_self_share": share["model.flow.network"],
            "solver.full": c("solver.full"),
            "solver.incremental": incremental,
            "solver.aborts": aborts,
            "solver.rounds": c("solver.rounds"),
            "solver.abort_ratio": aborts / (incremental + aborts) if incremental + aborts else 0.0,
            "solver.self_share": share["model.flow.solver"],
            "cluster.jobs": c("cluster.jobs"),
            "cluster.replay_share": c("cluster.replay_s") / wall_s,
            "plan.s": selfs["campaign.plan"] + selfs["campaign.router"],
            "router.cells_flit": float(flit_cells),
            "router.cells_flow": float(len(result.plan) - flit_cells),
            "executor.self_share": share["campaign.executor"],
            "cell_s.p50": statistics.median(cell_times) if cell_times else 0.0,
            "cell_s.max": cell_times[-1] if cell_times else 0.0,
            "audit.cells": c("audit.cells"),
            "audit.share": c("audit.s") / wall_s,
            "audit.flow_err_max": flow_err_max,
            "store.saves": c("store.saves"),
            "store.save_s": c("store.save_s"),
            "store.bytes_per_cell": result_bytes / len(executed) if executed else 0.0,
            "store.flush_s": c("store.flush_s"),
            "store.self_share": share["campaign.store"],
            "dist.frames": c("dist.frames"),
            "dist.bytes": c("dist.bytes"),
            "dist.recv_wait_share": c("dist.recv_wait_s") / wall_s,
            "dist.leases": c("dist.leases"),
            "dist.revocations": session["revocations"],
            "dist.spawn_share": spawn_s / wall_s,
            "dist.shard_imbalance": session["shard_imbalance"],
            "dist.self_share": share["campaign.dist"],
            "trace.wall_s": wall_s,
            "trace.unattributed_share": 1.0 - sum(share.values()),
        }

    def table(self, wall_s: float) -> List[Tuple[str, int, float, float]]:
        """(layer, calls, self s, share of traced wall) rows, plus remainder."""
        rows = [
            (layer, self.layer_calls(layer), self.self_s[layer], self.self_s[layer] / wall_s)
            for layer in LAYERS
        ]
        rest = wall_s - sum(self.self_s.values())
        rows.append(("unattributed", 0, rest, rest / wall_s))
        return rows


def session_summary(store) -> Dict[str, float]:
    """Revocations and shard imbalance from the dist session telemetry.

    Imbalance is the slowest worker's busy time (lease to shard done,
    summed over its shards) over the mean busy time; 0 when the store
    holds no session (serial workloads, untraced runs).
    """
    revocations = 0.0
    busy: Dict[str, float] = {}
    for session in store.load_session_telemetry():
        revocations += float(session.get("revocations", 0))
        for shard in session.get("shards", []):
            if shard.get("done_at") is not None:
                worker = str(shard.get("worker"))
                busy[worker] = busy.get(worker, 0.0) + shard["done_at"] - shard["leased_at"]
    mean = sum(busy.values()) / len(busy) if busy else 0.0
    return {
        "revocations": revocations,
        "shard_imbalance": max(busy.values()) / mean if mean else 0.0,
    }


def worker_telemetry(store) -> Dict[str, float]:
    """Worker-side totals from the per-cell ``REPRO_TELEMETRY`` snapshots.

    Layers inside worker processes are not wrapped; the store's index
    entries carry each cell's telemetry snapshot instead.  ``sim.run``
    spans nest (an MPI job's run wraps the simulator's), so only the
    simulator event counter and non-nesting spans are summed.
    """
    totals: Dict[str, float] = {}
    for entry in store.index().values():
        snapshot = entry.get("telemetry") or {}
        for phase, seconds in (snapshot.get("phases") or {}).items():
            key = f"phase.{phase}_s"
            totals[key] = totals.get(key, 0.0) + float(seconds)
        for name in ("flit.run", "flow.solve", "cluster.replay"):
            span = (snapshot.get("spans") or {}).get(name)
            if span:
                totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + float(span["total_s"])
        events = (snapshot.get("counters") or {}).get("sim.events")
        if events:
            totals["sim.events"] = totals.get("sim.events", 0.0) + float(events)
    return totals
