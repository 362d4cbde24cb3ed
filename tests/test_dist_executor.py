"""Distributed campaign execution: protocol, shards, coordinator, resume.

The end-to-end tests spawn real worker subprocesses (stdio and TCP
transports), so scenarios they execute must be importable by a fresh
interpreter: cheap test scenarios live in a generated module on
``sys.path`` handed to workers via ``--preload``, and the crash tests
SIGKILL actual worker processes mid-shard.
"""

from __future__ import annotations

import io
import json
import os
import signal
import sys
import threading

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignPlan,
    Coordinator,
    DistOptions,
    RunSpec,
    ShardPlanner,
    ensure_builtin_scenarios,
    execute_plan,
    plan_campaign,
    run_cell,
    run_distributed,
)
from repro.campaign.dist.protocol import (
    Channel,
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
)
from repro.campaign.registry import Scenario, ScenarioError, register
from repro.campaign.router import CellCost
from repro.experiments.cli import _parse_bind, campaign_main
from repro.model.cost import CostEstimate
from repro.sim.rng import RandomStreams

# -- the worker-visible scenario module ---------------------------------------------

#: Source of the scenario module preloaded into worker subprocesses.  The
#: runner derives its payload from the run seed (determinism assertions)
#: and sleeps so shards overlap with the crash window.
_SLEEPY_MODULE = "dist_sleepy_scenarios"
_SLEEPY_SOURCE = '''
"""Test scenarios for the distributed executor (worker-importable)."""
import time

from repro.campaign.registry import Scenario, ScenarioError, register
from repro.sim.rng import RandomStreams


def _sleepy_runner(scale, *, i=0, sleep_s=0.0):
    if sleep_s:
        time.sleep(float(sleep_s))
    streams = RandomStreams(scale.seed)
    values = [streams.randint("sleepy", 0, 10_000) for _ in range(4)]
    return {
        "metrics": {"total": float(sum(values)), "i": float(i)},
        "data": {"values": values},
        "report": f"sleepy i={i} total={sum(values)}",
    }


try:
    register(
        Scenario(
            name="_dist-sleepy",
            description="deterministic sleeper for distributed-executor tests",
            axes={"i": tuple(range(6)), "sleep_s": (0.0,)},
            runner=_sleepy_runner,
        )
    )
except ScenarioError:
    pass  # already registered in this process
'''


def _sleepy_runner(scale, *, i=0, sleep_s=0.0):
    """In-process twin of the preloaded module's runner (same semantics)."""
    import time

    if sleep_s:
        time.sleep(float(sleep_s))
    streams = RandomStreams(scale.seed)
    values = [streams.randint("sleepy", 0, 10_000) for _ in range(4)]
    return {
        "metrics": {"total": float(sum(values)), "i": float(i)},
        "data": {"values": values},
        "report": f"sleepy i={i} total={sum(values)}",
    }


@pytest.fixture(scope="module", autouse=True)
def _registered():
    ensure_builtin_scenarios()
    try:
        register(
            Scenario(
                name="_dist-sleepy",
                description="deterministic sleeper for distributed-executor tests",
                axes={"i": tuple(range(6)), "sleep_s": (0.0,)},
                runner=_sleepy_runner,
            )
        )
    except ScenarioError:
        pass  # already registered by a previous module run in this process
    yield


@pytest.fixture(scope="module")
def sleepy_env(tmp_path_factory):
    """Writes the worker-importable scenario module; returns worker env.

    The PYTHONPATH carries the repro package root too: worker subprocesses
    must import repro even when this test process got it from pytest's
    ``pythonpath`` config rather than an installed package or the
    environment.
    """
    import pathlib

    import repro

    root = tmp_path_factory.mktemp("dist-scenarios")
    (root / f"{_SLEEPY_MODULE}.py").write_text(_SLEEPY_SOURCE, encoding="utf-8")
    repro_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    python_path = os.pathsep.join(
        [str(root), repro_root]
        + [p for p in (os.environ.get("PYTHONPATH"),) if p]
    )
    yield {"PYTHONPATH": python_path}


def _sleepy_plan(cells=6, sleep_s=0.0, seed=2019):
    specs = tuple(
        RunSpec.make("_dist-sleepy", {"i": i, "sleep_s": sleep_s}, seed=seed)
        for i in range(cells)
    )
    return CampaignPlan(name="dist-sleepy", specs=specs, seed=seed)


def _options(workers=2, transport="local", **kwargs):
    kwargs.setdefault("heartbeat_s", 0.2)
    kwargs.setdefault("lease_timeout_s", 2.0)
    kwargs.setdefault("preload", _SLEEPY_MODULE)
    return DistOptions(workers=workers, transport=transport, **kwargs)


# -- protocol -----------------------------------------------------------------------

class _Loopback:
    """Two channels joined by OS pipes (no sockets needed)."""

    def __init__(self):
        r1, w1 = os.pipe()  # left -> right
        r2, w2 = os.pipe()  # right -> left
        self.left = Channel(os.fdopen(r2, "rb"), os.fdopen(w1, "wb"), name="left")
        self.right = Channel(os.fdopen(r1, "rb"), os.fdopen(w2, "wb"), name="right")

    def close(self):
        self.left.close()
        self.right.close()


class TestProtocol:
    def test_roundtrip_messages(self):
        loop = _Loopback()
        try:
            sent = {"type": "lease", "shard": 3, "specs": [{"scenario": "x"}]}
            loop.left.send(sent)
            loop.left.send({"type": "heartbeat", "shard": 3})
            assert loop.right.recv() == sent
            assert loop.right.recv()["type"] == "heartbeat"
        finally:
            loop.close()

    def test_clean_eof_returns_none(self):
        loop = _Loopback()
        loop.left.close()
        assert loop.right.recv() is None
        loop.close()

    def test_torn_frame_raises(self):
        frame = encode_frame({"type": "result"})
        channel = Channel(io.BytesIO(frame[: len(frame) - 2]), io.BytesIO())
        with pytest.raises(ProtocolError, match="mid-frame"):
            channel.recv()

    def test_oversized_length_rejected(self):
        bogus = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        channel = Channel(io.BytesIO(bogus), io.BytesIO())
        with pytest.raises(ProtocolError, match="exceeds"):
            channel.recv()

    def test_message_without_type_rejected(self):
        channel = Channel(io.BytesIO(encode_frame({"shard": 1})), io.BytesIO())
        with pytest.raises(ProtocolError, match="without a type"):
            channel.recv()

    def test_spec_wire_roundtrip(self):
        spec = RunSpec.make(
            "_dist-sleepy", {"i": 2, "sleep_s": 0.5}, scale="paper", seed=7
        )
        routed = RunSpec.make("_dist-sleepy", {"i": 1}, backend="auto").resolve("flow")
        for original in (spec, routed):
            wired = json.loads(json.dumps(original.to_wire()))
            rebuilt = RunSpec.from_wire(wired)
            assert rebuilt == original
            assert rebuilt.spec_hash() == original.spec_hash()

    def test_wire_rejects_non_scalar_params(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            RunSpec.from_wire(
                {"scenario": "x", "params": {"a": [1]}, "scale": "smoke",
                 "seed": 1, "backend": "flit"}
            )


# -- result batching ----------------------------------------------------------------

class TestResultBatching:
    """--batch-results N buffers worker results into result_batch frames."""

    def _serve(self, channel, batch):
        from repro.campaign.dist.worker import serve_channel

        # A 30 s heartbeat keeps liveness pings out of the frame sequence
        # the test asserts on.
        serve_channel(channel, name="batcher", heartbeat_s=30.0, batch_results=batch)

    def test_batch_frame_wire_roundtrip(self):
        """5 cells at N=2 travel as 2+2 batches plus one classic result."""
        loop = _Loopback()
        specs = [
            RunSpec.make("_dist-sleepy", {"i": i, "sleep_s": 0.0}) for i in range(5)
        ]
        server = threading.Thread(
            target=self._serve, args=(loop.right, 2), daemon=True
        )
        server.start()
        frames = []
        try:
            assert loop.left.recv()["type"] == "hello"
            loop.left.send(
                {
                    "type": "lease",
                    "shard": 7,
                    "specs": [spec.to_wire() for spec in specs],
                }
            )
            while True:
                frame = loop.left.recv()
                frames.append(frame)
                if frame["type"] == "shard_done":
                    break
            loop.left.send({"type": "shutdown"})
        finally:
            server.join(timeout=10)
            loop.close()
        assert [f["type"] for f in frames] == [
            "result_batch", "result_batch", "result", "shard_done"
        ]
        bodies = [
            entry
            for frame in frames[:2]
            for entry in frame["results"]
        ] + [frames[2]]
        assert all(frame["shard"] == 7 for frame in frames[:3])
        # Every cell came back exactly once, intact and in lease order.
        rebuilt = [RunSpec.from_wire(body["spec"]) for body in bodies]
        assert rebuilt == specs
        assert all(body["error"] == "" and "payload" in body for body in bodies)

    def test_single_cell_shard_uses_classic_frame(self):
        """A flush of one result degrades to the pre-batching frame type."""
        loop = _Loopback()
        spec = RunSpec.make("_dist-sleepy", {"i": 0, "sleep_s": 0.0})
        server = threading.Thread(
            target=self._serve, args=(loop.right, 8), daemon=True
        )
        server.start()
        try:
            assert loop.left.recv()["type"] == "hello"
            loop.left.send(
                {"type": "lease", "shard": 1, "specs": [spec.to_wire()]}
            )
            result = loop.left.recv()
            assert result["type"] == "result"
            assert RunSpec.from_wire(result["spec"]) == spec
            assert loop.left.recv()["type"] == "shard_done"
            loop.left.send({"type": "shutdown"})
        finally:
            server.join(timeout=10)
            loop.close()

    def test_batched_store_matches_streaming(self, tmp_path, sleepy_env):
        plan = _sleepy_plan(cells=6)
        batched_store = ArtifactStore(tmp_path / "batched")
        result = run_distributed(
            plan,
            store=batched_store,
            options=_options(workers=2, extra_env=sleepy_env, batch_results=3),
        )
        assert result.failed == 0 and result.executed == 6
        streamed_store = ArtifactStore(tmp_path / "streamed")
        run_distributed(
            plan, store=streamed_store, options=_options(workers=2, extra_env=sleepy_env)
        )
        for spec in plan:
            assert (
                batched_store.result_path(spec).read_bytes()
                == streamed_store.result_path(spec).read_bytes()
            ), f"artifact for {spec.label()} differs batched vs streamed"

    def test_coordinator_passes_flag_to_spawned_workers(self):
        coordinator = Coordinator(
            _sleepy_plan(1), options=_options(workers=1, batch_results=4)
        )
        command = coordinator._worker_command()
        assert command[command.index("--batch-results") + 1] == "4"
        plain = Coordinator(_sleepy_plan(1), options=_options(workers=1))
        assert "--batch-results" not in plain._worker_command()

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_results"):
            DistOptions(batch_results=0)
        from repro.campaign.dist.worker import serve_channel

        loop = _Loopback()
        try:
            with pytest.raises(ValueError, match="batch_results"):
                serve_channel(loop.right, batch_results=0)
        finally:
            loop.close()


class TestInstrumentPropagation:
    """Instrumentation enabled in the coordinator reaches spawned workers.

    Only the parent's singleton is switched on (the environment carries no
    ``REPRO_INSTRUMENT``): the coordinator must hand its planes to the
    workers it spawns, and the sidecars they return must leave payloads
    untouched.
    """

    def test_spans_and_probes_reach_spawned_workers(self, tmp_path, monkeypatch):
        from repro.telemetry import INSTRUMENT_ENV_VAR, TELEMETRY, disable, enable

        monkeypatch.delenv(INSTRUMENT_ENV_VAR, raising=False)
        specs = tuple(
            RunSpec.make(
                "pingpong-placement",
                {"placement": placement, "message_kib": 4, "noise": "none"},
            )
            for placement in ("inter-nodes", "inter-groups")
        )
        plan = CampaignPlan(name="instrumented", specs=specs)
        serial_store = ArtifactStore(tmp_path / "serial")
        assert execute_plan(plan, store=serial_store, workers=1).failed == 0

        dist_store = ArtifactStore(tmp_path / "dist")
        enable("spans,probes")
        try:
            result = run_distributed(
                plan, store=dist_store, options=_options(workers=2, preload=None)
            )
        finally:
            disable("spans,probes")
        assert TELEMETRY.recorder is None
        assert result.failed == 0 and result.executed == 2
        index = dist_store.index()
        for spec in plan:
            assert "telemetry" in index[spec.spec_hash()], spec.label()
            assert dist_store.has_probes(spec), spec.label()
            assert (
                dist_store.result_path(spec).read_bytes()
                == serial_store.result_path(spec).read_bytes()
            ), f"artifact for {spec.label()} differs instrumented vs plain"
        assert not serial_store.has_probes(specs[0])


# -- shard planning -----------------------------------------------------------------

def _costed_plan(works):
    specs = tuple(
        RunSpec.make("_dist-sleepy", {"i": i, "sleep_s": 0.0}) for i in range(len(works))
    )
    costs = tuple(
        CellCost(
            spec=spec,
            chosen=spec.backend,
            reason="explicit",
            estimates={spec.backend: CostEstimate(backend=spec.backend, work=work)},
        )
        for spec, work in zip(specs, works)
    )
    return CampaignPlan(name="costed", specs=specs, costs=costs)


class TestShardPlanner:
    def test_uniform_grid_splits_evenly(self):
        plan = _sleepy_plan(cells=6)
        shards = ShardPlanner(shards_per_worker=1).partition(plan, workers=3)
        assert len(shards) == 3
        assert sorted(len(shard) for shard in shards) == [2, 2, 2]
        flattened = {spec for shard in shards for spec in shard.specs}
        assert flattened == set(plan.specs)

    def test_costed_cells_balance_by_work(self):
        plan = _costed_plan([100.0, 1.0, 1.0, 1.0, 99.0, 1.0])
        shards = ShardPlanner(shards_per_worker=1).partition(plan, workers=2)
        assert len(shards) == 2
        loads = sorted(shard.est_work for shard in shards)
        # LPT puts the two heavy cells on different shards.
        assert loads[1] <= 104.0

    def test_partition_is_deterministic_and_order_preserving(self):
        plan = _sleepy_plan(cells=6)
        once = ShardPlanner().partition(plan, workers=2)
        twice = ShardPlanner().partition(plan, workers=2)
        assert once == twice
        order = {spec: i for i, spec in enumerate(plan.specs)}
        for shard in once:
            indices = [order[spec] for spec in shard.specs]
            assert indices == sorted(indices)

    def test_more_shards_than_workers_for_releasing(self):
        plan = _sleepy_plan(cells=6)
        shards = ShardPlanner(shards_per_worker=4).partition(plan, workers=2)
        assert len(shards) == 6  # capped by the cell count

    def test_max_shard_cells_caps_huge_uniform_shards(self):
        assert ShardPlanner(max_shard_cells=10).shard_count(1000, workers=1) == 100

    def test_empty_subset_yields_no_shards(self):
        assert ShardPlanner().partition(_sleepy_plan(2), 2, specs=[]) == []

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ShardPlanner(shards_per_worker=0)
        with pytest.raises(ValueError):
            ShardPlanner().shard_count(4, workers=0)


# -- options ------------------------------------------------------------------------

class TestDistOptions:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            DistOptions(transport="carrier-pigeon")

    def test_local_transport_needs_a_worker(self):
        with pytest.raises(ValueError, match="workers"):
            DistOptions(workers=0, transport="local")

    def test_socket_transport_allows_zero_workers(self):
        assert DistOptions(workers=0, transport="socket").workers == 0

    def test_lease_timeout_must_exceed_heartbeats(self):
        with pytest.raises(ValueError, match="heartbeat"):
            DistOptions(lease_timeout_s=1.0, heartbeat_s=0.6)

    def test_auto_specs_rejected_by_coordinator(self):
        spec = RunSpec.make("_dist-sleepy", {"i": 0}, backend="auto")
        with pytest.raises(ValueError, match="unrouted"):
            Coordinator(CampaignPlan(name="auto", specs=(spec,)))


# -- end-to-end: local (stdio) transport --------------------------------------------

class TestLocalTransport:
    def test_distributed_matches_single_process_store(self, tmp_path, sleepy_env):
        plan = _sleepy_plan(cells=6)
        dist_store = ArtifactStore(tmp_path / "dist")
        result = run_distributed(
            plan,
            store=dist_store,
            options=_options(workers=2, extra_env=sleepy_env),
        )
        assert result.failed == 0 and result.executed == 6
        assert [r.spec for r in result.records] == list(plan.specs)
        serial_store = ArtifactStore(tmp_path / "serial")
        serial = execute_plan(plan, store=serial_store, workers=1)
        assert serial.failed == 0
        for spec in plan:
            assert (
                dist_store.result_path(spec).read_bytes()
                == serial_store.result_path(spec).read_bytes()
            ), f"artifact for {spec.label()} differs distributed vs serial"
        # The journal was folded into an atomic index at shutdown.
        assert not dist_store.journal_path.exists()
        assert ArtifactStore(tmp_path / "dist").summary() == {"_dist-sleepy": 6}

    def test_resumes_from_partial_store(self, tmp_path, sleepy_env):
        plan = _sleepy_plan(cells=6)
        store = ArtifactStore(tmp_path / "store")
        partial = CampaignPlan(name="partial", specs=plan.specs[:3], seed=plan.seed)
        execute_plan(partial, store=store, workers=1)
        result = run_distributed(
            plan, store=store, options=_options(workers=2, extra_env=sleepy_env)
        )
        assert result.cached == 3 and result.executed == 3 and result.failed == 0

    def test_failing_cells_become_error_records(self, tmp_path, sleepy_env):
        # Unknown axis value: the runner raises inside the worker.
        bad = CampaignPlan(
            name="bad",
            specs=(
                RunSpec.make("pingpong-placement",
                             {"placement": "nope", "message_kib": 4, "noise": "none"}),
                RunSpec.make("_dist-sleepy", {"i": 0, "sleep_s": 0.0}),
            ),
        )
        result = run_distributed(
            bad, options=_options(workers=1, extra_env=sleepy_env)
        )
        assert result.failed == 1 and result.executed == 1
        assert "placement" in result.records[0].error


# -- end-to-end: socket transport + crash-resume ------------------------------------

class TestSocketTransport:
    def test_two_workers_complete_a_grid(self, tmp_path, sleepy_env):
        plan = _sleepy_plan(cells=6)
        store = ArtifactStore(tmp_path / "sock")
        result = run_distributed(
            plan,
            store=store,
            options=_options(workers=2, transport="socket", extra_env=sleepy_env),
        )
        assert result.failed == 0 and result.executed == 6
        assert len(ArtifactStore(tmp_path / "sock")) == 6

    def test_external_worker_via_cli_connect(self, tmp_path, sleepy_env):
        """A coordinator with workers=0 is served by a CLI-started worker."""
        import subprocess

        plan = _sleepy_plan(cells=4)
        store = ArtifactStore(tmp_path / "ext")
        coordinator = Coordinator(
            plan,
            store=store,
            options=_options(workers=0, transport="socket", extra_env=sleepy_env),
        )
        host, port = coordinator.address
        env = dict(os.environ)
        env.update(sleepy_env)
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "campaign", "worker",
             "--connect", f"{host}:{port}", "--preload", _SLEEPY_MODULE, "--quiet"],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        # Listen-only coordinators wait for external workers indefinitely by
        # design, so run() goes in a thread and a wedge fails instead of
        # hanging the suite.
        outcome = {}
        runner = threading.Thread(target=lambda: outcome.update(result=coordinator.run()))
        runner.start()
        try:
            runner.join(timeout=90)
            assert not runner.is_alive(), (
                f"coordinator never finished (worker rc: {worker.poll()})"
            )
        finally:
            try:
                worker.wait(timeout=30)  # exits on the coordinator's shutdown
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait(timeout=10)
        result = outcome["result"]
        assert result.failed == 0 and result.executed == 4
        assert worker.returncode == 0

    def test_dead_worker_fleet_abandons_instead_of_wedging(self):
        """Workers that die at startup must fail the cells, not hang run().

        A bogus --preload makes every spawned worker exit immediately; once
        the respawn budget is spent the coordinator abandons the pending
        shards (listen-only --workers 0 mode is the only one that waits)."""
        plan = _sleepy_plan(cells=2)
        result = run_distributed(
            plan,
            options=_options(
                workers=1,
                transport="socket",
                preload="no_such_module_anywhere",
                max_leases=2,
            ),
        )
        assert result.failed == 2
        assert all("no workers left" in r.error for r in result.records)

    def test_sigkilled_worker_is_re_leased_and_store_matches(
        self, tmp_path, sleepy_env
    ):
        """Crash-resume acceptance: kill a worker mid-shard; the coordinator
        re-leases its cells and the final store is hash-for-hash identical
        to a single-process run."""
        plan = _sleepy_plan(cells=6, sleep_s=0.3)
        store = ArtifactStore(tmp_path / "crash")
        first_result = threading.Event()

        def progress(done, total, record):
            first_result.set()

        coordinator = Coordinator(
            plan,
            store=store,
            options=_options(
                workers=2,
                transport="socket",
                extra_env=sleepy_env,
                shards_per_worker=2,
            ),
            progress=progress,
        )
        outcome = {}
        runner = threading.Thread(target=lambda: outcome.update(result=coordinator.run()))
        runner.start()
        try:
            # Let both workers lease work, then SIGKILL one mid-shard.
            assert first_result.wait(timeout=60), "no result ever arrived"
            pids = coordinator.worker_pids
            assert pids, "no spawned workers to kill"
            os.kill(pids[0], signal.SIGKILL)
        finally:
            runner.join(timeout=120)
        assert not runner.is_alive(), "coordinator wedged after worker death"
        result = outcome["result"]
        assert result.failed == 0, [r.error for r in result.records if r.error]
        assert result.executed == 6

        serial_store = ArtifactStore(tmp_path / "serial")
        serial = execute_plan(plan, store=serial_store, workers=1)
        assert serial.failed == 0
        for spec in plan:
            assert (
                store.result_path(spec).read_bytes()
                == serial_store.result_path(spec).read_bytes()
            ), f"artifact for {spec.label()} differs after crash-resume"
        assert set(store.index()) == set(serial_store.index())


# -- coordinator unit behaviour -----------------------------------------------------

class TestLeaseBookkeeping:
    def test_abandoned_shards_become_failed_records(self):
        """A shard re-leased past max_leases fails its remaining cells."""
        from repro.campaign.dist.coordinator import _Lease
        from repro.campaign.dist.shard import Shard

        plan = _sleepy_plan(cells=2)
        coordinator = Coordinator(plan, options=_options(max_leases=2))
        coordinator._outstanding = {spec.spec_hash() for spec in plan.specs}
        shard = Shard(shard_id=0, specs=plan.specs)
        lease = _Lease(
            shard=shard,
            remaining={spec.spec_hash() for spec in plan.specs},
            attempts=2,  # already at the limit
            last_seen=0.0,
        )
        coordinator._requeue(lease)
        assert not coordinator._pending
        assert not coordinator._outstanding
        records = [r for r in coordinator._records if r is not None]
        assert len(records) == 2
        assert all("abandoned" in record.error for record in records)

    def test_duplicate_results_are_ignored(self, tmp_path):
        plan = _sleepy_plan(cells=1)
        store = ArtifactStore(tmp_path / "dup")
        coordinator = Coordinator(plan, store=store, options=_options())
        spec = plan.specs[0]
        coordinator._outstanding = {spec.spec_hash()}
        record = run_cell(spec)
        message = {
            "type": "result",
            "shard": 0,
            "spec": spec.to_wire(),
            "payload": record.payload,
            "report": record.report,
            "elapsed_s": record.elapsed_s,
            "error": "",
        }

        class _FakeHandle:
            lease = None

        coordinator._merge_result(_FakeHandle(), message)
        before = store.result_path(spec).read_bytes()
        coordinator._merge_result(_FakeHandle(), message)  # duplicate: no-op
        assert store.result_path(spec).read_bytes() == before
        assert coordinator._records[0] is not None


# -- store: journal + streaming export ----------------------------------------------

class TestStoreJournal:
    def test_deferred_saves_replay_after_crash(self, tmp_path):
        """Results journaled but never flushed survive a coordinator crash."""
        store = ArtifactStore(tmp_path / "store")
        spec = RunSpec.make("_dist-sleepy", {"i": 0, "sleep_s": 0.0})
        store.save(spec, {"metrics": {"total": 1.0}}, elapsed=0.5, defer_index=True)
        assert store.journal_path.exists()
        # Simulate the crash: a brand-new store object, no flush ever ran.
        reopened = ArtifactStore(tmp_path / "store")
        assert reopened.has(spec)
        assert reopened.load(spec) == {"metrics": {"total": 1.0}}

    def test_flush_folds_journal_into_index(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = RunSpec.make("_dist-sleepy", {"i": 1, "sleep_s": 0.0})
        store.save(spec, {"metrics": {"total": 2.0}}, defer_index=True)
        index_text = store.index_path.read_text() if store.index_path.exists() else ""
        assert spec.spec_hash() not in index_text
        store.flush_journal()
        assert not store.journal_path.exists()
        assert spec.spec_hash() in store.index_path.read_text()

    def test_flush_folds_other_writers_entries(self, tmp_path):
        root = tmp_path / "shared"
        writer_a = ArtifactStore(root)
        writer_b = ArtifactStore(root)
        spec_a = RunSpec.make("_dist-sleepy", {"i": 2, "sleep_s": 0.0})
        spec_b = RunSpec.make("_dist-sleepy", {"i": 3, "sleep_s": 0.0})
        writer_a.save(spec_a, {"metrics": {"total": 1.0}}, defer_index=True)
        writer_b.save(spec_b, {"metrics": {"total": 2.0}}, defer_index=True)
        writer_a.flush_journal()
        reopened = ArtifactStore(root)
        assert reopened.has(spec_a) and reopened.has(spec_b)

    def test_torn_journal_line_is_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = RunSpec.make("_dist-sleepy", {"i": 4, "sleep_s": 0.0})
        store.save(spec, {"metrics": {"total": 3.0}}, defer_index=True)
        with store.journal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"hash": "dead", "entry": {"scena')  # torn write
        reopened = ArtifactStore(tmp_path / "store")
        assert reopened.has(spec)
        assert "dead" not in reopened.index()

    def test_flush_without_journal_touches_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-written")
        store.flush_journal()
        assert not store.root.exists()


class TestStreamingExport:
    def test_iter_status_rows_is_lazy_and_matches_list(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for i in range(4):
            store.save(
                RunSpec.make("_dist-sleepy", {"i": i, "sleep_s": 0.0}),
                {"metrics": {"total": float(i)}},
            )
        iterator = store.iter_status_rows()
        assert iter(iterator) is iterator  # a true generator, not a list
        assert list(iterator) == store.status_rows()

    def test_csv_streams_every_row_with_union_header(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save(
            RunSpec.make("_dist-sleepy", {"i": 0, "sleep_s": 0.0}),
            {"metrics": {"alpha": 1.0}},
        )
        store.save(
            RunSpec.make("_dist-sleepy", {"i": 1, "sleep_s": 0.0}),
            {"metrics": {"beta": 2.0}},
        )
        path = store.export_csv(tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        header = lines[0]
        assert header.startswith("hash,scenario,scale,seed,params")
        assert "metric.alpha" in header and "metric.beta" in header


# -- CLI ----------------------------------------------------------------------------

class TestDistCli:
    def test_parse_bind(self):
        assert _parse_bind("127.0.0.1:0") == ("127.0.0.1", 0)
        assert _parse_bind("0.0.0.0:7077") == ("0.0.0.0", 7077)
        for bad in ("nohost", ":123", "host:port", "host:99999"):
            with pytest.raises(ValueError):
                _parse_bind(bad)

    def test_worker_requires_concrete_port(self):
        with pytest.raises(SystemExit):
            campaign_main(["worker", "--connect", "127.0.0.1:0"])

    def test_worker_rejects_unimportable_preload(self):
        with pytest.raises(SystemExit):
            campaign_main(
                ["worker", "--connect", "127.0.0.1:1", "--preload", "no_such_mod"]
            )

    def test_zero_workers_only_with_socket(self, tmp_path):
        with pytest.raises(SystemExit):
            campaign_main(
                ["run", "_dist-sleepy", "--workers", "0", "--transport", "local",
                 "--store", str(tmp_path / "s")]
            )

    def test_run_with_local_transport_end_to_end(self, tmp_path, capsys):
        """CLI acceptance: a builtin cell over --transport local, then cached."""
        store = str(tmp_path / "store")
        argv = [
            "run", "pingpong-placement",
            "--set", "placement=inter-nodes", "--set", "message_kib=4",
            "--set", "noise=none",
            "--workers", "2", "--transport", "local", "--store", store,
        ]
        assert campaign_main(argv) == 0
        assert "1 executed, 0 cached" in capsys.readouterr().out
        assert campaign_main(argv) == 0
        assert "0 executed, 1 cached" in capsys.readouterr().out
