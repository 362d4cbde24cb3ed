"""The benchmark's campaign workloads: plans, execution and output check.

Every workload is a campaign driven through the public campaign API
(``plan_campaign``, ``BackendRouter``, ``execute_plan``,
``run_distributed``/``DistOptions``, ``ArtifactStore``).  One *repetition*
executes the workload's plan into a fresh, empty artifact store and checks
what landed there:

* every cell and audit produced a result (errors count as failed cells);
* every ``results/<hash>.json`` (and ``audits/<hash>.json``) hashes to the
  bytes recorded for that spec in ``baseline.json`` when the spec is
  recorded, and to the bytes of the run's first repetition otherwise;
* the routing split (flit cells, flow cells, audits) equals the recorded
  one — a changed split means the program planned a different campaign,
  so the whole repetition counts as failed.

The benchmark's ``--seed`` picks the campaign master seed from the
workload's recorded seed pool (see ``record.py``); the program only ever
sees the plan built from that campaign seed.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "baseline.json"


@dataclass(frozen=True)
class Workload:
    """One named campaign: scenarios, grid subset, backend and executor."""

    name: str
    why: str
    scenarios: Tuple[str, ...]
    overrides: Mapping[str, Tuple[object, ...]]
    backend: str
    #: Total-work budget of the ``auto`` router (None: no router).
    budget: Optional[float] = None
    audit_fraction: float = 0.0
    #: Distributed workers over the ``local`` transport (0: serial executor).
    workers: int = 0
    #: Overrides for the self-test: one cell per scenario.
    tiny: Mapping[str, Tuple[object, ...]] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="flit-pingpong",
            why="paper Fig. 3/7 ping-pong grids on the flit backend: event "
            "scheduler, link/credit plane, UGAL and path sampling dominate",
            scenarios=("pingpong-placement", "routing-mode-pingpong"),
            overrides={"noise": ("light",), "mode": ("ADAPTIVE_3",),
                       "placement": ("inter-groups",)},
            backend="flit",
            tiny={"noise": ("light",), "mode": ("ADAPTIVE_3",), "message_kib": (4,),
                  "placement": ("inter-groups",)},
        ),
        Workload(
            name="flow-cluster",
            why="multi-tenant trace replay with constant flow churn: flow "
            "path choice and path sampling dominate, link/UGAL code idle",
            scenarios=("cluster-trace",),
            overrides={"jobs": (128,), "policy": ("contiguous",),
                       "mode": ("ADAPTIVE_3",), "load": ("light",)},
            backend="flow",
            tiny={"jobs": (128,), "policy": ("contiguous",), "mode": ("MIN_HASH",),
                  "load": ("light",)},
        ),
        Workload(
            name="dist-auto",
            why="auto-routed grid with flit audits on 2 local workers: the only "
            "workload using router, wire protocol, journal and audit tail",
            scenarios=("pingpong-placement", "routing-mode-pingpong"),
            overrides={"noise": ("light",), "mode": ("ADAPTIVE_3",)},
            backend="auto",
            budget=4.0e5,
            audit_fraction=0.25,
            workers=2,
            tiny={"noise": ("light",), "mode": ("ADAPTIVE_3",), "message_kib": (4,),
                  "placement": ("inter-groups",)},
        ),
    )
}


def load_baseline() -> Dict:
    """The recorded seed pools, output hashes, splits and baseline figures."""
    if not BASELINE_PATH.exists():
        return {}
    return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))


def campaign_seed(workload: Workload, seed: int, baseline: Mapping) -> int:
    """Map the benchmark seed to a campaign master seed from the pool.

    Without a recorded pool (while recording one) the seed is used as is.
    """
    pool = baseline.get("workloads", {}).get(workload.name, {}).get("pool")
    return int(pool[seed % len(pool)]) if pool else int(seed)


def plan(workload: Workload, seed: int, tiny: bool = False, budget: Optional[float] = None):
    """Build, route and return the workload's plan at one campaign seed."""
    import repro.campaign as campaign

    router = None
    if workload.backend == "auto":
        router = campaign.BackendRouter(budget=budget if budget is not None else workload.budget)
    return campaign.plan_campaign(
        list(workload.scenarios),
        scale="smoke",
        seed=seed,
        overrides=dict(workload.tiny if tiny else workload.overrides),
        name=workload.name,
        backend=workload.backend,
        router=router,
    )


def split_of(plan_, audit_fraction: float) -> Dict[str, int]:
    """Routing split of a plan: flit cells, flow cells and audits sampled."""
    from repro.campaign import select_audit_pairs

    flit = sum(1 for spec in plan_ if spec.backend == "flit")
    audits = len(select_audit_pairs(plan_, audit_fraction))
    return {"flit": flit, "flow": len(plan_) - flit, "audits": audits}


def execute(workload: Workload, plan_, store_root: pathlib.Path, tracer=None):
    """Execute one repetition into a fresh store; returns (result, store)."""
    import repro.campaign as campaign

    store = campaign.ArtifactStore(store_root)
    if tracer is not None:
        tracer.exec_started = time.perf_counter()
    if workload.workers:
        result = campaign.run_distributed(
            plan_,
            store=store,
            options=campaign.DistOptions(workers=workload.workers, transport="local"),
            audit_fraction=workload.audit_fraction,
        )
    else:
        result = campaign.execute_plan(
            plan_, store=store, workers=1, audit_fraction=workload.audit_fraction
        )
    store.flush_journal()
    return result, store


def _sha(path: pathlib.Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    except OSError:
        return None


def _valid_payload(path: pathlib.Path) -> bool:
    """A result (or audit) file is JSON with a non-empty numeric ``metrics``.

    Result metrics are numbers; audit metrics are per-metric
    ``{"flow", "flit", "delta"[, "rel"]}`` dicts of numbers.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    metrics = payload.get("metrics") if isinstance(payload, dict) else None
    if not isinstance(metrics, dict) or not metrics:
        return False
    values = [v for m in metrics.values() for v in (m.values() if isinstance(m, dict) else [m])]
    return all(isinstance(v, (int, float)) for v in values)


@dataclass
class Check:
    """Output check of one repetition."""

    attempted: int
    failed: int
    #: spec hash -> result sha for cells, audits keyed ``audit:<flow hash>``.
    hashes: Dict[str, str]
    digest: str
    split: Dict[str, int]
    problems: List[str]
    flow_err_max: Optional[float]


def check(
    plan_,
    result,
    store,
    audit_fraction: float,
    recorded: Mapping,
    reference: Optional[Mapping[str, str]],
) -> Check:
    """Check a repetition's store against the recorded and first-run hashes.

    ``recorded`` is the workload's ``baseline.json`` entry (``cells``,
    ``split``, ``seeds``); ``reference`` the first repetition's hashes.
    """
    problems: List[str] = []
    hashes: Dict[str, str] = {}
    failed = 0
    recorded_cells = recorded.get("cells", {})
    seed_recorded = plan_.seed in recorded.get("seeds", [])
    records = {record.spec: record for record in result.records}
    # (key, label, file, error or None) per cell, then per audit.
    units: List[Tuple[str, str, pathlib.Path, Optional[str]]] = []
    for spec in plan_:
        record = records.get(spec)
        error = None if record is not None and record.ok else (
            getattr(record, "error", "") or "no result")
        units.append((spec.spec_hash(), spec.label(), store.result_path(spec), error))
    for audit in result.audits:
        error = None if audit.ok else (audit.record.error or "no result")
        units.append(("audit:" + audit.spec.spec_hash(), "audit of " + audit.spec.label(),
                      store.audit_path(audit.spec), error))
    for key, label, path, error in units:
        bad = None
        sha = _sha(path)
        if error is not None:
            bad = f"errored: {error}"
        elif sha is None or not _valid_payload(path):
            bad = "result missing or malformed"
        elif key in recorded_cells and recorded_cells[key] != sha:
            bad = "bytes differ from the recorded result"
        elif seed_recorded and key not in recorded_cells:
            bad = "cell not in the recorded plan"
        elif reference is not None and reference.get(key) != sha:
            bad = "bytes differ from the first repetition"
        if bad:
            failed += 1
            problems.append(f"{label}: {bad}")
        if sha is not None:
            hashes[key] = sha
    split = split_of(plan_, audit_fraction)
    attempted = len(plan_) + max(split["audits"], len(result.audits))
    if len(result.audits) != split["audits"]:
        problems.append(f"{len(result.audits)} audit(s) ran, plan sampled {split['audits']}")
        failed += abs(split["audits"] - len(result.audits))
    expected = recorded.get("split")
    if expected is not None and dict(expected) != split:
        problems.append(f"routing split {split} != recorded {dict(expected)}")
        failed = attempted
    digest = hashlib.sha256(
        "".join(f"{k}:{hashes.get(k, '-')}\n" for k, *_ in units).encode()
    ).hexdigest()[:16]
    errors = [a.max_abs_rel() for a in result.audits if a.ok]
    errors = [e for e in errors if e is not None]
    return Check(
        attempted=attempted,
        failed=failed,
        hashes=hashes,
        digest=digest,
        split=split,
        problems=problems,
        flow_err_max=max(errors) if errors else None,
    )
