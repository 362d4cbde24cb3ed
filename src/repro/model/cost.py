"""Cost/fidelity layer of the backends: what would this run cost?

Each backend in :data:`repro.model.base.BACKENDS` has a cost model in
:data:`COST_MODELS`.  A cost model turns a substrate-independent
:class:`WorkloadProfile` — how big the machine is and how much traffic the
run will push — into a :class:`CostEstimate` in *work units*, an abstract
inner-loop-operation count comparable across backends:

* the ``flit`` backend estimates **events**: every flit of every packet is
  an event at every hop, so work ~ ``messages x flits/message x hops``;
* the ``flow`` backend estimates **solver work**: each membership change
  triggers a fair-share re-solve over the active flows, so work ~
  ``solves x flows x links-per-flow x fill-rounds``, scaled by a per-op
  weight reflecting the vectorized engine.

The campaign planner (:mod:`repro.campaign.router`) builds profiles from
scenario cost hints and uses the estimates to route each grid cell to the
cheapest backend that is still faithful, under an optional total budget.
Estimates are planning proxies, not wall-clock predictions — their job is
to order cells and backends correctly, and the per-op weights below are the
calibration knobs if the ordering ever drifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Mapping


@dataclass(frozen=True)
class WorkloadProfile:
    """Substrate-independent description of one run's machine and traffic.

    All quantities are estimates; fractional values are fine.  The profile
    deliberately knows nothing about scenarios or run specs so that cost
    models stay importable from the model layer alone.
    """

    #: Compute nodes in the simulated machine.
    nodes: int
    #: Routers in the simulated machine.
    routers: int
    #: Directed links (fabric + host) — the solver's matrix dimension.
    links: int
    #: Total messages the run submits (application + background traffic).
    messages: float
    #: Request flits per message after NIC packetization (headers included).
    flits_per_message: float
    #: Average hops a packet traverses (fabric hops, excluding NIC links).
    avg_hops: float
    #: Peak number of concurrent fluid flows (messages in flight x spread).
    concurrent_flows: float

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.routers < 1 or self.links < 1:
            raise ValueError("profile needs a non-empty machine")
        if self.messages < 0 or self.flits_per_message < 0:
            raise ValueError("traffic quantities must be non-negative")


@dataclass(frozen=True)
class CostEstimate:
    """Estimated execution cost of one run on one backend.

    ``work`` is in abstract work units (weighted inner-loop operations);
    estimates from different backends are directly comparable.  ``detail``
    carries the unweighted intermediate quantities for reports and tests.
    """

    backend: str
    work: float
    detail: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError("estimated work must be non-negative")


class FlitCostModel:
    """Event-count proxy for the cycle-accurate flit simulator.

    Every request flit is forwarded at every fabric hop plus the two NIC
    links, and every packet triggers a single-flit response along the way
    back — each forwarding is at least one simulator event.
    """

    backend_name = "flit"

    #: Work units charged per *predicted* event.  The prediction below
    #: (flits x hops) tracks the pre-coalescing engine; since the
    #: event-coalesced credit flow and calendar scheduler, the flit backend
    #: executes ~1.7x fewer simulator events than the product suggests and
    #: finishes ~1.6x faster end to end, so each predicted unit is
    #: re-weighted accordingly.  The weight is calibrated on the calendar
    #: scheduler, the flit backend's only production engine.
    unit_cost: ClassVar[float] = 0.6

    #: Response-path events relative to request-path events (single-flit
    #: responses retrace the hops of a multi-flit request).
    response_factor: ClassVar[float] = 0.25

    def estimate_cost(self, profile: WorkloadProfile) -> CostEstimate:
        hops = profile.avg_hops + 2.0  # + injection and ejection NIC links
        request_events = profile.messages * profile.flits_per_message * hops
        events = request_events * (1.0 + self.response_factor)
        return CostEstimate(
            backend=self.backend_name,
            work=events * self.unit_cost,
            detail={
                "events": events,
                "hops": hops,
                "messages": profile.messages,
                "flits_per_message": profile.flits_per_message,
                "unit_cost": self.unit_cost,
            },
        )


class FlowCostModel:
    """Solver-work proxy for the flow-level engine.

    Each membership change (one submission and one completion per message)
    triggers a fair-share re-solve whose inner loop is
    ``O(flows x links x fill-rounds)``: every active flow contributes one
    incidence row over the links it occupies, and progressive filling
    freezes at least one bottleneck link per round.  The per-op weight is
    far below the flit backend's because the vectorized engine processes
    whole incidence rows per NumPy operation.
    """

    backend_name = "flow"

    #: Work units charged per solver inner-loop operation (vectorized).
    unit_cost: ClassVar[float] = 0.05

    def estimate_cost(self, profile: WorkloadProfile) -> CostEstimate:
        flows = max(1.0, profile.concurrent_flows)
        links_per_flow = profile.avg_hops + 2.0
        fill_rounds = max(1.0, math.log2(flows) + 1.0)
        solves = 2.0 * profile.messages  # one submission + one completion each
        ops = solves * flows * links_per_flow * fill_rounds
        return CostEstimate(
            backend=self.backend_name,
            work=ops * self.unit_cost,
            detail={
                "solves": solves,
                "flows": flows,
                "links_per_flow": links_per_flow,
                "fill_rounds": fill_rounds,
                "ops": ops,
            },
        )


#: backend name -> its cost estimator (``estimate_cost(profile)``).
COST_MODELS = {"flit": FlitCostModel(), "flow": FlowCostModel()}
