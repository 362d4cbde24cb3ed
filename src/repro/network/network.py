"""The complete simulated system: topology + routers + links + NICs + routing.

:class:`Network` is the main entry point of the substrate layer.  It wires an
Aries-like Dragonfly out of :class:`~repro.network.router.Router`,
:class:`~repro.network.link.Link` and :class:`~repro.network.nic.Nic`
instances, installs the UGAL path selector, and offers a small API used by
the MPI layer and the experiments:

* :meth:`send` — submit an application message (RDMA PUT/GET) with a given
  per-message routing mode;
* :meth:`run` / :meth:`run_until_idle` — advance the discrete-event clock;
* counter access per NIC and per router (the simulated PAPI).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.config import SimulationConfig
from repro.model.base import NetworkModel
from repro.network.link import Link
from repro.network.nic import Nic
from repro.network.packet import Message, Packet, RdmaOp
from repro.network.router import Router
from repro.routing.modes import RoutingMode
from repro.routing.ugal import UgalSelector
from repro.sim.calendar import CalendarSimulator
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry.core import TELEMETRY
from repro.telemetry.probes import ProbeRecorder, ProbeSampler
from repro.topology.dragonfly import DragonflyTopology, LinkKind
from repro.topology.geometry import router_of_node


class FlitLinkSampler(ProbeSampler):
    """Fixed-interval link/NIC probe for the flit backend (all engines).

    Polled via the simulator's ``probe_hook`` slot, so it works identically
    under the reference and calendar engines.  It only *reads* link
    state — through :meth:`Link.occupancy_view`, which never settles
    credits — and never schedules events, keeping traced and untraced
    event streams (and payloads) byte-identical.

    Series schema (shared verbatim with the flow backend's sampler):
    ``occupancy``/``queue``/``stalled_links`` per link class
    (local/global/injection) per group, plus the paper's NIC counter
    surface — ``nic_stall_ratio`` (s) and ``nic_latency`` (L) — per group.
    """

    __slots__ = ("_link_buckets", "_nic_buckets")

    def __init__(self, recorder: ProbeRecorder, network: "Network"):
        super().__init__(recorder)
        recorder.backend = "flit"
        topology = network.topology
        group_of = topology.group_of_router
        link_buckets: Dict[Tuple[str, int], list] = {}
        for (src, dst), link in network._links.items():
            kind = topology.link_kind(src, dst)
            cls = "global" if kind == LinkKind.BLUE else "local"
            link_buckets.setdefault((cls, group_of[src]), []).append(link)
        for node, link in enumerate(network._injection_links):
            group = group_of[network._router_of_node[node]]
            link_buckets.setdefault(("injection", group), []).append(link)
        self._link_buckets = sorted(link_buckets.items())
        nic_buckets: Dict[int, list] = {}
        for nic in network.nics:
            nic_buckets.setdefault(group_of[nic.router_id], []).append(nic)
        self._nic_buckets = sorted(nic_buckets.items())

    def collect(self, now: int) -> None:
        recorder = self.recorder
        for (cls, group), links in self._link_buckets:
            occupancy = 0
            queued = 0
            stalled = 0
            for link in links:
                occupancy += link.occupancy_view(now)
                queued += link.queue_flits
                if link._stalled_since is not None:
                    stalled += 1
            n = len(links)
            recorder.series_for("occupancy", cls, group).add(now, occupancy / n)
            recorder.series_for("queue", cls, group).add(now, queued / n)
            recorder.series_for("stalled_links", cls, group).add(now, stalled)
        for group, nics in self._nic_buckets:
            flits = stalled_cycles = responses = 0
            cum_latency = 0.0
            for nic in nics:
                counters = nic.counters
                flits += counters.request_flits
                stalled_cycles += counters.request_flits_stalled_cycles
                cum_latency += counters.request_packets_cum_latency
                responses += counters.responses_received
            stall_ratio = stalled_cycles / flits if flits else 0.0
            latency = cum_latency / responses if responses else 0.0
            recorder.series_for("nic_stall_ratio", "nic", group).add(
                now, stall_ratio
            )
            recorder.series_for("nic_latency", "nic", group).add(now, latency)


class Network(NetworkModel):
    """A fully wired Dragonfly system ready to carry traffic.

    This is the cycle-accurate **flit-level** backend of the
    :class:`~repro.model.base.NetworkModel` protocol: packets move flit by
    flit through credit-flow-controlled links, so phantom congestion,
    back-pressure stalls and adaptive-routing dynamics emerge from the
    mechanics rather than a closed-form model.
    """

    backend_name = "flit"

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        sim: Optional[Simulator] = None,
        streams: Optional[RandomStreams] = None,
    ):
        self.config = config or SimulationConfig()
        self.sim = sim or CalendarSimulator()
        self.streams = streams or RandomStreams(self.config.seed)
        self.topology = DragonflyTopology(self.config.topology)

        self.routers: List[Router] = [
            Router(rid) for rid in range(self.topology.num_routers)
        ]
        self.nics: List[Nic] = []
        #: Directed router-to-router links, keyed by (src_router, dst_router).
        self._links: Dict[Tuple[int, int], Link] = {}
        self._injection_links: List[Link] = []
        self._ejection_links: List[Link] = []

        self._build_fabric()
        self._build_hosts()

        self.selector = UgalSelector(
            self.topology,
            self.config.routing,
            self.streams.stream("routing"),
            links=self._links,
        )
        #: node id -> router id, precomputed for the per-packet routing hook.
        self._router_of_node: List[int] = [
            router_of_node(node, self.config.topology)
            for node in range(self.topology.num_nodes)
        ]
        #: Messages completed (delivered), for experiment bookkeeping.
        self.delivered_messages: int = 0

        # Install the link probe last so it sees the fully wired system.
        # When probes are off the hook stays None and the engines pay one
        # ``is not None`` check per event (reference) or bucket (calendar).
        recorder = TELEMETRY.recorder
        if recorder is not None:
            self.sim.probe_hook = FlitLinkSampler(recorder, self)

    # -- construction --------------------------------------------------------

    @staticmethod
    def _buffer_for(base_flits: int, latency: int) -> int:
        """Input-buffer depth covering at least the credit round trip.

        Real Aries tiles provision buffering beyond the bandwidth-delay
        product so that a single uncongested flow never stalls on credits;
        without this, optical links (300-cycle latency) would be throttled to
        a fraction of their bandwidth even on an idle network.
        """
        return max(base_flits, 2 * latency + 16)

    def _build_fabric(self) -> None:
        topo_cfg = self.config.topology
        # Runs with no credit-information delay answer every far-end probe
        # from the live credit count, so the per-update occupancy history
        # would be pure overhead.
        track_occupancy = self.config.routing.credit_info_delay > 0
        for link_id in self.topology.all_links():
            kind = link_id.kind
            latency = self.topology.link_latency(kind)
            link = Link(
                sim=self.sim,
                name=link_id.label(topo_cfg),
                latency=latency,
                width=self.topology.link_width(kind),
                buffer_flits=self._buffer_for(topo_cfg.router_buffer_flits, latency),
                cycles_per_flit=topo_cfg.fabric_cycles_per_flit,
                deliver=self.routers[link_id.dst].packet_arrived,
                track_occupancy=track_occupancy,
            )
            self._links[(link_id.src, link_id.dst)] = link
            self.routers[link_id.src].attach_output(link_id.dst, link)

    def _build_hosts(self) -> None:
        topo_cfg = self.config.topology
        nic_cfg = self.config.nic
        for node_id in range(self.topology.num_nodes):
            router_id = router_of_node(node_id, topo_cfg)
            router = self.routers[router_id]
            nic = Nic(node_id, router_id, self.sim, nic_cfg, self)
            # NIC -> router (injection) link; stalls here feed the NIC counter.
            injection = Link(
                sim=self.sim,
                name=f"nic{node_id}->r{router_id}",
                latency=topo_cfg.host_link_latency,
                width=1,
                buffer_flits=self._buffer_for(
                    topo_cfg.nic_buffer_flits, topo_cfg.host_link_latency
                ),
                cycles_per_flit=topo_cfg.cycles_per_flit,
                deliver=router.packet_arrived,
                measure_stalls=True,
                on_stall=nic.record_stall,
                # Routing only probes the delayed occupancy of *fabric*
                # links (the first hop of a candidate path), never the host
                # links, so their history would go unread.
                track_occupancy=False,
            )
            injection.on_transmit = self.assign_path
            # router -> NIC (ejection) link.
            ejection = Link(
                sim=self.sim,
                name=f"r{router_id}->nic{node_id}",
                latency=topo_cfg.host_link_latency,
                width=1,
                buffer_flits=self._buffer_for(
                    topo_cfg.nic_buffer_flits, topo_cfg.host_link_latency
                ),
                cycles_per_flit=topo_cfg.cycles_per_flit,
                deliver=nic.packet_ejected,
                track_occupancy=False,
            )
            nic.injection_link = injection
            router.attach_ejection(node_id, ejection)
            self.nics.append(nic)
            self._injection_links.append(injection)
            self._ejection_links.append(ejection)

    # -- routing hook ----------------------------------------------------------

    def assign_path(self, packet: Packet) -> None:
        """Choose the packet's path; called as its first flit leaves the NIC.

        Responses are small control packets; the hardware routes them
        adaptively as well, but their contribution to congestion is minor —
        they travel with the same mode as their request stream (pinned by
        ``tests/test_network.py::TestResponseRouting``).
        """
        if packet.path is not None:
            return
        routers = self._router_of_node
        decision = self.selector.select(
            routers[packet.src_node], routers[packet.dst_node],
            packet.message.routing_mode,
        )
        packet.path = decision.path
        packet.minimal = decision.minimal
        packet.hop_index = 0
        if not packet.is_response:
            message = packet.message
            if decision.minimal:
                message.minimal_packets += 1
            else:
                message.nonminimal_packets += 1

    # -- public API --------------------------------------------------------------

    def send(
        self,
        src_node: int,
        dst_node: int,
        size_bytes: int,
        routing_mode: RoutingMode = RoutingMode.ADAPTIVE_0,
        op: RdmaOp = RdmaOp.PUT,
        on_delivered: Optional[Callable[[Message], None]] = None,
        on_acked: Optional[Callable[[Message], None]] = None,
        tag: Optional[object] = None,
    ) -> Message:
        """Submit a message to the source NIC and return its handle."""
        if src_node == dst_node:
            raise ValueError("source and destination nodes must differ (use the host model for self-sends)")
        self._check_node(src_node)
        self._check_node(dst_node)

        def _count_delivery(message: Message) -> None:
            self.delivered_messages += 1
            if on_delivered is not None:
                on_delivered(message)

        message = Message(
            src_node=src_node,
            dst_node=dst_node,
            size_bytes=size_bytes,
            routing_mode=routing_mode,
            nic_config=self.config.nic,
            op=op,
            on_delivered=_count_delivery,
            on_acked=on_acked,
            tag=tag,
        )
        self.nics[src_node].submit(message)
        return message

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < len(self.nics):
            raise ValueError(
                f"node {node_id} out of range (system has {len(self.nics)} nodes)"
            )

    # -- access helpers -----------------------------------------------------------

    def nic(self, node_id: int) -> Nic:
        """The NIC attached to a node."""
        self._check_node(node_id)
        return self.nics[node_id]

    def router(self, router_id: int) -> Router:
        """A router by flat id."""
        return self.routers[router_id]

    def link(self, src_router: int, dst_router: int) -> Link:
        """The directed fabric link between two adjacent routers."""
        try:
            return self._links[(src_router, dst_router)]
        except KeyError:
            raise KeyError(
                f"no fabric link between routers {src_router} and {dst_router}"
            ) from None

    def injection_link(self, node_id: int) -> Link:
        """The NIC→router link of a node (where NIC stalls are measured)."""
        self._check_node(node_id)
        return self._injection_links[node_id]

    def fabric_links(self) -> Iterable[Link]:
        """All router-to-router links."""
        return self._links.values()

    @property
    def num_nodes(self) -> int:
        """Number of compute nodes in the system."""
        return len(self.nics)

    @property
    def num_routers(self) -> int:
        """Number of routers in the system."""
        return len(self.routers)

    # -- execution -----------------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Advance the simulation (see :meth:`repro.sim.engine.Simulator.run`)."""
        if not TELEMETRY.enabled:
            return self.sim.run(until=until, max_events=max_events)
        flits_before = self.total_flits_traversed()
        credits_before = self.total_credits_returned()
        with TELEMETRY.tracer.span("flit.run", cat="flit") as sp:
            result = self.sim.run(until=until, max_events=max_events)
            sp.add(flits=self.total_flits_traversed() - flits_before,
                   credits=self.total_credits_returned() - credits_before)
        return result

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until every queued event has been processed."""
        if not TELEMETRY.enabled:
            return self.sim.run_until_idle(max_events=max_events)
        flits_before = self.total_flits_traversed()
        credits_before = self.total_credits_returned()
        with TELEMETRY.tracer.span("flit.run", cat="flit") as sp:
            result = self.sim.run_until_idle(max_events=max_events)
            sp.add(flits=self.total_flits_traversed() - flits_before,
                   credits=self.total_credits_returned() - credits_before)
        return result

    # -- system-wide statistics -------------------------------------------------------

    def total_flits_traversed(self, router_ids: Optional[Iterable[int]] = None) -> int:
        """Flits observed by the (selected) routers — the Table 1 'incoming flits'."""
        routers = (
            self.routers
            if router_ids is None
            else [self.routers[r] for r in router_ids]
        )
        return sum(r.flits_traversed for r in routers)

    def total_credits_returned(self) -> int:
        """Credits returned across every link (fabric + injection + ejection)."""
        fabric = sum(link.credits_returned for link in self._links.values())
        hosts = sum(
            link.credits_returned
            for link in (*self._injection_links, *self._ejection_links)
        )
        return fabric + hosts

    def total_deadlock_reliefs(self) -> int:
        """Escape-valve activations across all links (should stay at/near zero)."""
        fabric = sum(link.deadlock_reliefs for link in self._links.values())
        hosts = sum(
            link.deadlock_reliefs
            for link in (*self._injection_links, *self._ejection_links)
        )
        return fabric + hosts

    def reset_counters(self) -> None:
        """Zero every NIC and router counter (a fresh measurement interval)."""
        for nic in self.nics:
            nic.counters.reset()
        for router in self.routers:
            router.flits_traversed = 0
            router.packets_traversed = 0
        for link in self._links.values():
            link.queue_wait_cycles = 0
            link.packets_forwarded = 0
            link.flits_forwarded = 0
            link.credits_returned = 0
        for link in (*self._injection_links, *self._ejection_links):
            link.queue_wait_cycles = 0
            link.packets_forwarded = 0
            link.flits_forwarded = 0
            link.credits_returned = 0
        self.selector.reset_statistics()
