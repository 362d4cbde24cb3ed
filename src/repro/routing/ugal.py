"""UGAL-style adaptive path selection with configurable minimal bias.

Every time a packet is injected, the selector samples two minimal and two
non-minimal candidate paths (Section 2.2), estimates the congestion of each
candidate from

* the *local* output-queue depth at the source router (always current), and
* the *far-end* occupancy of the first hop's downstream buffer, derived from
  flow-control credits and therefore **stale** by ``credit_info_delay``
  cycles — the source of phantom congestion,

multiplies the estimate by the candidate's hop count (longer paths hurt
more), adds the mode's bias to non-minimal candidates, and picks the lowest
score.  Deterministic modes (``MIN_HASH``, ``NMIN_HASH``, ``IN_ORDER``) skip
the scoring entirely.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.config import RoutingConfig
from repro.routing.bias import bias_for_mode
from repro.routing.modes import RoutingMode
from repro.telemetry.core import TELEMETRY
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import PathSampler

Path = Tuple[int, ...]


class PathDecision:
    """Outcome of one routing decision (kept for statistics and tests)."""

    __slots__ = ("path", "minimal", "score", "candidates_considered")

    def __init__(
        self, path: Path, minimal: bool, score: float, candidates_considered: int
    ):
        self.path = path
        self.minimal = minimal
        self.score = score
        self.candidates_considered = candidates_considered

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathDecision):
            return NotImplemented
        return (
            self.path == other.path
            and self.minimal == other.minimal
            and self.score == other.score
            and self.candidates_considered == other.candidates_considered
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "minimal" if self.minimal else "nonminimal"
        return f"PathDecision({self.path}, {kind}, score={self.score})"


class UgalSelector:
    """Per-packet path selection for all routing modes.

    Parameters
    ----------
    topology:
        The Dragonfly link structure.
    config:
        Bias values, candidate counts and the credit-information delay.
    rng:
        Random stream used for candidate sampling (hashed tie-breaking).
    links:
        Mapping ``(src_router, dst_router) -> Link`` covering every fabric
        link (:class:`repro.network.link.Link`), read for congestion.  It
        may be ``None`` for purely structural uses (e.g. tests of path
        legality), in which case congestion is treated as zero everywhere.
    """

    def __init__(
        self,
        topology: DragonflyTopology,
        config: RoutingConfig,
        rng: random.Random,
        links: Optional[dict] = None,
    ):
        self.topology = topology
        self.config = config
        self.rng = rng
        self.links = links
        self.sampler = PathSampler(topology, rng)
        self.decisions = 0
        self.minimal_decisions = 0
        self.nonminimal_decisions = 0
        self._far_weight = config.far_end_weight
        self._info_delay = config.credit_info_delay

    # -- congestion scoring ----------------------------------------------------

    def _path_score(self, path: Path) -> float:
        """Congestion estimate of a candidate path (lower is better)."""
        hops = len(path) - 1
        if hops <= 0:
            return 0.0
        links = self.links
        if links is None:
            return float(hops)
        link = links[(path[0], path[1])]
        delay = self._info_delay
        if delay <= 0:
            far = float(link.capacity - link.credits)
        else:
            far = link.far_congestion(delay)
        port_congestion = link.queue_flits + self._far_weight * far
        return port_congestion * hops + hops

    # -- selection ---------------------------------------------------------------

    def select(
        self, src_router: int, dst_router: int, mode: RoutingMode
    ) -> PathDecision:
        """Choose the path for one packet from ``src_router`` to ``dst_router``."""
        if src_router == dst_router:
            return self._record(PathDecision((src_router,), True, 0.0, 1))
        if mode is RoutingMode.IN_ORDER:
            path = self.sampler.all_minimal(src_router, dst_router)[0]
            return self._record(PathDecision(path, True, self._path_score(path), 1))
        if mode is RoutingMode.MIN_HASH:
            path = self.sampler.minimal(src_router, dst_router)
            return self._record(PathDecision(path, True, self._path_score(path), 1))
        if mode is RoutingMode.NMIN_HASH:
            path = self.sampler.nonminimal(src_router, dst_router)
            return self._record(PathDecision(path, False, self._path_score(path), 1))
        if not mode.is_adaptive:
            raise ValueError(f"unsupported routing mode {mode}")
        recorder = TELEMETRY.recorder
        if recorder is not None and recorder.want_decision():
            trail: List[Tuple[Path, bool, float]] = []
            decision = self._select_adaptive(src_router, dst_router, mode, trail)
            self._audit(recorder, src_router, dst_router, mode, trail)
            return self._record(decision)
        return self._record(self._select_adaptive(src_router, dst_router, mode))

    def _select_adaptive(
        self,
        src_router: int,
        dst_router: int,
        mode: RoutingMode,
        trail: Optional[List[Tuple[Path, bool, float]]] = None,
    ) -> PathDecision:
        """The UGAL choice; appends ``(path, minimal, score)`` to ``trail``."""
        cfg = self.config
        sampler = self.sampler
        bias = bias_for_mode(mode, cfg, sampler.minimal_hops(src_router, dst_router))

        # Prefer minimal candidates on ties so a zero-bias idle network still
        # routes minimally (matching hardware behaviour at low load): minimal
        # candidates are scored first and only a strictly better score can
        # displace the running best.
        score_of = self._path_score
        best_path: Optional[Path] = None
        best_score = 0.0
        best_minimal = True
        considered = 0
        prev_path: Optional[Path] = None
        prev_score = 0.0
        for _ in range(cfg.minimal_candidates):
            path = sampler.minimal(src_router, dst_router)
            # The sampler returns interned tuples, so two draws of the same
            # minimal route are the *same object*; scoring is pure at a fixed
            # instant, making the cached score exact.
            if path is prev_path:
                score = prev_score
            else:
                score = score_of(path)
                prev_path = path
                prev_score = score
            if trail is not None:
                trail.append((path, True, score))
            if best_path is None or score < best_score:
                best_score = score
                best_path = path
            considered += 1
        penalty = cfg.nonminimal_penalty
        for _ in range(cfg.nonminimal_candidates):
            path = sampler.nonminimal(src_router, dst_router)
            score = score_of(path) * penalty + bias
            if trail is not None:
                trail.append((path, False, score))
            if best_path is None or score < best_score:
                best_score = score
                best_path = path
                best_minimal = False
            considered += 1
        assert best_path is not None
        return PathDecision(best_path, best_minimal, best_score, considered)

    # -- decision audit ----------------------------------------------------------

    def _audit(
        self,
        recorder,
        src_router: int,
        dst_router: int,
        mode: RoutingMode,
        trail: List[Tuple[Path, bool, float]],
    ) -> None:
        """Record the full trail of one adaptive decision for the flip audit.

        ``trail`` is what :meth:`_select_adaptive` scored, in order, so
        ``chosen`` is the decision the router really made.  Every candidate
        is re-scored under the *live* credit view
        (:meth:`repro.network.link.Link.occupancy_view` — a pure read),
        flagging decisions that would flip without the ``credit_info_delay``
        staleness: the phantom-congestion signal.  The stale reads repeat
        the scoring's own reads at the same instant, so they see the values
        the decision saw.
        """
        cfg = self.config
        bias = bias_for_mode(mode, cfg, self.sampler.minimal_hops(src_router, dst_router))
        penalty = cfg.nonminimal_penalty
        far_weight = self._far_weight
        delay = self._info_delay
        links = self.links
        now = 0
        candidates = []
        best_idx = live_idx = -1
        best_score = live_best = 0.0
        for i, (path, minimal, score) in enumerate(trail):
            queue = 0
            far_stale = far_live = 0.0
            live = score
            if links is not None:
                hops = len(path) - 1
                link = links[(path[0], path[1])]
                now = link.sim._now
                if delay <= 0:
                    far_stale = float(link.capacity - link.credits)
                else:
                    far_stale = link.far_congestion(delay)
                far_live = float(link.occupancy_view(now))
                queue = link.queue_flits
                live = (queue + far_weight * far_live) * hops + hops
                if not minimal:
                    live = live * penalty + bias
            if best_idx < 0 or score < best_score:
                best_idx = i
                best_score = score
            if live_idx < 0 or live < live_best:
                live_idx = i
                live_best = live
            candidates.append({
                "path": list(path),
                "minimal": minimal,
                "queue": queue,
                "far_stale": round(far_stale, 3),
                "far_live": round(far_live, 3),
                "score": round(score, 3),
                "score_live": round(live, 3),
            })
        recorder.record_decision({
            "t": now,
            "src": src_router,
            "dst": dst_router,
            "mode": mode.name,
            "bias": bias,
            "penalty": penalty,
            "chosen": best_idx,
            "minimal": trail[best_idx][1],
            "live_choice": live_idx,
            "flip": trail[best_idx][0] != trail[live_idx][0],
            "candidates": candidates,
        })

    def _record(self, decision: PathDecision) -> PathDecision:
        self.decisions += 1
        if decision.minimal:
            self.minimal_decisions += 1
        else:
            self.nonminimal_decisions += 1
        return decision

    # -- statistics ---------------------------------------------------------------

    @property
    def minimal_fraction(self) -> float:
        """Fraction of all decisions that chose a minimal path."""
        if self.decisions == 0:
            return 1.0
        return self.minimal_decisions / self.decisions

    def reset_statistics(self) -> None:
        """Zero the decision counters (e.g. between experiment phases)."""
        self.decisions = 0
        self.minimal_decisions = 0
        self.nonminimal_decisions = 0
