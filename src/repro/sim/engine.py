"""Callback-based discrete-event simulation core.

Time is a non-negative integer number of NIC clock cycles.  Events scheduled
for the same cycle execute in FIFO order of scheduling (stable ordering via a
monotonically increasing sequence number), which makes simulations fully
deterministic for a given seed.

The event queue stores plain lists ``[time, seq, fn, args]`` so heap
operations compare integers in C; cancellation simply clears the callback
slot.  :class:`Event` is a thin handle wrapping such an entry.

A live-event counter is maintained on schedule/cancel/execute so that
:meth:`Simulator.empty` is O(1) instead of scanning the heap (which may
hold arbitrarily many cancelled entries) on every call.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.telemetry.core import TELEMETRY


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class Event:
    """A handle for a scheduled callback, usable to cancel it."""

    __slots__ = ("entry", "_sim")

    def __init__(self, entry: list, sim: Optional["Simulator"] = None):
        self.entry = entry
        self._sim = sim

    @property
    def time(self) -> int:
        """Absolute simulation time the event fires at."""
        return self.entry[0]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (or the event ran)."""
        return self.entry[2] is None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it.

        Idempotent, and a no-op on an event that already executed — the
        live-event counter is only decremented for a genuinely pending
        event.
        """
        if self.entry[2] is None:
            return
        self.entry[2] = None
        self.entry[3] = ()
        if self._sim is not None:
            self._sim._live_events -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.entry[0]} seq={self.entry[1]}{state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule(10, hits.append, 10)
    >>> _ = sim.schedule(5, hits.append, 5)
    >>> sim.run()
    >>> hits
    [5, 10]
    >>> sim.now
    10
    """

    #: Which engine implementation this is: this binary-heap engine is the
    #: ``reference`` spec that the production
    #: :class:`~repro.sim.calendar.CalendarSimulator` is parity-tested against.
    engine_kind = "reference"

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._queue: List[list] = []
        self._events_executed: int = 0
        self._running: bool = False
        self._live_events: int = 0
        self._stop_requested: bool = False
        #: Optional fixed-interval sampler (``repro.telemetry.probes``):
        #: polled at time-advance boundaries via ``now >= next_due``,
        #: never scheduled as an event, so the event stream is untouched.
        self.probe_hook: Optional[Any] = None

    # -- inspection ---------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for progress accounting)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    @property
    def live_events(self) -> int:
        """Number of scheduled, not-yet-executed, not-cancelled events."""
        return self._live_events

    def empty(self) -> bool:
        """Return True when no live events remain (O(1))."""
        return self._live_events == 0

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; fractional delays are rounded up.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if isinstance(delay, float):
            delay = -int(-delay // 1)
        entry = [self._now + delay, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._queue, entry)
        self._live_events += 1
        return Event(entry, self)

    def schedule_call(self, delay, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` without materializing an :class:`Event`.

        The hot paths of the network model schedule hundreds of thousands of
        callbacks that are never cancelled; this variant skips the handle
        allocation entirely.  Semantics are otherwise identical to
        :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if isinstance(delay, float):
            delay = -int(-delay // 1)
        heapq.heappush(self._queue, [self._now + delay, self._seq, fn, args])
        self._seq += 1
        self._live_events += 1

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self._now}"
            )
        return self.schedule(time - self._now, fn, *args)

    # -- execution ----------------------------------------------------------

    def stop(self) -> None:
        """Ask a running :meth:`run` to return after the current event.

        Lets drivers that wait for a condition flipped *inside* an event
        callback (e.g. :class:`~repro.mpi.job.MpiJob` waiting for its last
        rank) use the tight ``run`` loop instead of stepping one event at a
        time.  A no-op when the simulator is idle.
        """
        if self._running:
            self._stop_requested = True

    def step(self) -> bool:
        """Execute the next live event.  Return False if the queue is empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            fn = entry[2]
            if fn is None:
                continue
            args = entry[3]
            # Null the slot so a later cancel() of this event's handle is a
            # no-op instead of double-decrementing the live counter.
            entry[2] = None
            entry[3] = ()
            self._now = entry[0]
            hook = self.probe_hook
            if hook is not None and entry[0] >= hook.next_due:
                hook.sample(entry[0])
            self._events_executed += 1
            self._live_events -= 1
            fn(*args)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` cycles, or ``max_events``.

        Returns the simulation time at which execution stopped.  ``until`` is
        an absolute time: events scheduled strictly after it remain queued and
        the clock is advanced to ``until``.
        """
        if not TELEMETRY.enabled:
            return self._run(until, max_events)
        events_before = self._events_executed
        now_before = self._now
        with TELEMETRY.tracer.span("sim.run", cat="sim") as sp:
            result = self._run(until, max_events)
            events = self._events_executed - events_before
            # Report live events, not raw queue length: the heap may hold
            # arbitrarily many cancelled tombstones, which would make the
            # gauge overstate real load.
            sp.add(events=events, cycles=self._now - now_before,
                   queue_depth=self._live_events)
        TELEMETRY.metrics.incr("sim.events", events)
        TELEMETRY.metrics.incr("sim.cycles", self._now - now_before)
        TELEMETRY.metrics.gauge("sim.queue_depth", self._live_events)
        return result

    def _run(self, until: Optional[int], max_events: Optional[int]) -> int:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        executed = 0
        queue = self._queue
        hook = self.probe_hook
        try:
            while queue:
                entry = queue[0]
                if entry[2] is None:
                    heapq.heappop(queue)
                    continue
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heapq.heappop(queue)
                fn, args = entry[2], entry[3]
                entry[2] = None  # see step(): protects against cancel-after-run
                entry[3] = ()
                self._now = entry[0]
                if hook is not None and entry[0] >= hook.next_due:
                    hook.sample(entry[0])
                self._events_executed += 1
                self._live_events -= 1
                executed += 1
                fn(*args)
                if self._stop_requested:
                    self._stop_requested = False
                    break
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until no events remain; guard against runaway simulations."""
        self.run(max_events=max_events)
        if not self.empty():
            raise SimulationError(
                f"simulation did not converge within {max_events} events"
            )
        return self._now

    def reset(self) -> None:
        """Discard all pending events and rewind the clock to zero.

        Entries are nulled before the queue is dropped so that Event
        handles still held by callers become inert: cancelling one after a
        reset must not touch the fresh live-event counter.
        """
        self._now = 0
        self._seq = 0
        for entry in self._queue:
            entry[2] = None
            entry[3] = ()
        self._queue.clear()
        self._events_executed = 0
        self._live_events = 0
        self._stop_requested = False
