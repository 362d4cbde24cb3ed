"""Discrete-event simulation engines used by the network model.

Two engines implement the same (time, scheduling-order) execution contract
with callback-style events:

* ``calendar`` — per-cycle FIFO buckets with a heap of distinct times,
  the default and only production engine (a flit simulation lands whole
  groups of callbacks on the same cycle, so this does one heap operation
  per *time* instead of per event);
* ``reference`` — the original binary-heap queue keyed by (time, sequence
  number), kept as the executable spec that ``calendar`` is proven
  event-for-event identical to.

Both network backends build a :class:`CalendarSimulator` unless a caller
injects another engine through their ``sim=`` argument; ``reference`` runs
only under the equivalence tests and the benchmarks.

Everything in the network model (link traversal, credit returns, NIC
injection) is expressed as scheduled callbacks, which keeps the per-event
overhead low — important because a single large-message experiment
schedules hundreds of thousands of events.
"""

from repro.sim.calendar import CalendarSimulator
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RandomStreams

__all__ = [
    "Event",
    "Simulator",
    "CalendarSimulator",
    "RandomStreams",
]
