"""Discrete-event simulation engines used by the network model.

Two interchangeable engines implement the same (time, scheduling-order)
execution contract with callback-style events:

* ``calendar`` — per-cycle FIFO buckets with a heap of distinct times,
  the default and only production engine (a flit simulation lands whole
  groups of callbacks on the same cycle, so this does one heap operation
  per *time* instead of per event);
* ``reference`` — the original binary-heap queue keyed by (time, sequence
  number), kept as the executable spec that ``calendar`` is proven
  event-for-event identical to.

Select with ``REPRO_SIM_ENGINE=calendar|reference`` or
:func:`make_simulator`; an unknown value raises :class:`SimEngineError`.
Everything in the network model (link traversal, credit returns, NIC
injection) is expressed as scheduled callbacks, which keeps the per-event
overhead low — important because a single large-message experiment
schedules hundreds of thousands of events.
"""

from repro.sim.calendar import CalendarSimulator
from repro.sim.engine import (
    SIM_ENGINE_ENV_VAR,
    SIM_ENGINE_KINDS,
    Event,
    SimEngineError,
    Simulator,
    default_engine_kind,
    make_simulator,
)
from repro.sim.rng import RandomStreams

__all__ = [
    "Event",
    "Simulator",
    "CalendarSimulator",
    "RandomStreams",
    "SIM_ENGINE_ENV_VAR",
    "SIM_ENGINE_KINDS",
    "SimEngineError",
    "default_engine_kind",
    "make_simulator",
]
