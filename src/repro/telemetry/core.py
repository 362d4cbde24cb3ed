"""Zero-dependency instrumentation plane: spans, metrics and network probes.

The whole subsystem funnels through one module-level singleton,
:data:`TELEMETRY`, which carries two planes:

* **spans** — a span :class:`Tracer` plus a :class:`Metrics` registry;
* **probes** — a :class:`~repro.telemetry.probes.ProbeRecorder` (the
  network flight recorder), or ``None`` while probes are off.

The object is *mutated* by :func:`enable` / :func:`disable` — never
rebound — so any module may cache a reference at import time and still
observe the current state.  When a plane is off (the default) every hot
path pays exactly one check and allocates nothing: ``TELEMETRY.enabled``
for spans (``span()`` hands back a shared no-op singleton and the metrics
registry swallows updates), ``TELEMETRY.recorder is not None`` for probes.
One switch, ``REPRO_INSTRUMENT=spans,probes`` (either token or both),
enables planes at import time; :class:`capture` scopes fresh collectors of
every enabled plane to one unit of work.

Spans nest lexically via ``with`` blocks and are recorded as Chrome
``trace_event``-shaped dicts (name/category/relative start/duration/args)
on a bounded ring; aggregates (count, total seconds, max seconds) are kept
for *every* span even after the event buffer saturates, so percentile
tables stay honest on long campaigns.

Timing uses ``time.perf_counter()`` against a pair of epochs captured when
the tracer is created: ``epoch_perf`` anchors relative span offsets and
``epoch_wall`` (``time.time()``) lets exporters place the whole capture on
a wall-clock axis shared across processes.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.telemetry.probes import ProbeRecorder

#: Maximum span events retained per capture; aggregates keep counting after.
MAX_EVENTS = 512

#: Maximum samples retained per histogram reservoir.
MAX_HISTOGRAM_SAMPLES = 256

#: The one switch: a comma-separated subset of :data:`PLANES` enabled at
#: import time — this is how enablement propagates into pool workers and
#: dist worker subprocesses, which re-import this module rather than
#: sharing state.
INSTRUMENT_ENV_VAR = "REPRO_INSTRUMENT"

#: The instrumentation planes, in canonical order.
PLANES = ("spans", "probes")

#: The per-plane switches ``REPRO_INSTRUMENT`` replaced.  A leftover one
#: raises instead of silently running uninstrumented.
RETIRED_ENV_VARS = (
    "REPRO_TELEMETRY",
    "REPRO_PROBES",
    "REPRO_PROBE_INTERVAL",
    "REPRO_PROBE_DECISION_RATE",
)


def parse_planes(value: str) -> Tuple[str, ...]:
    """The planes a ``spans,probes``-style list names, in canonical order.

    Tokens are comma separated and case-insensitive; an empty list names
    no plane and an unknown token raises ``ValueError``.
    """
    tokens = {token.strip().lower() for token in value.split(",")} - {""}
    unknown = sorted(tokens.difference(PLANES))
    if unknown:
        raise ValueError(
            f"unknown instrumentation plane(s) {', '.join(unknown)} "
            f"(choose from {', '.join(PLANES)})"
        )
    return tuple(plane for plane in PLANES if plane in tokens)


def env_planes(environ: Optional[Mapping[str, str]] = None) -> str:
    """The planes ``REPRO_INSTRUMENT`` requests, normalized ("" for none)."""
    env = os.environ if environ is None else environ
    retired = [name for name in RETIRED_ENV_VARS if env.get(name)]
    if retired:
        raise ValueError(
            f"retired instrumentation switch(es) set: {', '.join(retired)}; "
            f"use {INSTRUMENT_ENV_VAR}=spans, =probes or =spans,probes instead"
        )
    return ",".join(parse_planes(env.get(INSTRUMENT_ENV_VAR, "")))


class Span:
    """A live span: records name/category/args and measures wall duration.

    Only created when telemetry is enabled; the disabled path uses
    :data:`NULL_SPAN`.  ``add(**kw)`` merges extra args while the span is
    open (e.g. counter deltas computed inside the ``with`` block).
    """

    __slots__ = ("_tracer", "name", "cat", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def add(self, **kw: Any) -> None:
        """Attach additional args to the span before it closes."""
        self.args.update(kw)

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tracer._record(self.name, self.cat, self._t0, t1 - self._t0, self.args)
        return False  # never swallow exceptions


class _NullSpan:
    """Shared no-op span handed out while telemetry is disabled."""

    __slots__ = ()

    def add(self, **kw: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _NullTracer:
    """Tracer stand-in while disabled: one shared instance, zero allocation."""

    __slots__ = ()

    def span(self, name: str, cat: str = "span", **args: Any) -> _NullSpan:
        return NULL_SPAN


class _NullMetrics:
    """Metrics stand-in while disabled."""

    __slots__ = ()

    def incr(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


NULL_TRACER = _NullTracer()
NULL_METRICS = _NullMetrics()


class Tracer:
    """Collects spans for one capture (typically one campaign cell)."""

    __slots__ = ("epoch_wall", "epoch_perf", "events", "dropped", "aggregates",
                 "max_events")

    def __init__(self, max_events: int = MAX_EVENTS):
        self.epoch_wall = time.time()
        self.epoch_perf = time.perf_counter()
        self.max_events = max_events
        #: Chrome-shaped span events: name/cat/ts (s, relative)/dur (s)/args.
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0
        #: name -> [count, total_s, max_s]; updated for every span.
        self.aggregates: Dict[str, List[float]] = {}

    def span(self, name: str, cat: str = "span", **args: Any) -> Span:
        return Span(self, name, cat, args)

    def _record(self, name: str, cat: str, t0: float, dur: float,
                args: Dict[str, Any]) -> None:
        agg = self.aggregates.get(name)
        if agg is None:
            self.aggregates[name] = [1, dur, dur]
        else:
            agg[0] += 1
            agg[1] += dur
            if dur > agg[2]:
                agg[2] = dur
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append({
            "name": name,
            "cat": cat,
            "ts": t0 - self.epoch_perf,
            "dur": dur,
            "args": args,
        })


class Metrics:
    """Counters, gauges, and bounded-reservoir histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> {count, total, min, max, samples (bounded)}
        self.histograms: Dict[str, Dict[str, Any]] = {}

    def incr(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = {"count": 0, "total": 0.0, "min": value, "max": value,
                    "samples": []}
            self.histograms[name] = hist
        hist["count"] += 1
        hist["total"] += value
        if value < hist["min"]:
            hist["min"] = value
        if value > hist["max"]:
            hist["max"] = value
        if len(hist["samples"]) < MAX_HISTOGRAM_SAMPLES:
            hist["samples"].append(value)


class Telemetry:
    """The mutable singleton: fields swap, identity never changes.

    ``enabled``/``tracer``/``metrics`` are the spans plane; ``recorder`` is
    the probes plane (``None`` while probes are off).
    """

    __slots__ = ("enabled", "tracer", "metrics", "recorder")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Any = NULL_TRACER
        self.metrics: Any = NULL_METRICS
        self.recorder: Optional[ProbeRecorder] = None


TELEMETRY = Telemetry()


def enable(planes: str = "spans") -> None:
    """Turn the named planes on, each with fresh collectors.

    ``planes`` is a ``spans,probes``-style list; planes it does not name
    keep their current state.
    """
    chosen = parse_planes(planes)
    if "spans" in chosen:
        TELEMETRY.tracer = Tracer()
        TELEMETRY.metrics = Metrics()
        TELEMETRY.enabled = True
    if "probes" in chosen:
        TELEMETRY.recorder = ProbeRecorder()


def disable(planes: str = "spans") -> None:
    """Turn the named planes off; their hot paths fall back to no-ops."""
    chosen = parse_planes(planes)
    if "spans" in chosen:
        TELEMETRY.enabled = False
        TELEMETRY.tracer = NULL_TRACER
        TELEMETRY.metrics = NULL_METRICS
    if "probes" in chosen:
        TELEMETRY.recorder = None


def active_planes() -> str:
    """The enabled planes as a ``REPRO_INSTRUMENT`` value ("" for none)."""
    on = (TELEMETRY.enabled, TELEMETRY.recorder is not None)
    return ",".join(plane for plane, active in zip(PLANES, on) if active)


class capture:
    """Context manager scoping fresh collectors to one unit of work.

    Every enabled plane gets its own: a tracer/metrics pair for spans, an
    empty recorder (same decision rate as the current one) for probes.
    On exit the previous collectors are restored, so captures nest (an
    audit twin inside a cell gets its own snapshots without clobbering the
    cell's).  A plane that is off stays off and snapshots as ``None``.
    """

    __slots__ = ("_prev_tracer", "_prev_metrics", "_prev_recorder",
                 "_tracer", "_metrics", "_recorder")

    def __enter__(self) -> "capture":
        self._tracer = self._metrics = self._recorder = None
        if TELEMETRY.enabled:
            self._prev_tracer = TELEMETRY.tracer
            self._prev_metrics = TELEMETRY.metrics
            self._tracer = TELEMETRY.tracer = Tracer()
            self._metrics = TELEMETRY.metrics = Metrics()
        if TELEMETRY.recorder is not None:
            self._prev_recorder = TELEMETRY.recorder
            self._recorder = TELEMETRY.recorder = TELEMETRY.recorder.fresh()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._tracer is not None:
            TELEMETRY.tracer = self._prev_tracer
            TELEMETRY.metrics = self._prev_metrics
        if self._recorder is not None:
            TELEMETRY.recorder = self._prev_recorder
        return False

    def snapshot(self) -> Optional[Dict[str, Any]]:
        """The spans plane's store ``telemetry`` dict, or None when off."""
        if self._tracer is None:
            return None
        return snapshot_of(self._tracer, self._metrics)

    def probe_snapshot(self) -> Optional[Dict[str, Any]]:
        """The probes plane's ``probes/<hash>.json`` dict, or None when off."""
        if self._recorder is None:
            return None
        return self._recorder.snapshot()


def snapshot_of(tracer: Tracer, metrics: Metrics) -> Dict[str, Any]:
    """Serialize a tracer/metrics pair into the store's ``telemetry`` dict.

    Shape::

        {"t0": <wall epoch>,
         "phases": {phase-name: total_s},      # cat == "phase" spans
         "spans": {name: {count, total_s, max_s}},
         "events": [{name, cat, ts, dur, args}, ...],
         "events_dropped": n,                 # tracer cap (MAX_EVENTS) hits
         "counters": {...}, "gauges": {...},
         "histograms": {name: {count, total, min, max, samples}},
         "sim_s": <total seconds inside backend run spans>}
    """
    phases: Dict[str, float] = {}
    for ev in tracer.events:
        if ev["cat"] == "phase":
            phases[ev["name"]] = phases.get(ev["name"], 0.0) + ev["dur"]
    spans = {
        name: {"count": int(agg[0]), "total_s": agg[1], "max_s": agg[2]}
        for name, agg in tracer.aggregates.items()
    }
    # "sim_s" is the executor's simulate phase alone — scenario runner time
    # with report/audit/store excluded — which is what backend cost models
    # should learn from.
    sim_s = phases.get("simulate", 0.0)
    return {
        "t0": tracer.epoch_wall,
        "phases": phases,
        "spans": spans,
        "events": tracer.events,
        # Span events lost to the per-capture MAX_EVENTS cap (aggregates
        # and phase totals are exact regardless — only the event *list*
        # truncates); status tables report it.
        "events_dropped": tracer.dropped,
        "counters": dict(metrics.counters),
        "gauges": dict(metrics.gauges),
        "histograms": {k: dict(v) for k, v in metrics.histograms.items()},
        "sim_s": sim_s,
    }


class timed:
    """Measure a block; optionally emit a ``phase`` span.

    The single timing idiom for executor phases::

        with timed("simulate") as t:
            payload = runner(...)
        elapsed = t.elapsed

    ``.elapsed`` is always populated (even with telemetry disabled), which
    is what lets the executor keep its ``elapsed_s`` semantics while the
    span only materializes when tracing is on.
    """

    __slots__ = ("phase", "args", "elapsed", "_t0", "_span")

    def __init__(self, phase: Optional[str] = None, **args: Any):
        self.phase = phase
        self.args = args
        self.elapsed = 0.0

    def __enter__(self) -> "timed":
        if self.phase is not None and TELEMETRY.enabled:
            self._span = TELEMETRY.tracer.span(self.phase, cat="phase",
                                               **self.args)
            self._span.__enter__()
        else:
            self._span = None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self._t0
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
        return False


enable(env_planes())  # no-op unless REPRO_INSTRUMENT names a plane
