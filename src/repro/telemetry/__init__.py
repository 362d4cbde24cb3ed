"""Zero-dependency observability: one instrumentation plane, logging, export.

Four pieces, all stdlib-only:

* :mod:`repro.telemetry.core` — the :data:`TELEMETRY` singleton carrying
  both planes: spans (a span :class:`Tracer` and :class:`Metrics`
  registry) and probes (a :class:`ProbeRecorder`).  Each is off unless
  enabled (``enable("spans,probes")`` or ``REPRO_INSTRUMENT=spans,probes``)
  so instrumented hot paths cost one check when off.
* :mod:`repro.telemetry.probes` — the probes plane's data structures:
  bounded link time series and the routing-decision audit.
* :mod:`repro.telemetry.log` — structured stderr logging
  (``REPRO_LOG=json|text``) used by the distributed runtime instead of
  stray prints.
* :mod:`repro.telemetry.export` — Chrome ``trace_event`` export and
  phase-timing aggregation over a campaign store.
"""

from repro.telemetry.core import (
    INSTRUMENT_ENV_VAR,
    MAX_EVENTS,
    NULL_SPAN,
    PLANES,
    TELEMETRY,
    Metrics,
    Span,
    Telemetry,
    Tracer,
    active_planes,
    capture,
    disable,
    enable,
    env_planes,
    parse_planes,
    snapshot_of,
    timed,
)
from repro.telemetry.log import (
    LOG_FORMAT_ENV_VAR,
    LOG_LEVEL_ENV_VAR,
    get_logger,
    log_event,
    reset_logging,
)
from repro.telemetry.probes import ProbeRecorder, ProbeSampler, RingSeries

__all__ = [
    "INSTRUMENT_ENV_VAR",
    "LOG_FORMAT_ENV_VAR",
    "LOG_LEVEL_ENV_VAR",
    "MAX_EVENTS",
    "NULL_SPAN",
    "PLANES",
    "TELEMETRY",
    "Metrics",
    "ProbeRecorder",
    "ProbeSampler",
    "RingSeries",
    "Span",
    "Telemetry",
    "Tracer",
    "active_planes",
    "capture",
    "disable",
    "enable",
    "env_planes",
    "get_logger",
    "log_event",
    "parse_planes",
    "reset_logging",
    "snapshot_of",
    "timed",
]
