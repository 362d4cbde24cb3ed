"""Network-model backends behind the :class:`NetworkModel` protocol.

The two backends (:data:`BACKENDS`) are

* ``flit`` — cycle-accurate flit-level simulation
  (:class:`repro.network.network.Network`);
* ``flow`` — fast flow-level engine with max-min fair-share bandwidth
  allocation (:class:`repro.model.flow.network.FlowNetwork`).

Use :func:`build_network_model` to construct the substrate selected by a
:class:`~repro.config.SimulationConfig` (or an explicit backend override).
It imports the backend modules on first use, because both of them import
:mod:`repro.model.base` to subclass the protocol; importing them at
package-import time would be circular.

Each backend has a cost model in :data:`COST_MODELS` — an estimator mapping
a :class:`~repro.model.cost.WorkloadProfile` to abstract work units — which
the campaign planner uses to route grid cells to the cheapest adequate
backend (``backend="auto"``).
"""

from repro.model.base import (
    BACKENDS,
    BackendError,
    NetworkModel,
    available_backends,
    build_network_model,
)
from repro.model.cost import COST_MODELS, CostEstimate, WorkloadProfile

__all__ = [
    "BACKENDS",
    "COST_MODELS",
    "BackendError",
    "CostEstimate",
    "NetworkModel",
    "WorkloadProfile",
    "available_backends",
    "build_network_model",
]
