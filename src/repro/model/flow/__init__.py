"""Flow-level network backend: max-min fair-share bandwidth allocation."""

from repro.model.flow.engine import ReferenceFairShareEngine
from repro.model.flow.network import FlowNetwork
from repro.model.flow.solver import FairShareSolver, FlowState

__all__ = [
    "FairShareSolver",
    "FlowNetwork",
    "FlowState",
    "ReferenceFairShareEngine",
]
