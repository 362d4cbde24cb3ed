"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

import repro.model.flow.network as flow_network
import repro.network.network as flit_network
from repro.config import SimulationConfig, TopologyConfig
from repro.model.flow.engine import ReferenceFairShareEngine
from repro.network.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.topology.dragonfly import DragonflyTopology


@pytest.fixture
def tiny_config() -> SimulationConfig:
    """Smallest configuration exercising all three link tiers (2 groups)."""
    return SimulationConfig.tiny()


@pytest.fixture
def small_config() -> SimulationConfig:
    """The default 4-group configuration."""
    return SimulationConfig.small()


@pytest.fixture
def tiny_topology(tiny_config) -> DragonflyTopology:
    """Topology object for the tiny configuration."""
    return DragonflyTopology(tiny_config.topology)


@pytest.fixture
def small_topology(small_config) -> DragonflyTopology:
    """Topology object for the small configuration."""
    return DragonflyTopology(small_config.topology)


@pytest.fixture
def tiny_network(tiny_config) -> Network:
    """A fully wired tiny network."""
    return Network(tiny_config)


@pytest.fixture
def small_network(small_config) -> Network:
    """A fully wired small network."""
    return Network(small_config)


@pytest.fixture
def simulator() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    """A deterministic random-stream registry."""
    return RandomStreams(12345)


@pytest.fixture
def reference_engines(monkeypatch):
    """Build every network in the test on the reference engines.

    Both backends construct their production engines by name, so swapping
    the names swaps the engines: the heap :class:`Simulator` for
    ``CalendarSimulator`` (flit and flow) and
    :class:`ReferenceFairShareEngine` for ``VectorizedFairShareEngine``.
    """
    monkeypatch.setattr(flit_network, "CalendarSimulator", Simulator)
    monkeypatch.setattr(flow_network, "CalendarSimulator", Simulator)
    monkeypatch.setattr(
        flow_network, "VectorizedFairShareEngine", ReferenceFairShareEngine
    )
