"""Discrete-event simulation substrate.

The paper evaluates its protocols on a 100-server local cluster and on more
than 1,400 Google Cloud instances spread over 8 regions.  This package
provides the simulated equivalent: a deterministic discrete-event simulator
(:class:`~repro.sim.simulator.Simulator`), a message-passing network with
configurable latency models built from the paper's Table 3
(:class:`~repro.sim.network.Network`, :mod:`repro.sim.latency`), a node
abstraction with a serial CPU cost model and bounded inbound queues
(:class:`~repro.sim.node.SimProcess`), and metric collection — named counters and
time series with an optional sample bound (:mod:`repro.sim.monitor`).
"""

from repro.sim.events import Event, EventQueue
from repro.sim.simulator import Simulator
from repro.sim.network import Message, Network, NetworkStats
from repro.sim.latency import (
    GCP_REGIONS,
    GCP_REGION_LATENCY_MS,
    LatencyModel,
    LanLatencyModel,
    WanLatencyModel,
    gcp_latency_model,
    assign_regions_round_robin,
)
from repro.sim.node import SimProcess
from repro.sim.monitor import Counter, Monitor, TimeSeries

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Message",
    "Network",
    "NetworkStats",
    "LatencyModel",
    "LanLatencyModel",
    "WanLatencyModel",
    "GCP_REGIONS",
    "GCP_REGION_LATENCY_MS",
    "gcp_latency_model",
    "assign_regions_round_robin",
    "SimProcess",
    "Monitor",
    "Counter",
    "TimeSeries",
]
