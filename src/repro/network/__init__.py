"""Discrete-event network simulation substrate.

The paper evaluates HammerHead on a geo-distributed AWS testbed.  This
package replaces that testbed with a deterministic discrete-event
simulator: a virtual clock, an event heap, a latency model derived from
representative inter-region round-trip times, and a partial-synchrony
model (GST + Delta) matching the paper's network assumptions.
"""

from repro.network.latency import GeoLatencyModel, LatencyModel
from repro.network.simulator import EventHandle, Simulator
from repro.network.synchrony import AlwaysSynchronous, PartialSynchrony, SynchronyModel
from repro.network.transport import Network, NetworkStats

__all__ = [
    "EventHandle",
    "Simulator",
    "LatencyModel",
    "GeoLatencyModel",
    "SynchronyModel",
    "AlwaysSynchronous",
    "PartialSynchrony",
    "Network",
    "NetworkStats",
]
