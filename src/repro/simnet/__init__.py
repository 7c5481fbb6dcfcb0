"""Discrete-event simulation kernel and network substrate.

This package replaces the paper's physical testbed (nine P4 machines on a
100 Mbit/s Ethernet LAN) with a deterministic simulator:

* :mod:`~repro.simnet.environment` / :mod:`~repro.simnet.events` /
  :mod:`~repro.simnet.process` — a from-scratch event/process kernel;
* :mod:`~repro.simnet.network` — hosts, links, latency + bandwidth delay,
  partitions;
* :mod:`~repro.simnet.failure` — fail-stop crashes, restarts, churn;
* :mod:`~repro.simnet.trace` — the message counters and RTT monitor that
  produce the paper's Figure 4 and §5 latency numbers.
"""

from .environment import EmptySchedule, Environment, StopSimulation, TiebreakPolicy
from .events import EXPIRED, AllOf, AnyOf, Event, Interrupt, SimulationError, Timeout, Wait
from .failure import FailureEvent, FailureInjector
from .latency import (
    ConstantLatency,
    LogNormalLatency,
    UniformLatency,
    lan_latency,
    parse_latency_spec,
)
from .message import Address, Message
from .network import Link, Network, Region, UnknownHostError, lan
from .node import Node
from .process import Process
from .queues import PriorityStore, Store
from .rng import RngRegistry
from .trace import MessageTrace, RttSample, TraceRecord
from .transport import PortInUseError, Socket, Transport

__all__ = [
    "AllOf",
    "AnyOf",
    "Address",
    "ConstantLatency",
    "EXPIRED",
    "EmptySchedule",
    "Environment",
    "Event",
    "FailureEvent",
    "FailureInjector",
    "Interrupt",
    "Link",
    "LogNormalLatency",
    "Message",
    "MessageTrace",
    "Network",
    "Node",
    "PortInUseError",
    "PriorityStore",
    "Process",
    "Region",
    "RngRegistry",
    "RttSample",
    "SimulationError",
    "Socket",
    "StopSimulation",
    "Store",
    "TiebreakPolicy",
    "Timeout",
    "TraceRecord",
    "Transport",
    "UniformLatency",
    "UnknownHostError",
    "Wait",
    "lan",
    "lan_latency",
    "parse_latency_spec",
]
