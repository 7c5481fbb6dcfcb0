"""QoS aggregation over composition structures.

Cardoso's workflow-QoS model (reference [11] of the paper) computes the
QoS of a composite process from its parts by structural reduction.  B2B
processes built on Whisper services (see ``examples/b2b_supply_chain.py``)
use these rules to predict end-to-end time/cost/reliability:

* **sequence**   — times and costs add, reliabilities multiply;
* **parallel**   — time is the slowest branch, costs add, reliabilities
  multiply (every branch must succeed);
* **conditional** — probability-weighted average of the branches.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .metrics import QosMetrics

__all__ = ["sequence", "parallel", "conditional"]


def sequence(parts: Sequence[QosMetrics]) -> QosMetrics:
    """QoS of ``parts`` executed one after another."""
    if not parts:
        raise ValueError("sequence() needs at least one part")
    time = sum(part.time for part in parts)
    cost = sum(part.cost for part in parts)
    reliability = 1.0
    for part in parts:
        reliability *= part.reliability
    return QosMetrics(time=time, cost=cost, reliability=reliability)


def parallel(parts: Sequence[QosMetrics]) -> QosMetrics:
    """QoS of ``parts`` executed concurrently (all must succeed)."""
    if not parts:
        raise ValueError("parallel() needs at least one part")
    time = max(part.time for part in parts)
    cost = sum(part.cost for part in parts)
    reliability = 1.0
    for part in parts:
        reliability *= part.reliability
    return QosMetrics(time=time, cost=cost, reliability=reliability)


def conditional(branches: Sequence[Tuple[float, QosMetrics]]) -> QosMetrics:
    """QoS of a probabilistic choice among ``(probability, part)`` branches.

    Probabilities must sum to 1 (within tolerance).
    """
    if not branches:
        raise ValueError("conditional() needs at least one branch")
    total = sum(probability for probability, _part in branches)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"branch probabilities sum to {total}, not 1")
    time = sum(p * part.time for p, part in branches)
    cost = sum(p * part.cost for p, part in branches)
    # The weighted mean lies in [0, 1] mathematically; clamp float drift.
    reliability = min(1.0, max(0.0, sum(p * part.reliability for p, part in branches)))
    return QosMetrics(time=time, cost=cost, reliability=reliability)
