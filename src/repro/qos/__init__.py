"""QoS metrics, aggregation, and peer selection (§2.4).

The paper flags *semantic QoS integration* as the further integration
dimension beyond data and function: after semantic discovery finds a
matching b-peer group, selection should pick the peer "that provides the
best quality criteria match".  This package provides the time/cost/
reliability model, online profiles, composition-structure aggregation, and
the SAW-based selector (with a random baseline for ablation).
"""

from .aggregation import conditional, parallel, sequence
from .metrics import QosMetrics, QosProfile
from .selection import QosSelector, QosWeights, RandomSelector

__all__ = [
    "QosMetrics",
    "QosProfile",
    "QosSelector",
    "QosWeights",
    "RandomSelector",
    "conditional",
    "parallel",
    "sequence",
]
