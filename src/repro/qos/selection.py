"""QoS-based peer selection.

"After discovering a JXTA peer whose data and functional semantics match
the semantics of the required Web service, the next step is to select the
most suitable peer" (§2.4).  Candidates are ranked by a weighted sum of
min–max-normalised dimensions (the standard SAW — simple additive
weighting — method of the QoS-selection literature).  A random
selector provides the ablation baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from .metrics import QosMetrics

__all__ = [
    "QosWeights",
    "QosSelector",
    "RandomSelector",
]


@dataclass(frozen=True)
class QosWeights:
    """Relative importance of each dimension (need not sum to one)."""

    time: float = 1.0
    cost: float = 1.0
    reliability: float = 1.0

    def __post_init__(self):
        if min(self.time, self.cost, self.reliability) < 0:
            raise ValueError("weights must be non-negative")
        if self.time + self.cost + self.reliability == 0:
            raise ValueError("at least one weight must be positive")


def _normalise(value: float, low: float, high: float, lower_is_better: bool) -> float:
    """Min–max normalise to [0, 1] where 1 is best."""
    if high <= low:
        return 1.0
    scaled = (value - low) / (high - low)
    return 1.0 - scaled if lower_is_better else scaled


class QosSelector:
    """Ranks candidates by weighted normalised QoS score."""

    def __init__(self, weights: Optional[QosWeights] = None):
        self.weights = weights or QosWeights()

    def score_all(
        self, candidates: Dict[Hashable, QosMetrics]
    ) -> List[Tuple[Hashable, float]]:
        """``(candidate, score)`` pairs, best first, deterministic ties."""
        if not candidates:
            return []
        times = [m.time for m in candidates.values()]
        costs = [m.cost for m in candidates.values()]
        reliabilities = [m.reliability for m in candidates.values()]
        t_low, t_high = min(times), max(times)
        c_low, c_high = min(costs), max(costs)
        r_low, r_high = min(reliabilities), max(reliabilities)
        weight_sum = self.weights.time + self.weights.cost + self.weights.reliability

        scored = []
        for key, metrics in candidates.items():
            score = (
                self.weights.time
                * _normalise(metrics.time, t_low, t_high, lower_is_better=True)
                + self.weights.cost
                * _normalise(metrics.cost, c_low, c_high, lower_is_better=True)
                + self.weights.reliability
                * _normalise(metrics.reliability, r_low, r_high, lower_is_better=False)
            ) / weight_sum
            scored.append((key, score))
        scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
        return scored

    def select(self, candidates: Dict[Hashable, QosMetrics]) -> Optional[Hashable]:
        """The best candidate, or None when there are none."""
        ranked = self.score_all(candidates)
        return ranked[0][0] if ranked else None


class RandomSelector:
    """Uniform random choice (the no-QoS baseline for Ablation D)."""

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random(0)

    def select(self, candidates: Dict[Hashable, QosMetrics]) -> Optional[Hashable]:
        if not candidates:
            return None
        ordered = sorted(candidates, key=str)
        return self.rng.choice(ordered)

