"""QoS metrics for peers and services.

§2.4: "Each peer can have different quality aspect and hence selection
involves locating the peer that provides the best quality criteria match.
This demands management of QoS metrics for peers."  We implement the QoS
model of Cardoso's workflow-QoS line of work (the paper's reference [11]):
three dimensions — *time*, *cost*, and *reliability* — tracked per peer as
an online profile updated from observed invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["QosMetrics", "QosProfile"]


@dataclass(frozen=True)
class QosMetrics:
    """A point estimate of a service provider's quality.

    * ``time`` — expected response time in seconds (lower is better);
    * ``cost`` — cost per invocation in arbitrary currency units (lower is
      better);
    * ``reliability`` — probability of successful completion in [0, 1]
      (higher is better).
    """

    time: float
    cost: float
    reliability: float

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"negative time {self.time}")
        if self.cost < 0:
            raise ValueError(f"negative cost {self.cost}")
        if not 0.0 <= self.reliability <= 1.0:
            raise ValueError(f"reliability {self.reliability} outside [0, 1]")


@dataclass
class QosProfile:
    """An online QoS estimate, updated from invocation observations.

    The time estimate is an exponentially weighted moving average;
    reliability is the EWMA of the success indicator.  ``alpha`` controls
    how quickly history decays.
    """

    cost: float = 1.0
    alpha: float = 0.2
    initial_time: float = 0.05
    initial_reliability: float = 1.0

    _time: Optional[float] = field(default=None, repr=False)
    _reliability: Optional[float] = field(default=None, repr=False)
    observations: int = 0
    successes: int = 0

    def record_success(self, elapsed: float) -> None:
        """Record a successful invocation that took ``elapsed`` seconds."""
        self.observations += 1
        self.successes += 1
        self._time = (
            elapsed
            if self._time is None
            else (1 - self.alpha) * self._time + self.alpha * elapsed
        )
        current = (
            self.initial_reliability if self._reliability is None else self._reliability
        )
        self._reliability = (1 - self.alpha) * current + self.alpha * 1.0

    def record_failure(self) -> None:
        """Record a failed or timed-out invocation."""
        self.observations += 1
        current = (
            self.initial_reliability if self._reliability is None else self._reliability
        )
        self._reliability = (1 - self.alpha) * current + self.alpha * 0.0

    def snapshot(self) -> QosMetrics:
        """The current point estimate."""
        return QosMetrics(
            time=self._time if self._time is not None else self.initial_time,
            cost=self.cost,
            reliability=(
                self._reliability
                if self._reliability is not None
                else self.initial_reliability
            ),
        )

    @property
    def empirical_reliability(self) -> float:
        """Plain success fraction (no decay); 1.0 with no observations."""
        if self.observations == 0:
            return 1.0
        return self.successes / self.observations
