"""Scenario configuration: every deploy/workload knob in one place.

The seed scattered deployment knobs across ``WhisperSystem.__init__``
(seed, heartbeats, load sharing), ``deploy_student_service`` (replicas,
dataset sizes) and ad-hoc call sites (settle time), and the overload work
adds more (dispatch policy, queue bounds).  :class:`ScenarioConfig`
collapses them into one dataclass consumed by
:class:`~repro.core.system.WhisperSystem`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Union

from ..ontology.match import DegreeOfMatch
from .autoscale import AutoscaleSpec
from .breaker import BreakerSpec
from .errors import UnsupportedScenarioError
from .rescache import ResultCacheSpec
from .topology import Topology

__all__ = ["ScenarioConfig"]


@dataclass(frozen=True)
class ScenarioConfig:
    """One deployment scenario, from RNG seed to dispatch policy."""

    # -- simulation-wide --
    #: Root seed for every RNG stream (runs are bit-for-bit reproducible).
    seed: int = 0
    #: Simulated seconds :meth:`WhisperSystem.settle` waits by default for
    #: joins, SRDI pushes and the first election to finish.
    settle: float = 6.0
    #: Record per-message detail on the trace (memory-heavy; debug only).
    record_trace_details: bool = False
    #: Request-scoped tracing + metrics (near-zero-cost to disable).
    observability: bool = True
    #: The network shape: regions, WAN links, gossip tuning (see
    #: :class:`~repro.core.topology.Topology`).  ``None`` keeps the
    #: paper's flat single-LAN testbed, byte-identical to the seed —
    #: equivalent to ``Topology.single_region()`` but without region
    #: bookkeeping anywhere on the hot path.
    topology: Optional[Topology] = None
    #: Fraction of requests that get a full span tree (systematic
    #: sampling, deterministic).  1.0 traces everything (the default);
    #: lower rates keep the request counters exact but skip per-request
    #: span allocation — the knob high-throughput scenarios turn down.
    obs_sample_rate: float = 1.0

    # -- group coordination --
    heartbeat_interval: float = 1.0
    miss_threshold: int = 3
    #: Split-brain fencing (election epochs, PR 2): stale-term requests
    #: are bounced, stale announcements rejected, stale results discarded,
    #: and the proxy prefers the highest-epoch resolver answer.  ``False``
    #: restores the unfenced pre-epoch protocol — only the schedule
    #: checker's self-test should ever do this: it proves the invariant
    #: suite catches the resulting stale-result delivery.
    epoch_fencing: bool = True

    # -- semantic matching --
    min_degree: DegreeOfMatch = DegreeOfMatch.EXACT

    # -- load sharing & overload control --
    #: Spread requests over members (§4.1) instead of coordinator-only.
    load_sharing: bool = False
    #: Dispatch policy name or instance (see :mod:`repro.core.dispatch`):
    #: ``round-robin``, ``least-outstanding``, or ``qos``.
    dispatch: Union[str, Any, None] = "round-robin"
    #: Per-member cap on dispatched-but-unfinished requests.  ``None``
    #: keeps the seed's unbounded queues; with a bound, the coordinator
    #: sheds excess load with a ``server-busy`` fault + retry-after hint
    #: instead of queueing forever.
    queue_bound: Optional[int] = None

    # -- exactly-once invocation --
    #: Dedup/result journal on every b-peer: retried invocation ids are
    #: answered from the journal (or parked behind the in-flight
    #: execution for mutating services) instead of re-executed.  ``False``
    #: restores the seed's at-least-once semantics — the baseline the
    #: duplicate-execution audit measures against.
    dedup_journal: bool = True
    #: Bound on journal entries per peer (oldest DONE evicted past it).
    journal_capacity: int = 4096

    # -- semantic sharding --
    #: Number of federated b-peer groups the service's semantic keyspace
    #: is consistent-hashed across.  1 keeps the paper's single-group
    #: deployment (byte-identical messages to the seed); N>1 deploys N
    #: groups, each with its own replication/election/journal, and the
    #: proxy routes on the annotation+argument key.
    shards: int = 1
    #: Virtual nodes per shard group on the consistent-hash ring; more
    #: points smooth the per-shard key distribution and shrink the
    #: segment remapped by one group's failover.
    virtual_nodes: int = 64

    # -- canonical student scenario (§3) --
    replicas: int = 4
    students: int = 200
    warehouse_every: int = 2

    # -- proxy budgets --
    request_timeout: float = 2.0
    max_attempts: int = 8
    deadline_budget: float = 60.0

    # -- adaptive capacity (ROADMAP item 5) --
    #: Demand-driven group resizing (see :mod:`repro.core.autoscale`):
    #: a controller watches the dispatch load ledger and spawns/retires
    #: replicas between the spec's ``[min_replicas, max_replicas]`` with
    #: cooldown hysteresis and epoch-safe drain-first retirement.
    #: ``None`` keeps the paper's fixed-size groups, byte-identical to
    #: the seed.
    autoscale: Optional[AutoscaleSpec] = None
    #: Client-side circuit breaker per (service, shard) binding (see
    #: :mod:`repro.core.breaker`): trips open on a failure-rate threshold
    #: over a sliding window, rejects locally while open, half-open
    #: probes to heal.  ``None`` disables (seed behaviour).
    circuit_breaker: Optional[BreakerSpec] = None
    #: Read-through semantic result cache on the proxy (see
    #: :mod:`repro.core.rescache`): read-only hits skip the whole
    #: discover→bind→invoke path, epoch-fenced + staleness-bounded.
    #: ``None`` disables (seed behaviour).
    result_cache: Optional[ResultCacheSpec] = None

    def check_supported(self, topology: Topology) -> None:
        """Raise for the combinations no deployment supports.

        ``topology`` is the *system's*: a per-service ``config=`` override
        need not carry one.
        """
        if self.shards < 1:
            raise UnsupportedScenarioError(f"shards must be >= 1, got {self.shards}")
        if self.queue_bound is not None and self.queue_bound < 1:
            raise UnsupportedScenarioError(
                "queue_bound must be >= 1 (or None for unbounded)"
            )
        if self.shards > 1 and topology.multi_region:
            raise UnsupportedScenarioError(
                "shards and regions cannot both exceed 1: sharded multi-region "
                "deployments are not supported"
            )
        if self.autoscale is not None and (self.shards > 1 or topology.multi_region):
            raise UnsupportedScenarioError(
                "autoscaling needs a single-region, unsharded deployment"
            )

    def replace(self, **changes: Any) -> "ScenarioConfig":
        """A copy with ``changes`` applied (convenience for sweeps)."""
        return dataclasses.replace(self, **changes)
