"""Semantic sharding of a service's keyspace across federated b-peer groups.

The paper benchmarks a *single* b-peer group per service: one coordinator
serializes every invocation, which caps throughput at one group's
capacity regardless of how many replicas it holds (Figures 4-6).  The
CERN peer-group line of work argues groups should be *federated and
partitioned* for scale, and the semantic-matchmaker literature shows the
service's semantic annotation is a natural partitioning key.

This module provides the pieces:

* :func:`shard_key` — the deterministic routing key for one invocation:
  the semantic action plus the canonicalised arguments.  Both the proxy
  and any offline audit derive the same key for the same request.
* :class:`ShardRing` — a consistent-hash ring with virtual nodes mapping
  keys onto shard-group names.  When one group fails, only *its* ring
  segment remaps (to the clockwise successors of its virtual nodes);
  every other segment keeps its owner, so a shard-group failover
  rebalances ~1/N of the keyspace instead of reshuffling everything.
* :class:`ShardRouter` — the proxy-side router: a ring fed from
  discovered per-shard advertisements (no central shard map — discovery
  *is* the map) plus a suspicion list so a timed-out group's segment is
  temporarily served by its ring successors.
* :class:`ScatterResult` — the outcome of a cross-shard scatter-gather
  read, carrying per-shard results/failures and whether the configured
  partial-result policy had to degrade.

Hashing uses BLAKE2b, not Python's ``hash()`` — the latter is salted per
process and would make routing non-deterministic across runs.
"""

from __future__ import annotations

import json
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

__all__ = [
    "shard_key",
    "ShardRing",
    "ShardRouter",
    "ScatterResult",
    "SCATTER_POLICIES",
]

#: Recognised cross-shard read policies (see :meth:`ScatterResult.evaluate`).
SCATTER_POLICIES = ("all", "quorum", "partial")


def _hash64(value: str) -> int:
    """Deterministic 64-bit hash (BLAKE2b; never the salted ``hash()``)."""
    return int.from_bytes(blake2b(value.encode("utf-8"), digest_size=8).digest(), "big")


def shard_key(action: str, arguments: Mapping[str, object]) -> str:
    """The routing key for one invocation: semantic action + arguments.

    Arguments are canonicalised (sorted keys, JSON) so two retries of the
    same logical request always land on the same shard.
    """
    canonical = json.dumps(dict(arguments), sort_keys=True, default=str)
    return f"{action}|{canonical}"


class ShardRing:
    """Consistent-hash ring with virtual nodes over shard-group names.

    Each member contributes ``virtual_nodes`` points at
    ``hash64(f"{member}#vnode{i}")``; a key is owned by the first point
    clockwise from ``hash64(key)``.  ``lookup`` can exclude (suspected)
    members, in which case only their segments walk further clockwise —
    the defining rebalance property this module exists for.
    """

    def __init__(self, virtual_nodes: int = 64):
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.virtual_nodes = virtual_nodes
        self._points: List[Tuple[int, str]] = []  # sorted (hash, member)
        self._members: Dict[str, List[int]] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    @property
    def members(self) -> List[str]:
        return sorted(self._members)

    def add(self, member: str) -> None:
        if member in self._members:
            return
        hashes = [
            _hash64(f"{member}#vnode{index}") for index in range(self.virtual_nodes)
        ]
        self._members[member] = hashes
        for point in hashes:
            insort(self._points, (point, member))

    def remove(self, member: str) -> None:
        hashes = self._members.pop(member, None)
        if hashes is None:
            return
        doomed = set(hashes)
        self._points = [
            (point, owner)
            for point, owner in self._points
            if not (owner == member and point in doomed)
        ]

    def lookup(self, key: str, exclude: FrozenSet[str] = frozenset()) -> Optional[str]:
        """Owner of ``key``, walking clockwise past excluded members.

        If excluding would rule out every member the exclusions are
        ignored (a degraded answer beats none — the caller's retry loop
        sorts out whether the member is actually reachable).
        """
        if not self._points:
            return None
        if exclude and all(member in exclude for member in self._members):
            exclude = frozenset()
        point = _hash64(key)
        start = bisect_right(self._points, (point, "￿"))
        total = len(self._points)
        for offset in range(total):
            _, owner = self._points[(start + offset) % total]
            if owner not in exclude:
                return owner
        return None

    def segment_fraction(self, member: str, samples: int = 4096) -> float:
        """Approximate fraction of the keyspace owned by ``member``."""
        if member not in self._members or not self._points:
            return 0.0
        owned = sum(
            1
            for index in range(samples)
            if self.lookup(f"probe-{index}") == member
        )
        return owned / samples


@dataclass
class _Suspicion:
    until: float


class ShardRouter:
    """Proxy-side shard -> group routing fed from discovery.

    ``update`` merges per-shard advertisements additively (a partial
    local-cache view must never shrink the ring and misroute keys that
    other proxies still serve correctly); ``suspect`` marks a group's
    segment for clockwise failover until the suspicion expires.
    """

    def __init__(self, virtual_nodes: int = 64, suspect_interval: float = 10.0):
        self.ring = ShardRing(virtual_nodes)
        self.suspect_interval = suspect_interval
        self._suspicions: Dict[str, _Suspicion] = {}

    def update(self, group_names: List[str]) -> None:
        for name in group_names:
            self.ring.add(name)

    def suspect(self, group_name: str, now: float) -> None:
        self._suspicions[group_name] = _Suspicion(until=now + self.suspect_interval)

    def suspected(self, now: float) -> FrozenSet[str]:
        expired = [
            name for name, entry in self._suspicions.items() if entry.until <= now
        ]
        for name in expired:
            del self._suspicions[name]
        return frozenset(self._suspicions)

    def route(self, key: str, now: float) -> Optional[str]:
        """Group that owns ``key`` right now (skipping suspected groups)."""
        return self.ring.lookup(key, exclude=self.suspected(now))

    def route_home(self, key: str) -> Optional[str]:
        """The key's un-failed-over owner (ignores suspicions)."""
        return self.ring.lookup(key)


@dataclass
class ScatterResult:
    """Outcome of a cross-shard scatter-gather read.

    ``results`` maps shard-group name -> per-shard
    :class:`~repro.core.result.InvokeResult`; ``failures`` maps the
    groups whose leg failed -> a short reason string.  ``partial`` is
    True when the configured policy accepted a degraded answer.
    """

    operation: str
    policy: str
    shards: int
    results: Dict[str, object] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    duration: float = 0.0

    @property
    def partial(self) -> bool:
        return bool(self.failures) and bool(self.results)

    @property
    def values(self) -> Dict[str, object]:
        """Per-shard unwrapped result values, keyed by group name."""
        return {
            name: getattr(result, "value", result)
            for name, result in sorted(self.results.items())
        }

    def evaluate(self) -> None:
        """Enforce the partial-result policy; raises on an unacceptable gather.

        * ``all``: every shard leg must succeed;
        * ``quorum``: a strict majority of legs must succeed;
        * ``partial``: at least one leg must succeed (degraded answers
          are flagged via :attr:`partial`, never raised).
        """
        if self.policy not in SCATTER_POLICIES:
            raise ValueError(
                f"unknown scatter policy {self.policy!r}; "
                f"expected one of {SCATTER_POLICIES}"
            )
        ok = len(self.results)
        if self.policy == "all" and self.failures:
            raise ScatterError(self, f"{len(self.failures)}/{self.shards} shard legs failed")
        if self.policy == "quorum" and ok * 2 <= self.shards:
            raise ScatterError(self, f"no quorum: {ok}/{self.shards} shard legs succeeded")
        if ok == 0:
            raise ScatterError(self, "every shard leg failed")


class ScatterError(RuntimeError):
    """A scatter-gather read that the partial-result policy rejected."""

    def __init__(self, result: ScatterResult, reason: str):
        super().__init__(
            f"scatter({result.operation}, policy={result.policy}): {reason}; "
            f"failures={sorted(result.failures)}"
        )
        self.result = result
        self.reason = reason


__all__.append("ScatterError")
