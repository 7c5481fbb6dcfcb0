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
Hashing uses BLAKE2b, not Python's ``hash()`` — the latter is salted per
process and would make routing non-deterministic across runs.
"""

from __future__ import annotations

import json
from bisect import bisect_right, insort
from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

__all__ = ["shard_key", "ShardRing", "ShardRouter"]


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
