"""Read-through semantic result cache for the SWS-proxy.

Semantically-equivalent read requests need not reach a replica at all:
the proxy keys results on the operation's *semantic annotation* (the
ontology action concept) plus the canonicalized argument map — the same
``shard_key`` canonicalization the shard router uses — so two
syntactically different but semantically identical calls share one
entry.  Hits are served before discovery, skipping the whole
discover→bind→invoke path.

Freshness is bounded two ways:

* **staleness bound** — entries older than ``staleness_bound`` simulated
  seconds are never served;
* **epoch fencing** — every entry remembers the coordination epoch of
  the result it stores.  If the proxy has since accepted a result under
  a *higher* epoch for that group (i.e. a failover happened), the entry
  is fenced: a new coordinator may have recovered writes the cached
  value predates.  Fenced entries are invalidated, never served.

A mutating invocation through the same proxy flushes the whole cache:
without per-key write-set knowledge, any local write may affect any
cached read of the service (conservative, always safe).  Every *serve* is
journalled with the entry's epoch and the fence the proxy held at that
instant, so the checker can audit "zero stale-epoch serves" offline.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

__all__ = ["ResultCacheSpec", "CacheEntry", "CacheServe", "SemanticResultCache"]


@dataclass(frozen=True)
class ResultCacheSpec:
    """Tuning knobs, carried by ``ScenarioConfig(result_cache=...)``."""

    capacity: int = 512
    staleness_bound: float = 5.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.staleness_bound <= 0.0:
            raise ValueError("staleness_bound must be positive")


@dataclass
class CacheEntry:
    value: Any
    action: str
    epoch: Any  # the Epoch the result was delivered under
    group_id: Any
    stored_at: float


@dataclass(frozen=True, slots=True)
class CacheServe:
    """Audit-log entry: one cache hit actually delivered to a caller."""

    at: float
    key: str
    entry_epoch: Any
    fence_epoch: Any
    age: float


class SemanticResultCache:
    """LRU cache of read-only invocation results, epoch-fenced."""

    def __init__(self, spec: ResultCacheSpec, metrics=None):
        self.spec = spec
        self.metrics = metrics
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.stale_epoch_serves = 0  # audited invariant: must stay 0
        #: Serve audit log (newest last), bounded like the proxy's
        #: ``result_epoch_log``: the checker re-audits it every slice.
        self.serves: Deque[CacheServe] = deque(maxlen=8192)

    def __len__(self) -> int:
        return len(self._entries)

    # -- read path ---------------------------------------------------------------------

    def lookup(
        self,
        key: str,
        now: float,
        fence_for: Optional[Callable[[Any], Any]] = None,
    ) -> Optional[CacheEntry]:
        """Return a servable entry, or None (counting a miss).

        ``fence_for(group_id)`` returns the highest epoch the proxy has
        delivered a result under for that group (or None).  An entry
        whose epoch is below the fence is invalidated, not served.
        """
        entry = self._entries.get(key)
        if entry is None:
            self._miss()
            return None
        age = now - entry.stored_at
        if age > self.spec.staleness_bound:
            del self._entries[key]
            self._miss()
            return None
        fence = fence_for(entry.group_id) if fence_for is not None else None
        if fence is not None and entry.epoch < fence:
            del self._entries[key]
            self._invalidate_count(1)
            self._miss()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self.metrics is not None:
            self.metrics.inc("rescache.hit")
        if fence is not None and entry.epoch < fence:
            self.stale_epoch_serves += 1  # unreachable by construction; audited anyway
        self.serves.append(
            CacheServe(at=now, key=key, entry_epoch=entry.epoch, fence_epoch=fence, age=age)
        )
        return entry

    # -- write path --------------------------------------------------------------------

    def store(self, key: str, value: Any, *, action: str, epoch: Any, group_id: Any, now: float) -> None:
        self._entries[key] = CacheEntry(
            value=value, action=action, epoch=epoch, group_id=group_id, stored_at=now
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.spec.capacity:
            self._entries.popitem(last=False)

    # -- invalidation ------------------------------------------------------------------

    def invalidate_all(self) -> int:
        """Flush everything (a mutating op landed on this service)."""
        doomed = len(self._entries)
        self._entries.clear()
        self._invalidate_count(doomed)
        return doomed

    def invalidate_epoch(self, group_id: Any, fence: Any) -> int:
        """Drop entries of ``group_id`` fenced by a newly-seen epoch."""
        doomed = [
            k
            for k, e in self._entries.items()
            if e.group_id == group_id and e.epoch < fence
        ]
        for key in doomed:
            del self._entries[key]
        self._invalidate_count(len(doomed))
        return len(doomed)

    # -- internals ---------------------------------------------------------------------

    def _miss(self) -> None:
        self.misses += 1
        if self.metrics is not None:
            self.metrics.inc("rescache.miss")

    def _invalidate_count(self, n: int) -> None:
        if n <= 0:
            return
        self.invalidated += n
        if self.metrics is not None:
            self.metrics.inc("rescache.invalidated", n)
