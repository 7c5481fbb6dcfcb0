"""The local advertisement cache (JXTA's "CM").

Each peer keeps discovered advertisements locally with an expiration time
(publication time + advertisement lifetime).  Discovery's
``getLocalAdvertisements`` queries run against this cache; expired entries
are purged lazily on access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Type

from .advertisement import Advertisement

__all__ = ["AdvertisementCache", "matching"]


@dataclass
class _Entry:
    advertisement: Advertisement
    expires_at: float


class AdvertisementCache:
    """Expiring store of advertisements, queryable by type and attribute.

    When handed a metrics registry, the cache emits exactly one
    ``discovery.cache_hit`` or ``discovery.cache_miss`` per lookup
    (``get``, ``query`` and ``select`` alike — a query that matches ten
    advertisements is still *one* hit, and an empty result is a miss),
    plus ``discovery.cache_expired`` per entry purged past its lifetime
    and ``discovery.cache_flushed`` per live entry dropped by
    ``clear()``.  ``repro metrics`` exports them.
    """

    def __init__(self, clock: Callable[[], float], metrics: Optional[Any] = None):
        self._clock = clock
        self._metrics = metrics
        self._entries: Dict[str, _Entry] = {}

    def _inc(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None and amount:
            self._metrics.inc(name, amount)

    def __len__(self) -> int:
        self._purge()
        return len(self._entries)

    def publish(self, advertisement: Advertisement, lifetime: Optional[float] = None) -> None:
        """Insert or refresh an advertisement.

        Re-publishing an advertisement with the same key replaces the old
        copy and extends its expiration.
        """
        effective = lifetime if lifetime is not None else advertisement.lifetime
        self._entries[advertisement.key()] = _Entry(
            advertisement=advertisement,
            expires_at=self._clock() + effective,
        )

    def remove(self, key: str) -> bool:
        """Flush one advertisement; returns True if it was present."""
        return self._entries.pop(key, None) is not None

    def get(self, key: str) -> Optional[Advertisement]:
        entry = self._entries.get(key)
        if entry is None:
            self._inc("discovery.cache_miss")
            return None
        if entry.expires_at <= self._clock():
            del self._entries[key]
            self._inc("discovery.cache_expired")
            self._inc("discovery.cache_miss")
            return None
        self._inc("discovery.cache_hit")
        return entry.advertisement

    def query(
        self,
        adv_type: Optional[Type[Advertisement]] = None,
        attribute: Optional[str] = None,
        value: Optional[str] = None,
    ) -> List[Advertisement]:
        """All live advertisements matching the JXTA-style query triple.

        ``adv_type`` restricts the advertisement class, compared on its
        ``ADV_TYPE``; the rule is :func:`matching`'s.
        """
        type_tag = adv_type.ADV_TYPE if adv_type is not None else None
        return self.select(matching(type_tag, attribute, value))

    def select(self, predicate: Callable[[Advertisement], bool]) -> List[Advertisement]:
        """All live advertisements ``predicate`` accepts, in key order."""
        self._purge()
        results = [
            entry.advertisement
            for entry in self._entries.values()
            if predicate(entry.advertisement)
        ]
        results.sort(key=lambda adv: adv.key())
        if results:
            self._inc("discovery.cache_hit")
        else:
            self._inc("discovery.cache_miss")
        return results

    def clear(self) -> None:
        """Drop everything, keeping the expired/flushed accounting honest.

        Entries already past their lifetime count toward
        ``discovery.cache_expired`` (they would have been purged on the
        next lookup anyway); still-live entries count toward
        ``discovery.cache_flushed``.
        """
        now = self._clock()
        expired = sum(1 for entry in self._entries.values() if entry.expires_at <= now)
        self._inc("discovery.cache_expired", expired)
        self._inc("discovery.cache_flushed", len(self._entries) - expired)
        self._entries.clear()

    def _purge(self) -> None:
        now = self._clock()
        expired = [key for key, entry in self._entries.items() if entry.expires_at <= now]
        for key in expired:
            del self._entries[key]
        self._inc("discovery.cache_expired", len(expired))


def matching(
    adv_type: Optional[str] = None,
    attribute: Optional[str] = None,
    value: Optional[str] = None,
) -> Callable[[Advertisement], bool]:
    """The JXTA-style query triple as a predicate.

    The one rule local queries, remote discovery answers and the
    rendezvous' SRDI index apply.  ``adv_type`` is an ``ADV_TYPE`` tag,
    compared exactly; ``attribute`` / ``value`` match against
    :meth:`Advertisement.attributes` — an attribute with no value only has
    to be present, and a ``*`` suffix on ``value`` performs a prefix match
    (JXTA wildcard style).
    """

    def matches(advertisement: Advertisement) -> bool:
        if adv_type is not None and advertisement.ADV_TYPE != adv_type:
            return False
        if attribute is None:
            return True
        actual = advertisement.attributes().get(attribute)
        if actual is None:
            return False
        if value is None:
            return True
        if value.endswith("*"):
            return actual.startswith(value[:-1])
        return actual == value

    return matches
