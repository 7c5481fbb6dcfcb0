"""Unit tests for the advertisement cache."""

import pytest

from repro.p2p import (
    AdvertisementCache,
    PeerAdvertisement,
    PeerGroupId,
    PeerId,
    SemanticAdvertisement,
)
from repro.p2p.advertisement import DEFAULT_LIFETIME


@pytest.fixture
def clock():
    state = {"now": 0.0}
    return state


@pytest.fixture
def cache(clock):
    return AdvertisementCache(clock=lambda: clock["now"])


def _peer_adv(name, host="h", port=1, lifetime=DEFAULT_LIFETIME):
    return PeerAdvertisement(
        peer_id=PeerId.from_name(name), name=name, host=host, port=port, lifetime=lifetime
    )


def _group_adv(name):
    return SemanticAdvertisement(group_id=PeerGroupId.from_name(name), name=name)


class TestPublish:
    def test_publish_and_get(self, cache):
        advertisement = _peer_adv("p1")
        cache.publish(advertisement)
        assert cache.get(advertisement.key()) is advertisement
        assert len(cache) == 1

    def test_republish_replaces(self, cache):
        cache.publish(_peer_adv("p1", host="old"))
        updated = _peer_adv("p1", host="new")
        cache.publish(updated)
        assert len(cache) == 1
        assert cache.get(updated.key()).host == "new"

    def test_remove(self, cache):
        advertisement = _peer_adv("p1")
        cache.publish(advertisement)
        assert cache.remove(advertisement.key())
        assert not cache.remove(advertisement.key())
        assert cache.get(advertisement.key()) is None


class TestExpiry:
    def test_expires_after_lifetime(self, cache, clock):
        advertisement = _peer_adv("p1", lifetime=10.0)
        cache.publish(advertisement)
        clock["now"] = 9.9
        assert cache.get(advertisement.key()) is not None
        clock["now"] = 10.1
        assert cache.get(advertisement.key()) is None
        assert len(cache) == 0

    def test_republish_extends_lifetime(self, cache, clock):
        advertisement = _peer_adv("p1", lifetime=10.0)
        cache.publish(advertisement)
        clock["now"] = 8.0
        cache.publish(advertisement)
        clock["now"] = 15.0
        assert cache.get(advertisement.key()) is not None

    def test_query_skips_expired(self, cache, clock):
        cache.publish(_peer_adv("p1", lifetime=5.0))
        cache.publish(_peer_adv("p2", lifetime=50.0))
        clock["now"] = 10.0
        names = [a.name for a in cache.query(PeerAdvertisement)]
        assert names == ["p2"]


class TestQuery:
    def test_query_by_type(self, cache):
        cache.publish(_peer_adv("p1"))
        cache.publish(_group_adv("g1"))
        assert len(cache.query(PeerAdvertisement)) == 1
        assert len(cache.query(SemanticAdvertisement)) == 1
        assert len(cache.query()) == 2

    def test_query_by_attribute_value(self, cache):
        cache.publish(_peer_adv("alice"))
        cache.publish(_peer_adv("bob"))
        results = cache.query(PeerAdvertisement, "Name", "alice")
        assert [a.name for a in results] == ["alice"]

    def test_query_wildcard_prefix(self, cache):
        for name in ("alpha1", "alpha2", "beta"):
            cache.publish(_peer_adv(name))
        results = cache.query(PeerAdvertisement, "Name", "alpha*")
        assert sorted(a.name for a in results) == ["alpha1", "alpha2"]

    def test_query_attribute_without_value_requires_presence(self, cache):
        cache.publish(_peer_adv("p1"))
        assert len(cache.query(attribute="Name")) == 1
        assert len(cache.query(attribute="Nonexistent")) == 0

    def test_query_results_deterministic_order(self, cache):
        for name in ("c", "a", "b"):
            cache.publish(_peer_adv(name))
        first = [a.key() for a in cache.query()]
        second = [a.key() for a in cache.query()]
        assert first == second


class TestMetrics:
    @pytest.fixture
    def metrics(self):
        from repro.obs import Observability

        return Observability().metrics

    @pytest.fixture
    def cache(self, clock, metrics):
        return AdvertisementCache(clock=lambda: clock["now"], metrics=metrics)

    def _counter(self, metrics, name):
        counter = metrics.counters.get(name)
        return counter.value if counter is not None else 0

    def test_get_hit_and_expiry_counted(self, cache, clock, metrics):
        advertisement = _peer_adv("p1", lifetime=10.0)
        cache.publish(advertisement)
        assert cache.get(advertisement.key()) is not None
        assert self._counter(metrics, "discovery.cache_hit") == 1
        clock["now"] = 11.0
        assert cache.get(advertisement.key()) is None
        assert self._counter(metrics, "discovery.cache_expired") == 1
        assert self._counter(metrics, "discovery.cache_hit") == 1

    def test_query_counts_one_hit_per_lookup_and_purges(self, cache, clock, metrics):
        """One query is one lookup: a single hit no matter how many
        advertisements match (parity with ``get``)."""
        cache.publish(_peer_adv("p1", lifetime=5.0))
        cache.publish(_peer_adv("p2", lifetime=50.0))
        cache.publish(_peer_adv("p3", lifetime=50.0))
        clock["now"] = 10.0
        results = cache.query(PeerAdvertisement)
        assert len(results) == 2
        assert self._counter(metrics, "discovery.cache_hit") == 1
        assert self._counter(metrics, "discovery.cache_expired") == 1

    def test_query_with_no_matches_counts_a_miss(self, cache, metrics):
        cache.publish(_peer_adv("p1"))
        assert cache.query(PeerAdvertisement, "Name", "ghost") == []
        assert self._counter(metrics, "discovery.cache_hit") == 0
        assert self._counter(metrics, "discovery.cache_miss") == 1

    def test_get_miss_counts_a_miss(self, cache, metrics):
        assert cache.get("ghost") is None
        assert self._counter(metrics, "discovery.cache_hit") == 0
        assert self._counter(metrics, "discovery.cache_miss") == 1
        assert self._counter(metrics, "discovery.cache_expired") == 0

    def test_get_expired_counts_expired_and_miss(self, cache, clock, metrics):
        advertisement = _peer_adv("p1", lifetime=5.0)
        cache.publish(advertisement)
        clock["now"] = 10.0
        assert cache.get(advertisement.key()) is None
        assert self._counter(metrics, "discovery.cache_expired") == 1
        assert self._counter(metrics, "discovery.cache_miss") == 1
        assert self._counter(metrics, "discovery.cache_hit") == 0

    def test_cache_without_metrics_still_works(self, clock):
        bare = AdvertisementCache(clock=lambda: clock["now"])
        advertisement = _peer_adv("p1", lifetime=1.0)
        bare.publish(advertisement)
        assert bare.get(advertisement.key()) is not None
        clock["now"] = 2.0
        assert bare.get(advertisement.key()) is None
