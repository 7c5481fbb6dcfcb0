"""Unit tests for the discovery service."""

from collections import Counter

import pytest

from repro.p2p import (
    Advertisement,
    PeerAdvertisement,
    PeerGroupId,
    SemanticAdvertisement,
)


def _group_adv(name):
    return SemanticAdvertisement(group_id=PeerGroupId.from_name(name), name=name)


def _semantic_adv(name, action):
    return SemanticAdvertisement(
        group_id=PeerGroupId.from_name(name), name=name, action=action,
        inputs=("http://o#In",), outputs=("http://o#Out",),
    )


def _remote(env, peer, **kwargs):
    found = {}

    def searcher():
        found["advs"] = yield from peer.discovery.get_remote_advertisements(**kwargs)

    env.run(until=peer.node.spawn(searcher()))
    return found["advs"]


class TestLocal:
    def test_publish_then_local_query(self, env, p2p):
        _rendezvous, edges = p2p
        edges[0].discovery.publish(_group_adv("g1"))
        results = edges[0].discovery.get_local_advertisements(SemanticAdvertisement)
        assert [a.name for a in results] == ["g1"]

    def test_local_query_by_attribute(self, env, p2p):
        _rendezvous, edges = p2p
        edges[0].discovery.publish(_semantic_adv("s1", "http://o#ActA"))
        edges[0].discovery.publish(_semantic_adv("s2", "http://o#ActB"))
        results = edges[0].discovery.cache.query(
            SemanticAdvertisement, "Action", "http://o#ActA"
        )
        assert [a.name for a in results] == ["s1"]

    def test_flush_removes(self, env, p2p):
        _rendezvous, edges = p2p
        advertisement = _group_adv("g1")
        edges[0].discovery.publish(advertisement)
        edges[0].discovery.flush(advertisement)
        assert edges[0].discovery.get_local_advertisements(SemanticAdvertisement) == []


class TestRemote:
    def test_finds_advertisements_on_other_peers(self, env, p2p):
        _rendezvous, edges = p2p
        edges[3].discovery.publish(_group_adv("remote-group"))
        found = _remote(env, edges[0], adv_type=SemanticAdvertisement, timeout=0.5)
        assert "remote-group" in [a.name for a in found]

    def test_found_advertisements_cached_locally(self, env, p2p):
        _rendezvous, edges = p2p
        edges[3].discovery.publish(_group_adv("cached-group"))
        _remote(env, edges[0], adv_type=SemanticAdvertisement, timeout=0.5)
        local = edges[0].discovery.get_local_advertisements(SemanticAdvertisement)
        assert "cached-group" in [a.name for a in local]

    def test_finds_srdi_indexed_advertisements(self, env, p2p):
        """An advertisement published remote lands in the rendezvous SRDI;
        a querying peer finds it even if the publisher is silent."""
        _rendezvous, edges = p2p
        edges[2].discovery.publish(_semantic_adv("srdi-group", "http://o#A"), remote=True)
        env.run(until=env.now + 0.1)  # let the SRDI push land
        edges[2].node.crash()  # publisher gone; only SRDI has it
        found = _remote(env, edges[0], adv_type=SemanticAdvertisement, timeout=0.5)
        assert "srdi-group" in [a.name for a in found]

    def test_queries_re_send_advertisements_without_re_rendering(
        self, env, p2p, monkeypatch
    ):
        """Counted, not timed: M advertisements answered over Q queries
        cost M renders on each serving peer, not M x Q."""
        rendezvous, edges = p2p
        rendered = []
        render = Advertisement._render_xml

        def counted(self):
            rendered.append(self)
            return render(self)

        monkeypatch.setattr(Advertisement, "_render_xml", counted)
        published = [_semantic_adv(f"flood-{i}", "http://o#A") for i in range(12)]
        for advertisement in published:
            edges[3].discovery.publish(advertisement, remote=True)
        env.run(until=env.now + 0.1)  # let the SRDI pushes land
        # The publisher's own renders: one per advertisement, for its push.
        assert [id(a) for a in rendered] == [id(a) for a in published]
        for _ in range(5):
            found = _remote(
                env, edges[0], adv_type=SemanticAdvertisement, timeout=0.5, threshold=12
            )
            assert len(found) == 12
            env.run(until=env.now + 0.1)  # every peer asked has answered
        # Five answers from the publisher re-sent those 12 documents; five
        # from the rendezvous rendered each of its 12 SRDI copies once.
        # (The querying peer also answers itself from cache entries it
        # replaces with fresh parses each round; not the serving side.)
        indexed = rendezvous.rendezvous.srdi_lookup(
            lambda adv: isinstance(adv, SemanticAdvertisement)
        )
        renders = Counter(id(advertisement) for advertisement in rendered)
        assert [renders[id(a)] for a in published + indexed] == [1] * 24

    def test_threshold_returns_early(self, env, p2p):
        _rendezvous, edges = p2p
        edges[1].discovery.publish(_group_adv("early"))
        start = env.now
        found = _remote(
            env, edges[0], adv_type=SemanticAdvertisement, timeout=5.0, threshold=1
        )
        assert found
        assert env.now - start < 1.0  # did not wait the full timeout

    def test_no_match_waits_timeout_and_returns_empty(self, env, p2p):
        _rendezvous, edges = p2p
        start = env.now
        found = _remote(
            env, edges[0], adv_type=SemanticAdvertisement,
            attribute="Name", value="ghost", timeout=0.4,
        )
        assert found == []
        assert env.now - start >= 0.4

    def test_a_non_matching_answer_counts_a_miss(self, env, network, p2p):
        """A peer asked what its cache does not hold looks up once and
        finds nothing: a miss, although the cache is not empty (every
        peer holds its own peer advertisement)."""
        _rendezvous, edges = p2p
        edges[1].discovery.publish(_group_adv("present"))
        counters = network.obs.metrics.counters

        def count(name):
            counter = counters.get(name)
            return counter.value if counter is not None else 0

        hits, misses = count("discovery.cache_hit"), count("discovery.cache_miss")
        found = _remote(
            env, edges[0], adv_type=SemanticAdvertisement,
            attribute="Name", value="ghost", timeout=0.4,
        )
        assert found == []
        assert count("discovery.cache_hit") == hits
        # One lookup per peer asked: the rendezvous and all four edges,
        # the querying one included.
        assert count("discovery.cache_miss") == misses + 5

    def test_attribute_filter_applies_remotely(self, env, p2p):
        _rendezvous, edges = p2p
        edges[1].discovery.publish(_semantic_adv("m1", "http://o#Wanted"))
        edges[2].discovery.publish(_semantic_adv("m2", "http://o#Other"))
        found = _remote(
            env, edges[0], adv_type=SemanticAdvertisement,
            attribute="Action", value="http://o#Wanted", timeout=0.5,
        )
        assert [a.name for a in found] == ["m1"]

    def test_duplicate_responses_deduplicated(self, env, p2p):
        _rendezvous, edges = p2p
        advertisement = _group_adv("dup")
        for edge in edges[1:]:
            edge.discovery.publish(advertisement)
        found = _remote(env, edges[0], adv_type=SemanticAdvertisement, timeout=0.5)
        assert [a.name for a in found].count("dup") == 1
