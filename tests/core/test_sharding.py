"""Unit tests for the consistent-hash shard ring and router."""

import pytest

from repro.core.sharding import ShardRing, ShardRouter, shard_key


def _ring(members):
    ring = ShardRing()
    for member in members:
        ring.add(member)
    return ring


KEYS = [f"EnrollStudent|{{\"ID\": \"S{i:05d}\"}}" for i in range(1, 301)]


class TestShardKey:
    def test_deterministic_across_argument_order(self):
        a = shard_key("Enroll", {"ID": "S1", "Course": "cs"})
        b = shard_key("Enroll", {"Course": "cs", "ID": "S1"})
        assert a == b

    def test_distinct_actions_and_arguments_differ(self):
        base = shard_key("Enroll", {"ID": "S1"})
        assert shard_key("Lookup", {"ID": "S1"}) != base
        assert shard_key("Enroll", {"ID": "S2"}) != base


class TestShardRing:
    def test_lookup_deterministic(self):
        ring = _ring(["g0", "g1", "g2", "g3"])
        other = _ring(["g3", "g1", "g0", "g2"])  # insertion order irrelevant
        for key in KEYS:
            assert ring.lookup(key) == other.lookup(key)

    def test_empty_ring_returns_none(self):
        assert ShardRing().lookup("anything") is None

    def test_every_member_owns_some_segment(self):
        ring = _ring(["g0", "g1", "g2", "g3"])
        owners = {ring.lookup(key) for key in KEYS}
        assert owners == {"g0", "g1", "g2", "g3"}

    def test_removal_remaps_only_victims_segment(self):
        """The consistent-hashing property: a ring without one member
        differs in ownership only for keys the victim owned."""
        before = {key: _ring(["g0", "g1", "g2", "g3"]).lookup(key) for key in KEYS}
        shrunk = _ring(["g0", "g1", "g3"])
        for key, owner in before.items():
            after = shrunk.lookup(key)
            if owner == "g2":
                assert after != "g2"
            else:
                assert after == owner

    def test_exclusion_equals_removal(self):
        """Suspecting a member routes exactly like removing it — only its
        segment walks to the clockwise successors."""
        ring = _ring(["g0", "g1", "g2", "g3"])
        shrunk = _ring(["g0", "g1", "g3"])
        for key in KEYS:
            assert ring.lookup(key, exclude=frozenset({"g2"})) == shrunk.lookup(key)

    def test_excluding_everyone_falls_back_to_full_ring(self):
        ring = _ring(["g0", "g1"])
        everyone = frozenset({"g0", "g1"})
        assert ring.lookup(KEYS[0], exclude=everyone) == ring.lookup(KEYS[0])

    def test_virtual_nodes_balance_distribution(self):
        ring = _ring(["g0", "g1", "g2", "g3"])
        fractions = [ring.segment_fraction(f"g{i}") for i in range(4)]
        assert pytest.approx(sum(fractions), abs=0.01) == 1.0
        for fraction in fractions:
            assert 0.10 < fraction < 0.45  # no starved or dominant shard

    def test_add_is_idempotent(self):
        ring = _ring(["g0", "g1"])
        points_before = len(ring._points)
        ring.add("g0")
        assert len(ring._points) == points_before


class TestShardRouter:
    def test_update_is_additive(self):
        router = ShardRouter()
        router.update(["g0", "g1", "g2", "g3"])
        before = {key: router.route(key, now=0.0) for key in KEYS}
        # A partial re-discovery must not shrink the ring.
        router.update(["g1"])
        assert {key: router.route(key, now=0.0) for key in KEYS} == before

    def test_suspicion_reroutes_then_expires(self):
        router = ShardRouter(suspect_interval=5.0)
        router.update(["g0", "g1", "g2", "g3"])
        victim_keys = [key for key in KEYS if router.route(key, now=0.0) == "g0"]
        assert victim_keys
        router.suspect("g0", now=0.0)
        for key in victim_keys:
            assert router.route(key, now=1.0) != "g0"
        # Non-victim keys keep their owner while g0 is suspected.
        for key in KEYS:
            if key not in victim_keys:
                assert router.route(key, now=1.0) == router.route(key, now=6.0)
        # After the suspicion lapses, the segment returns home.
        for key in victim_keys:
            assert router.route(key, now=6.0) == "g0"
