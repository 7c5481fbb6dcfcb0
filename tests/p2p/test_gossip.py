"""Cross-region gossip discovery: convergence, suppression, flood baseline."""

import pytest

from repro.bench.wan import FLOOD_CATEGORIES, GOSSIP_CATEGORIES, build_wan_system
from repro.p2p.ids import PeerId


def _settle(system, seconds=12.0):
    system.settle(seconds)


def _cross_region_sent(system, categories):
    return sum(
        system.trace.sent_by_category.get(category, 0) for category in categories
    )


class TestGossipConvergence:
    def test_every_region_learns_every_advertisement(self):
        system, _service = build_wan_system(regions=3, replicas=1)
        _settle(system)
        key_sets = [frozenset(g.entries) for g in system.gossip.values()]
        assert len(key_sets) == 3
        assert len(set(key_sets)) == 1, "regions disagree on the SRDI key set"
        assert len(key_sets[0]) > 0

    def test_seen_at_records_first_application_times(self):
        system, _service = build_wan_system(regions=2, replicas=1)
        _settle(system)
        for gossip in system.gossip.values():
            assert set(gossip.seen_at) == set(gossip.entries)
            assert all(t >= 0.0 for t in gossip.seen_at.values())

    def test_refresh_republishes_are_suppressed(self):
        # REPUBLISH_PERIOD refreshes carry identical content; gossip must
        # not re-rumor them (that is where the economy win comes from).
        system, _service = build_wan_system(regions=2, replicas=1)
        _settle(system, 25.0)
        suppressed = sum(g.stats.refreshes_suppressed for g in system.gossip.values())
        assert suppressed > 0

    def test_higher_fanout_sends_more_rumors(self):
        slow, _ = build_wan_system(regions=4, replicas=1, fanout=1)
        _settle(slow)
        fast, _ = build_wan_system(regions=4, replicas=1, fanout=3)
        _settle(fast)
        rumors_slow = sum(g.stats.rumors_sent for g in slow.gossip.values())
        rumors_fast = sum(g.stats.rumors_sent for g in fast.gossip.values())
        assert rumors_fast > rumors_slow


class TestFloodBaseline:
    def test_flood_mode_forwards_every_push(self):
        system, _service = build_wan_system(regions=3, replicas=1, mode="flood")
        _settle(system)
        assert _cross_region_sent(system, FLOOD_CATEGORIES) > 0
        assert all(g.mode == "flood" for g in system.gossip.values())
        # Flood still converges — it is the correctness baseline.
        key_sets = [frozenset(g.entries) for g in system.gossip.values()]
        assert len(set(key_sets)) == 1

    def test_gossip_beats_flood_in_steady_state(self):
        """The headline economy claim at >= 3 regions (also gated by the
        wan bench): with refresh traffic flowing, gossip's digest cost is
        strictly below flood's per-push forwarding."""
        window = 30.0
        counts = {}
        for mode, categories in (
            ("gossip", GOSSIP_CATEGORIES),
            ("flood", FLOOD_CATEGORIES),
        ):
            system, _service = build_wan_system(
                regions=3, replicas=2, mode=mode
            )
            _settle(system, 20.0)
            before = _cross_region_sent(system, categories)
            system.run_until(system.env.now + window)
            counts[mode] = _cross_region_sent(system, categories) - before
        assert counts["gossip"] < counts["flood"]


class TestSendErrors:
    """``_send`` forgives routing failures only — the one thing
    ``Endpoint.send`` raises for "no route yet / mid-crash"."""

    def test_unroutable_peer_is_skipped(self):
        system, _service = build_wan_system(regions=2, replicas=1)
        _settle(system, 5.0)
        gossip = next(iter(system.gossip.values()))
        gossip._send(PeerId.from_name("nobody"), ("rumor", []), "gossip-rumor", 64)

    def test_payload_bug_propagates(self):
        system, _service = build_wan_system(regions=2, replicas=1)
        _settle(system, 5.0)
        gossip = next(iter(system.gossip.values()))
        peer_id = next(iter(gossip.peers))
        with pytest.raises(TypeError):
            # A size that is not a number: a bug in the caller, not a
            # routing condition some later round repairs.
            gossip._send(peer_id, ("rumor", []), "gossip-rumor", None)
