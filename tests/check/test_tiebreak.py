"""Tiebreak policies: determinism, spec round-trips, and victim keying."""

from types import SimpleNamespace

import pytest

from repro.check import (
    AdversarialDelayTiebreak,
    SeededShuffleTiebreak,
    build_tiebreak,
)
from repro.simnet import Environment


class TestSpecs:
    def test_fifo_builds_to_none(self):
        """FIFO maps to no policy at all (the environment's fast path)."""
        assert build_tiebreak(None) is None
        assert build_tiebreak({"kind": "fifo"}) is None

    def test_shuffle_round_trip(self):
        rebuilt = build_tiebreak({"kind": "shuffle", "seed": 7})
        assert isinstance(rebuilt, SeededShuffleTiebreak)
        assert rebuilt.seed == 7

    def test_adversarial_round_trip(self):
        rebuilt = build_tiebreak({"kind": "adversarial", "victim": "bpeer2"})
        assert isinstance(rebuilt, AdversarialDelayTiebreak)
        assert rebuilt.victim == "bpeer2"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_tiebreak({"kind": "chaos"})

    def test_adversarial_needs_victim(self):
        with pytest.raises(ValueError):
            AdversarialDelayTiebreak("")


class TestDeterminism:
    def test_shuffle_same_seed_same_ranks(self):
        """The whole point of the spec: rebuilds replay identically."""
        env = Environment()
        first = SeededShuffleTiebreak(11)
        second = SeededShuffleTiebreak(11)
        ranks = [first.key(env, False, None) for _ in range(50)]
        assert ranks == [second.key(env, False, None) for _ in range(50)]

    def test_shuffle_different_seed_different_ranks(self):
        env = Environment()
        a = [SeededShuffleTiebreak(1).key(env, False, None) for _ in range(20)]
        b = [SeededShuffleTiebreak(2).key(env, False, None) for _ in range(20)]
        assert a != b


class TestAdversarialKeying:
    def test_victim_events_lose_the_tiebreak(self):
        policy = AdversarialDelayTiebreak("victim-host")
        bystander = SimpleNamespace(
            active_process=SimpleNamespace(name="other-host/proc")
        )
        starved = SimpleNamespace(
            active_process=SimpleNamespace(name="victim-host/proc")
        )
        nobody = SimpleNamespace(active_process=None)
        assert policy.key(bystander, False, None) == 0
        assert policy.key(nobody, False, None) == 0
        assert policy.key(starved, False, None) > 0


class TestOrderingEffect:
    def test_shuffle_reorders_same_timestamp_events(self):
        """Two same-instant callbacks run in policy order, not FIFO order.

        Sampled over several seeds because any single seed may happen to
        draw the FIFO order; at least one of them must flip it.
        """

        def run_order(policy):
            env = Environment(tiebreak=policy)
            order = []

            def waiter(tag):
                yield env.timeout(1.0)
                order.append(tag)

            env.process(waiter("first-scheduled"))
            env.process(waiter("second-scheduled"))
            env.run(until=2.0)
            return order

        assert run_order(None) == ["first-scheduled", "second-scheduled"]
        flipped = [
            run_order(SeededShuffleTiebreak(seed))
            for seed in range(8)
        ]
        assert ["second-scheduled", "first-scheduled"] in flipped
