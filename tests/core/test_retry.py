"""Unit tests for the deadline-budgeted retry primitives."""

import random

import pytest

from repro.core import Deadline, RetryPolicy, ScenarioConfig, WhisperSystem
from repro.core.errors import InvocationFailedError


class TestRetryPolicy:
    def test_without_jitter_delays_are_exact_exponential(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=2.0, jitter=0.0)
        rng = random.Random(1)
        delays = [policy.delay(attempt, rng) for attempt in range(6)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6, 2.0])

    def test_max_delay_caps_the_raw_backoff(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=3.0, jitter=0.0)
        assert policy.delay(5, random.Random(1)) == 3.0

    def test_jitter_stays_within_fraction_of_raw(self):
        policy = RetryPolicy(base_delay=0.5, multiplier=1.0, max_delay=5.0, jitter=0.4)
        rng = random.Random(7)
        for _ in range(200):
            delay = policy.delay(0, rng)
            assert 0.5 * (1 - 0.4) <= delay <= 0.5 * (1 + 0.4)

    def test_seeded_rng_makes_delays_reproducible(self):
        policy = RetryPolicy()
        first = [policy.delay(i, random.Random(99)) for i in range(5)]
        second = [policy.delay(i, random.Random(99)) for i in range(5)]
        assert first == second


class TestDeadline:
    def test_remaining_counts_down_and_floors_at_zero(self):
        deadline = Deadline(at=10.0)
        assert deadline.remaining(4.0) == 6.0
        assert deadline.remaining(10.0) == 0.0
        assert deadline.remaining(15.0) == 0.0

    def test_expired_is_inclusive(self):
        deadline = Deadline(at=10.0)
        assert not deadline.expired(9.999)
        assert deadline.expired(10.0)
        assert deadline.expired(11.0)

    def test_clamp_caps_phase_timeouts_to_budget(self):
        deadline = Deadline(at=10.0)
        assert deadline.clamp(0.0, 3.0) == 3.0
        assert deadline.clamp(8.0, 3.0) == 2.0
        assert deadline.clamp(12.0, 3.0) == 0.0


class TestProxyDeadline:
    def test_invoke_fails_fast_when_budget_exhausted(self):
        """With every replica down, the proxy must give up once the
        request budget runs out — not after a fixed attempt count."""
        system = WhisperSystem(ScenarioConfig(seed=77, heartbeat_interval=0.5, miss_threshold=2))
        service = system.deploy_student_service(
            system.config.replace(replicas=3, deadline_budget=3.0)
        )
        system.settle(6.0)
        for peer in service.group.peers:
            peer.node.crash()
        proxy = service.proxy
        started = system.env.now
        outcome = {}

        def runner():
            try:
                result = yield from proxy.invoke("StudentInformation", {"ID": "S00001"})
                outcome["value"] = result.value
            except Exception as error:  # noqa: BLE001 - captured for assertions
                outcome["error"] = error

        system.env.run(until=proxy.node.spawn(runner()))
        elapsed = system.env.now - started
        assert isinstance(outcome["error"], InvocationFailedError)
        assert "deadline" in str(outcome["error"])
        assert proxy.stats.deadline_exhausted == 1
        # Gave up close to the budget, not after max_attempts * timeout.
        assert 2.0 <= elapsed <= 6.0
