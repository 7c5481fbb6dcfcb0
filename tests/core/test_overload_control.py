"""Unit tests for admission control: queue bounds, shedding, retry-after."""

import pytest

from repro.core import InvokeOutcome, ScenarioConfig, WhisperSystem
from repro.soap import SoapFault


def _flood(system, proxy, count):
    """Fire ``count`` simultaneous invocations; collect per-call outcomes."""
    outcomes = [{} for _ in range(count)]
    processes = []
    for index in range(count):
        def runner(slot=outcomes[index], index=index):
            try:
                result = yield from proxy.invoke(
                    "StudentInformation",
                    {"ID": f"S{index % 20 + 1:05d}"},
                )
                slot["result"] = result
            except Exception as error:  # noqa: BLE001 - captured for assertions
                slot["error"] = error

        processes.append(proxy.node.spawn(runner()))
    for process in processes:
        system.env.run(until=process)
    return outcomes


class TestQueueBoundShedding:
    def test_full_queue_sheds_with_busy_fault(self):
        """Admissions beyond the bound are refused with Server.Busy and a
        retry-after hint; with one attempt the proxy surfaces the fault."""
        system = WhisperSystem(
            ScenarioConfig(seed=2001, replicas=1, queue_bound=2, max_attempts=1)
        )
        service = system.deploy_student_service()
        system.settle(6.0)

        outcomes = _flood(system, service.proxy, 10)
        served = [o for o in outcomes if "result" in o]
        busy = [
            o["error"]
            for o in outcomes
            if isinstance(o.get("error"), SoapFault) and o["error"].is_busy
        ]
        assert served, "the bounded queue must still serve admitted work"
        assert busy, "overflow must surface as Server.Busy at the client"
        assert all(fault.retry_after is not None for fault in busy)
        assert all(fault.retry_after > 0 for fault in busy)
        assert service.group.total_requests_shed() == len(busy)
        assert service.proxy.stats.shed == len(busy)

    def test_unbounded_queue_never_sheds(self):
        system = WhisperSystem(ScenarioConfig(seed=2003, replicas=1))
        service = system.deploy_student_service()
        system.settle(6.0)

        outcomes = _flood(system, service.proxy, 10)
        assert all("result" in o for o in outcomes)
        assert service.group.total_requests_shed() == 0
        assert service.proxy.stats.shed == 0

    def test_shed_metrics_are_recorded(self):
        system = WhisperSystem(
            ScenarioConfig(seed=2005, replicas=1, queue_bound=1, max_attempts=1)
        )
        service = system.deploy_student_service()
        system.settle(6.0)
        _flood(system, service.proxy, 8)

        metrics = system.network.obs.metrics
        assert metrics.counter("bpeer.shed").value > 0
        assert metrics.counter("proxy.shed").value > 0
        depth = metrics.histograms.get("bpeer.queue_depth")
        assert depth is not None and depth.count > 0


class TestRetryAfterHonored:
    def test_busy_retry_waits_hint_and_succeeds(self):
        """A shed request retries after the coordinator's hint and ends
        with the RETRIED_AFTER_SHED outcome, not an error."""
        system = WhisperSystem(
            ScenarioConfig(seed=2011, replicas=1, queue_bound=1, max_attempts=8)
        )
        service = system.deploy_student_service()
        system.settle(6.0)

        outcomes = _flood(system, service.proxy, 6)
        assert all("result" in o for o in outcomes), outcomes
        results = [o["result"] for o in outcomes]
        retried = [r for r in results if r.outcome is InvokeOutcome.RETRIED_AFTER_SHED]
        assert retried, "contention must force at least one busy retry"
        assert all(r.shed_retries >= 1 for r in retried)
        assert all(r.attempts >= 2 for r in retried)
        assert service.proxy.stats.retry_after_honored >= len(retried)
        counter = system.network.obs.metrics.counter("proxy.retry_after_honored")
        assert counter.value > 0

    def test_deadline_clamps_busy_retry(self):
        """With a budget smaller than the backlog drain time the proxy
        gives up with a terminal Server.Busy that carries the last hint."""
        system = WhisperSystem(
            ScenarioConfig(
                seed=2013, replicas=1, queue_bound=1, max_attempts=8,
                deadline_budget=0.050,
            )
        )
        service = system.deploy_student_service()
        system.settle(6.0)
        (warm,) = _flood(system, service.proxy, 1)  # warm discovery + binding caches
        assert "result" in warm, warm
        # Slow backend: one request occupies the worker for 100ms, far
        # beyond the 50ms budget of the victims queued behind it.
        for peer in service.group.peers:
            peer.implementation.service_time = 0.100

        outcomes = _flood(system, service.proxy, 5)
        busy = [
            o["error"]
            for o in outcomes
            if isinstance(o.get("error"), SoapFault) and o["error"].is_busy
        ]
        assert busy, "expired budgets during busy backoff must fail terminally"
        assert all(fault.retry_after is not None for fault in busy)
        # Honored sleeps were clamped to the remaining budget, so no
        # victim overshot its deadline by a full hint.
        assert system.env.now < 7.0
