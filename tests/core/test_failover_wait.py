"""A proxy does not re-send into a coordinator it has just seen fail
(DESIGN.md §6.13).  Counts only, no timings.

A timed-out attempt condemns the ``(coordinator, epoch)`` it went out
under.  Until the group can have elected a successor, a member's answer
naming that coordinator is hearsay: the proxy installs nothing on it and
the request waits for the new term.  The coordinator's own answer is news,
so a lost reply from a live coordinator costs one lookup.  A lookup nobody
answers takes the path it always took: breaker feedback and backoff.
"""

from __future__ import annotations

import pytest

from repro.core import ScenarioConfig, WhisperSystem
from repro.core.breaker import BreakerSpec
from repro.core.errors import CircuitOpenError, InvocationFailedError

#: The parked reads arrive within this many simulated seconds.
BURST = 0.02


def _deploy(seed: int, **config):
    system = WhisperSystem(ScenarioConfig(seed=seed, replicas=4, students=80, **config))
    service = system.deploy_student_service()
    system.settle()
    proxy, env = service.proxy, system.env
    env.run(until=proxy.node.spawn(_read(proxy, 0, [])))  # bind
    return system, service


def _read(proxy, index: int, results: list):
    student_id = f"S{index % 80 + 1:05d}"
    result = yield from proxy.invoke("StudentInformation", {"ID": student_id})
    assert result.value["studentId"] == student_id
    results.append(result)


def _record_installs(bindings):
    """Every binding the table installs from here on, in order."""
    installed = []
    install = bindings.install

    def recording(group_id, coordinator, address, epoch, heard=None):
        binding = install(group_id, coordinator, address, epoch, heard)
        installed.append((bindings.env.now, binding))
        return binding

    bindings.install = recording
    return installed


class TestACrashedCoordinatorGetsOneAttemptPerRead:
    @pytest.fixture(scope="class", params=[4, 64])
    def storm(self, request):
        parked = request.param
        system, service = _deploy(seed=2206)
        proxy, env = service.proxy, system.env
        dead = proxy.bindings.bound[service.group.group_id]
        installed = _record_installs(proxy.bindings)
        timeouts = proxy.stats.timeouts
        service.group.coordinator_peer().node.crash()
        results: list = []

        def arrivals():
            processes = []
            for index in range(parked):
                processes.append(proxy.node.spawn(_read(proxy, index, results)))
                yield env.timeout(BURST / parked)
            for process in processes:
                yield process

        env.run(until=proxy.node.spawn(arrivals()))
        return parked, dead, installed, results, proxy.stats.timeouts - timeouts

    def test_each_read_sends_one_attempt_into_the_dead_coordinator(self, storm):
        parked, _dead, _installed, results, timeouts = storm
        assert len(results) == parked
        assert timeouts == parked
        assert [result.attempts for result in results] == [2] * parked
        assert all(result.outcome.value == "recovered" for result in results)

    def test_the_first_binding_after_the_crash_is_the_new_term(self, storm):
        _parked, dead, installed, _results, _timeouts = storm
        assert installed, "the proxy never re-bound"
        first = installed[0][1]
        assert first.coordinator != dead.coordinator and first.epoch > dead.epoch
        assert all(
            (binding.coordinator, binding.epoch) != (dead.coordinator, dead.epoch)
            for _at, binding in installed
        )


def test_a_lost_reply_from_a_live_coordinator_costs_one_lookup():
    """The coordinator answers the lookup for itself: the retry goes back
    to it at once, without waiting for the detector bound."""
    system, service = _deploy(seed=2207)
    proxy, env = service.proxy, system.env
    group_id = service.group.group_id
    alive = proxy.bindings.bound[group_id]
    lost = []

    def drop_one_reply(point, message):
        if point == "pre-deliver" and message.category == "bpeer-reply" and not lost:
            lost.append(message)
            return "drop"
        return None

    system.network.add_hook(drop_one_reply)
    queries = proxy.resolver.queries_sent
    started = env.now
    results: list = []
    env.run(until=proxy.node.spawn(_read(proxy, 1, results)))
    (result,) = results
    assert lost and result.attempts == 2
    assert proxy.resolver.queries_sent == queries + 1
    rebound = proxy.bindings.bound[group_id]
    assert (rebound.coordinator, rebound.epoch) == (alive.coordinator, alive.epoch)
    assert group_id not in proxy.bindings.condemned
    # One request timeout, one lookup, one exchange: no wait for the bound.
    config = system.config
    assert result.duration < proxy.request_timeout + 1.0
    assert result.duration < config.heartbeat_interval * config.miss_threshold
    assert env.now - started == pytest.approx(result.duration)


def test_a_lookup_nobody_answers_feeds_the_breaker_and_backs_off():
    """Every replica crashed: the lookup after the timeout hears nothing,
    so no hearsay wait happens; each bind failure is a breaker failure and
    an attempt, as before the rule."""
    system, service = _deploy(
        seed=2208,
        circuit_breaker=BreakerSpec(window=32, min_calls=32),
        deadline_budget=8.0,
    )
    proxy, env = service.proxy, system.env
    outcomes = []
    resolve = proxy.bindings.resolve

    def recording(group_id, deadline):
        try:
            outcome = yield from resolve(group_id, deadline)
        except Exception as error:
            outcomes.append(type(error).__name__)
            raise
        outcomes.append(type(outcome).__name__)
        return outcome

    proxy.bindings.resolve = recording
    failures = []
    feedback = proxy._breaker_feedback

    def counting(scope, ok):
        if not ok:
            failures.append(scope)
        feedback(scope, ok)

    proxy._breaker_feedback = counting
    for peer in service.group.peers:
        peer.node.crash()
    errors = []

    def caller():
        try:
            yield from _read(proxy, 1, [])
        except (InvocationFailedError, CircuitOpenError) as error:
            errors.append(error)

    env.run(until=proxy.node.spawn(caller()))
    assert len(errors) == 1 and isinstance(errors[0], InvocationFailedError)
    assert outcomes and set(outcomes) == {"NoCoordinatorError"}
    # The timeout and every unanswered lookup each fed the breaker.
    assert len(failures) == 1 + len(outcomes)
    assert proxy.stats.timeouts == 1
