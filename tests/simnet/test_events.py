"""Unit tests for the event primitives."""

import pytest

from repro.check.tiebreak import FifoTiebreak, SeededShuffleTiebreak
from repro.simnet import Environment
from repro.simnet.environment import _DEAD_SLACK, _is_dead
from repro.simnet.events import (
    EXPIRED,
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Timeout,
    Wait,
)


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_new_event_is_untriggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_sets_exception(self, env):
        event = env.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_double_succeed_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_succeed_after_fail_raises(self, env):
        event = env.event()
        event.fail(ValueError("x"))
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("hello")
        env.run()
        assert seen == ["hello"]
        assert event.processed

    def test_add_callback_after_processing_raises(self, env):
        event = env.event()
        event.succeed()
        env.run()
        with pytest.raises(SimulationError):
            event.add_callback(lambda e: None)


class TestTimeout:
    def test_fires_at_deadline(self, env):
        timeout = env.timeout(5.0, value="done")
        result = env.run(until=timeout)
        assert result == "done"
        assert env.now == 5.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, env):
        timeout = env.timeout(0.0, value=1)
        env.run(until=timeout)
        assert env.now == 0.0

    def test_timeouts_fire_in_order(self, env):
        order = []
        for delay in (3.0, 1.0, 2.0):
            t = env.timeout(delay, value=delay)
            t.add_callback(lambda e: order.append(e.value))
        env.run()
        assert order == [1.0, 2.0, 3.0]


class TestConditions:
    def test_anyof_fires_on_first(self, env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(5.0, value="slow")
        any_of = AnyOf(env, [fast, slow])
        result = env.run(until=any_of)
        assert fast in result
        assert slow not in result
        assert env.now == 1.0

    def test_allof_waits_for_all(self, env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(5.0, value="slow")
        all_of = AllOf(env, [fast, slow])
        result = env.run(until=all_of)
        assert result[fast] == "fast"
        assert result[slow] == "slow"
        assert env.now == 5.0

    def test_empty_condition_fires_immediately(self, env):
        condition = AllOf(env, [])
        assert condition.triggered

    def test_condition_with_failed_event_fails(self, env):
        event = env.event()
        any_of = AnyOf(env, [event, env.timeout(10.0)])
        event.fail(RuntimeError("inner"))
        with pytest.raises(RuntimeError, match="inner"):
            env.run(until=any_of)

    def test_condition_over_already_processed_event(self, env):
        done = env.timeout(1.0, value="x")
        env.run(until=done)
        any_of = AnyOf(env, [done, env.timeout(10.0)])
        env.run(until=any_of)
        # The processed event satisfies the condition without waiting.
        assert env.now == 1.0

    def test_mixing_environments_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AnyOf(env, [env.timeout(1), other.timeout(1)])


def _waiter(env, log, source, delay):
    """A process that records what its ``Wait`` resumed it with, and when."""

    def body():
        try:
            outcome = yield Wait(env, source, delay)
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            outcome = exc
        log.append((env.now, outcome))

    return env.process(body())


@pytest.fixture(
    params=[None, "fifo", "shuffle"],
    ids=["fast", "fifo-policy", "shuffle-policy"],
)
def any_env(request):
    """Every kernel form a ``Wait`` runs under: bare deadline entries
    with no policy installed and real ``Timeout``s under one."""
    policy = {None: None, "fifo": FifoTiebreak(), "shuffle": SeededShuffleTiebreak(3)}
    return Environment(tiebreak=policy[request.param])


class TestWait:
    def test_source_first(self, any_env):
        env, log = any_env, []
        _waiter(env, log, env.timeout(1.0, value="answer"), 5.0)
        env.run()
        assert log == [(1.0, "answer")]
        # The dead deadline still moves the clock, as the dead timer did.
        assert env.now == 5.0

    def test_deadline_first(self, any_env):
        env, log = any_env, []
        source = env.timeout(5.0, value="late")
        _waiter(env, log, source, 1.0)
        env.run()
        assert log == [(1.0, EXPIRED)]
        assert source.processed  # nobody cancels the source

    def test_failed_source_reraises_in_the_waiter(self, any_env):
        env, log = any_env, []
        source = env.event()
        _waiter(env, log, source, 5.0)
        error = RuntimeError("inner")
        source.fail(error)
        env.run()
        assert log == [(0.0, error)]

    def test_source_already_processed(self, any_env):
        env, log = any_env, []
        done = env.timeout(1.0, value="x")
        env.run(until=done)
        _waiter(env, log, done, 10.0)
        env.run()
        assert log == [(1.0, "x")]

    def test_zero_delay_expires_in_the_current_instant(self, any_env):
        env, log = any_env, []
        _waiter(env, log, env.event(), 0.0)
        env.run()
        assert log == [(0.0, EXPIRED)]

    def test_zero_delay_loses_to_an_already_triggered_source(self, env):
        # FIFO: the source was scheduled before the deadline, so it wins,
        # as it did against ``env.timeout(0)`` under ``AnyOf``.
        log = []
        source = env.event()
        source.succeed("first")
        _waiter(env, log, source, 0.0)
        env.run()
        assert log == [(0.0, "first")]

    def test_an_answered_wait_dispatches_no_timer(self, env):
        wait = Wait(env, env.timeout(1.0), 5.0)
        env.run()
        assert wait.processed and wait.value is None
        assert env.events_processed == 2  # the source and the wait
        expanded = Environment(tiebreak=FifoTiebreak())
        Wait(expanded, expanded.timeout(1.0), 5.0)
        expanded.run()
        assert expanded.events_processed == 3 and expanded.now == env.now == 5.0

    def test_step_and_peek_see_deadline_entries(self, env):
        # ``step`` shares ``run``'s rule: a dead entry is skipped, not
        # counted; a live one is the expiry event.
        answered = Wait(env, env.timeout(1.0), 2.0)
        expiring = Wait(env, env.event(), 2.0)
        env.step()  # the source
        env.step()  # ``answered``
        assert answered.processed and env.peek() == 2.0
        env.step()  # skips the dead entry, dispatches the live one
        assert env.now == 2.0 and expiring.triggered
        env.step()
        assert expiring.value is EXPIRED and env.events_processed == 4

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Wait(env, env.event(), -1.0)

    def test_mixing_environments_rejected(self, env):
        with pytest.raises(SimulationError):
            Wait(env, Environment().event(), 1.0)

    def test_policy_installed_after_the_deadline_was_armed(self, env):
        # The checker deploys first and installs its policy afterwards:
        # entries pushed bare are popped under the policy.
        log = []
        _waiter(env, log, env.timeout(3.0, value="answer"), 4.0)
        _waiter(env, log, env.event(), 4.0)
        env.run(until=2.0)
        env.tiebreak = SeededShuffleTiebreak(5)
        _waiter(env, log, env.event(), 0.5)  # armed under the policy
        env.run()
        assert log == [(2.5, EXPIRED), (3.0, "answer"), (4.0, EXPIRED)]


def _dead_entries(env):
    return sum(map(_is_dead, env._queue))


class TestDeadlineCompaction:
    """Answered waits' deadline entries never outnumber the live heap."""

    CALLS = 10_000

    def _storm(self, env, heap_sizes):
        def caller():
            for _ in range(self.CALLS):
                yield Wait(env, env.timeout(0.001), 30.0)
                heap_sizes.append(len(env._queue))

        return env.process(caller())

    def test_answered_waits_do_not_pile_up_on_the_heap(self, env):
        heap_sizes = []
        env.run(until=self._storm(env, heap_sizes))
        # Live at any time: at most the one pending answer.
        assert max(heap_sizes) <= 2 * 1 + _DEAD_SLACK
        assert env._dead_deadlines == _dead_entries(env) == len(env._queue)
        assert env.events_processed == 2 * self.CALLS + 2  # no timer dispatched
        env.run()
        # Dry: the clock stands where the last dropped deadline fell.
        assert env.now == pytest.approx(self.CALLS * 0.001 + 30.0 - 0.001)
        assert env._dead_deadlines == 0 and not env._queue
        assert env.events_processed == 2 * self.CALLS + 2

    def test_clock_runs_dry_where_the_expanded_form_leaves_it(self):
        clocks = []
        for tiebreak in (None, FifoTiebreak()):
            env = Environment(tiebreak=tiebreak)
            self._storm(env, [])
            env.run()
            clocks.append(env.now)
        assert clocks[0] == clocks[1]

    def test_a_wait_answered_after_compaction_is_counted_once(self, env):
        log, late = [], env.event()
        _waiter(env, log, late, 60.0)  # armed first, pending throughout
        env.run(until=self._storm(env, []))
        assert env._dead_deadlines == _dead_entries(env) == len(env._queue) - 1
        late.succeed("late")
        env.step()  # ``late`` is processed: the wait is answered
        assert env._dead_deadlines == _dead_entries(env) == len(env._queue)
        env.run()
        # Answered once, never expired: its entry was dropped at 60 s.
        assert log == [(pytest.approx(self.CALLS * 0.001), "late")]
        assert env.now == 60.0 and env._dead_deadlines == 0 and not env._queue

    def test_an_expiring_wait_survives_compaction(self, env):
        log = []
        _waiter(env, log, env.event(), 20.0)
        env.run(until=self._storm(env, []))
        env.run()
        assert log == [(20.0, EXPIRED)]
        assert env._dead_deadlines == 0
