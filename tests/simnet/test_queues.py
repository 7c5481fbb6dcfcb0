"""Unit tests for Store."""

from collections import deque

import pytest

from repro.check.tiebreak import FifoTiebreak
from repro.simnet import Environment, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get_fifo(self, env):
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        got = []

        def consumer():
            for _ in range(3):
                got.append((yield store.get()))

        env.run(until=env.process(consumer()))
        assert got == [1, 2, 3]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer():
            got.append((yield store.get()))
            got.append(env.now)

        def producer():
            yield env.timeout(3.0)
            store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == ["late", 3.0]

    def test_multiple_waiters_served_in_order(self, env):
        store = Store(env)
        got = []

        def consumer(tag):
            item = yield store.get()
            got.append((tag, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1.0)
            store.put("a")
            store.put("b")

        env.process(producer())
        env.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_len_reports_queued_items(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        env.run()
        assert len(store) == 2


class TestTombstoneCancellation:
    """Cancellation is an O(1) tombstone, skipped in ``Store._trigger``."""

    def test_cancelled_get_never_served(self, env):
        store = Store(env)
        first, second = store.get(), store.get()
        first.cancel()
        got = []

        def consumer():
            got.append((yield second))

        env.process(consumer())
        store.put("item")
        env.run()
        assert got == ["item"]
        assert not first.triggered

    def test_cancel_is_flag_not_removal(self, env):
        store = Store(env)
        events = [store.get() for _ in range(4)]
        events[1].cancel()
        events[2].cancel()
        # Tombstones stay queued until they surface at the head...
        assert len(store._get_waiters) == 4
        assert events[1].cancelled and events[2].cancelled
        store.put("a")
        store.put("b")
        env.run()
        # ...then the head scan drops them without serving them.
        assert events[0].value == "a" and events[3].value == "b"
        assert not events[1].triggered and not events[2].triggered
        assert len(store._get_waiters) == 0

    def test_cancel_after_trigger_is_noop(self, env):
        store = Store(env)
        store.put("item")
        getter = store.get()
        env.run()
        assert getter.triggered
        getter.cancel()
        assert not getter.cancelled
        assert getter.value == "item"

    def test_interrupted_waiter_leaves_item_for_live_waiter(self, env):
        # The orphaned-getter semantics the seed's cancel protected:
        # interrupting a parked process must not let a later put vanish
        # into its abandoned getter.
        from repro.simnet.events import Interrupt

        store = Store(env)
        got = []

        def doomed():
            try:
                yield store.get()
            except Interrupt:
                pass

        def survivor():
            got.append((yield store.get()))

        doomed_process = env.process(doomed())

        def driver():
            yield env.timeout(1.0)
            env.process(survivor())
            yield env.timeout(1.0)
            doomed_process.interrupt("crash")
            yield env.timeout(1.0)
            store.put("payload")

        env.process(driver())
        env.run()
        assert got == ["payload"]

    def test_reverse_order_storm_searches_no_queue(self, env):
        # Counted, not timed: a crashing host interrupts W parked waiters
        # newest-first, the order in which a ``deque.remove`` per cancel is
        # O(W) each and the storm quadratic.  Tombstones never search.
        from repro.simnet.events import Interrupt

        class CountingDeque(deque):
            removes = 0

            def remove(self, value):
                CountingDeque.removes += 1
                super().remove(value)

        store = Store(env)
        store._get_waiters = CountingDeque()
        got = []

        def waiter(index):
            try:
                got.append((index, (yield store.get())))
            except Interrupt:
                pass

        doomed = [env.process(waiter(index)) for index in range(4000)]
        env.process(waiter("survivor"))
        env.run(until=1.0)
        assert len(store._get_waiters) == 4001
        for process in reversed(doomed):
            process.interrupt("storm")
        env.run(until=2.0)
        store.put("payload")
        env.run()
        assert CountingDeque.removes == 0
        assert got == [("survivor", "payload")]
        assert len(store._get_waiters) == 0


class TestPush:
    """``push`` is ``put`` minus the event nobody listens to."""

    @staticmethod
    def _consume(env, store, count, got):
        def consumer():
            for _ in range(count):
                got.append(((yield store.get()), env.now))

        return env.process(consumer())

    def test_hands_the_item_to_a_parked_getter(self, env):
        store, got = Store(env), []
        self._consume(env, store, 1, got)
        env.run()  # the consumer parks
        before = env.events_processed
        store.push("item")
        assert len(store) == 0 and not store._get_waiters
        env.run()
        assert got == [("item", 0.0)]
        # The getter, the consumer's process event: no ``StorePut``.
        assert env.events_processed - before == 2

    def test_skips_a_cancelled_getter_at_the_head(self, env):
        store = Store(env)
        dead, live = store.get(), store.get()
        dead.cancel()
        store.push("item")
        env.run()
        assert live.value == "item" and not dead.triggered
        assert not store._get_waiters

    def test_only_cancelled_getters_queues_the_item(self, env):
        store = Store(env)
        store.get().cancel()
        store.push("kept")
        assert list(store.items) == ["kept"] and not store._get_waiters

    def test_queues_behind_items_already_there(self, env):
        store, got = Store(env), []
        store.put("a")
        store.push("b")
        store.push("c")
        self._consume(env, store, 3, got)
        env.run()
        assert [item for item, _ in got] == ["a", "b", "c"]

    def test_same_order_and_instants_as_put(self):
        def run(use_push):
            env, got = Environment(), []
            store = Store(env)

            def producer():
                for step in range(6):
                    (store.push if use_push else store.put)(step)
                    if step % 2:
                        yield env.timeout(1.0)

            self._consume(env, store, 6, got)
            env.process(producer())
            env.run()
            return got, env.events_processed

        pushed, pushed_events = run(True)
        put, put_events = run(False)
        assert pushed == put
        assert put_events - pushed_events == 6  # one ``StorePut`` each

    def test_under_a_policy_it_is_put(self):
        env = Environment(tiebreak=FifoTiebreak())
        store = Store(env)
        store.push("item")
        env.run()
        assert env.events_processed == 1  # the ``StorePut``
        assert list(store.items) == ["item"]
