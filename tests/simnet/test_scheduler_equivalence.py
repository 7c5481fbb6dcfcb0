"""Determinism guard: the kernel's fast forms == the plain heap.

One rule selects how ``Environment`` runs (``simnet/environment.py``):
while no ``TiebreakPolicy`` is installed, current-instant events bypass
the heap through FIFO deques, ``Store.push`` schedules no ``StorePut``
and a ``Wait`` deadline is a bare heap entry; under a policy every event
goes through the heap in ``(time, urgency, key, seq)`` order, ``push`` is
``put`` and the deadline is a real ``Timeout``.  ``FifoTiebreak()`` keys
every event alike, so under it the heap orders by scheduling sequence
alone — the seed kernel — and that is the oracle: checker replay files
and every seeded benchmark assume the fast forms never change what a
process observes.  Pinned on seeds 7/11/42 at three levels:

* a mixed kernel workload (colliding timers, zero-delay chains, store
  handshakes, fire-and-forget pushes, waits on both sides of their
  deadline, reverse-order interrupts) — identical process-visible logs
  and final clock;
* full-stack checker runs (``run_schedule``) — the baseline schedule with
  no policy and with ``FifoTiebreak()`` installed gives one
  ``RunResult.digest()``, the fingerprint replay files verify;
* full deployments — byte-identical request-trace JSON, metrics, message
  counters and records, RNG stream states and final clock for read,
  ``shards=2``, write and coordinator-crash runs
  (``TestFastFormsMatchExpandedForms``).
"""

from __future__ import annotations

import random
import re

import pytest

from repro.backend import student_database, student_enrollment
from repro.bench import ClosedLoopWorkload
from repro.check import CheckScenario, Schedule, run_schedule
from repro.check import explorer as explorer_module
from repro.check.tiebreak import FifoTiebreak
from repro.core import ScenarioConfig, WhisperSystem
from repro.core import system as system_module
from repro.simnet import Environment
from repro.simnet.events import EXPIRED, Interrupt, Wait
from repro.simnet.queues import Store
from repro.wsdl import student_admin_wsdl

SEEDS = (7, 11, 42)


def _deploy_under(monkeypatch, tiebreak):
    """Make the next ``WhisperSystem`` build its kernel with ``tiebreak``."""
    monkeypatch.setattr(
        system_module, "Environment", lambda: Environment(tiebreak=tiebreak)
    )


def _run_mixed_kernel(seed: int, tiebreak=None):
    """A workload hitting every scheduling shape; returns (log, final clock).

    ``log`` is what the processes observed, and when.  All randomness is
    drawn up-front from ``seed`` so the two runs compare apples to apples.
    """
    rng = random.Random(seed)
    delays = [
        [rng.choice((0.0, 0.001, 0.001, 0.002, 0.005)) for _ in range(30)]
        for _ in range(6)
    ]
    env = Environment(tiebreak=tiebreak)
    log = []
    store_a, store_b = Store(env), Store(env)
    parking = Store(env)  # never filled: sleepers park here until the storm
    inbox = Store(env)

    def ticker(index: int):
        for step, delay in enumerate(delays[index]):
            yield env.timeout(delay)
            log.append((env.now, f"tick{index}.{step}"))

    def producer():
        for step in range(20):
            store_a.put(("job", step))
            item = yield store_b.get()
            log.append((env.now, f"prod{step}:{item[1]}"))

    def consumer():
        for step in range(20):
            item = yield store_a.get()
            yield env.timeout(0.001 if step % 3 else 0.0)
            store_b.put(("ack", item[1]))
            log.append((env.now, f"cons{step}"))

    def sleeper(index: int):
        try:
            yield parking.get() if index % 2 else env.timeout(60.0)
            log.append((env.now, f"sleeper{index}:woke"))
        except Interrupt as interrupt:
            log.append((env.now, f"sleeper{index}:{interrupt.cause}"))

    def dispatcher():
        # Fire-and-forget hand-offs: to a parked getter, onto a queue the
        # worker has not come back to yet, and two in one instant.
        for step in range(12):
            inbox.push(("work", step))
            if step % 4 == 0:
                inbox.push(("work", step + 100))
            yield env.timeout(0.001 if step % 2 else 0.0)

    def worker():
        for step in range(15):
            item = yield inbox.get()
            log.append((env.now, f"work{step}:{item[1]}"))
            if step % 5 == 4:
                yield env.timeout(0.002)

    def waiter(index: int):
        # Waits answered before, at and after their deadline, a zero-delay
        # one, and one abandoned to an interrupt while it is still armed.
        try:
            for step, (answer_in, deadline) in enumerate(
                ((0.001, 0.005), (0.002, 0.002), (0.005, 0.001), (0.001, 0.0), (60.0, 90.0))
            ):
                answer = env.timeout(answer_in, value=f"answer{step}")
                outcome = yield Wait(env, answer, deadline)
                log.append(
                    (env.now, f"wait{index}.{step}:"
                     f"{'expired' if outcome is EXPIRED else outcome}")
                )
        except Interrupt as interrupt:
            log.append((env.now, f"waiter{index}:{interrupt.cause}"))

    def interrupter(victims):
        yield env.timeout(0.0131)
        # Reverse order on purpose: the adversarial order for waiter
        # cancellation, and interrupts take the priority (urgent) lane.
        for victim in reversed(victims):
            if victim.is_alive:
                victim.interrupt("storm")
        log.append((env.now, "storm-sent"))

    processes = [env.process(ticker(i)) for i in range(6)]
    processes += [env.process(producer()), env.process(consumer())]
    processes += [env.process(dispatcher()), env.process(worker())]
    sleepers = [env.process(sleeper(i)) for i in range(8)]
    sleepers += [env.process(waiter(i)) for i in range(2)]
    processes.append(env.process(interrupter(sleepers)))
    for process in processes + sleepers:
        env.run(until=process)
    env.run()  # drain orphaned timeouts deterministically
    return log, env.now


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_event_order_and_log_identical(self, seed):
        # The log is timestamped and appended in dispatch order, so equal
        # logs mean every process-visible event ran in the same order.
        assert _run_mixed_kernel(seed) == _run_mixed_kernel(seed, tiebreak=FifoTiebreak())

    def test_zero_underflow_delay_keeps_seed_order(self):
        # A positive delay tiny enough that now + delay == now must still
        # be processed in seq order with genuinely-zero delays (the seed
        # semantics), not fast-pathed ahead of or behind them.
        def run(tiebreak):
            env = Environment(tiebreak=tiebreak)
            log = []

            def driver():
                yield env.timeout(1.0)
                for index in range(6):
                    delay = 1e-18 if index % 2 else 0.0
                    event = env.timeout(delay, value=index)
                    event.add_callback(
                        lambda ev: log.append((env.now, ev._value))
                    )
                yield env.timeout(1.0)

            env.run(until=env.process(driver()))
            return log

        assert run(None) == run(FifoTiebreak()) == [(1.0, i) for i in range(6)]


def _run_wait_storm(tiebreak=None, until=None):
    """Request/reply traffic as the SOAP hop produces it: waits with a 30 s
    deadline answered within milliseconds (so the heap is compacted again
    and again), every seventh call a short wait that expires, one caller
    interrupted while parked.  Returns what the processes saw, the final
    clock, the event count, the instants the answered waits were armed at
    and the largest heap seen.
    """
    env = Environment(tiebreak=tiebreak)
    log, armed, heap_sizes = [], [], []

    def caller(index: int):
        for step in range(150):
            try:
                armed.append(env.now)
                reply = env.timeout(0.001 * (1 + (index + step) % 3), value=step)
                outcome = yield Wait(env, reply, 30.0)
                log.append((env.now, f"call{index}.{step}:{outcome}"))
                if step % 7 == index:
                    outcome = yield Wait(env, env.event(), 0.0025)
                    log.append((env.now, f"call{index}.{step}:{outcome!r}"))
            except Interrupt as interrupt:
                # The abandoned wait still fires, with nobody listening.
                log.append((env.now, f"call{index}.{step}:{interrupt.cause}"))
            heap_sizes.append(len(env._queue))

    def interrupter(victim):
        yield env.timeout(0.1502)
        victim.interrupt("storm")

    callers = [env.process(caller(index)) for index in range(4)]
    env.process(interrupter(callers[2]))
    env.run(until=until)
    return log, env.now, env.events_processed, armed, max(heap_sizes)


class TestCompactionEquivalence:
    """The heap rebuilt without its dead deadline entries pops the rest in
    the order the full heap would have (``Environment.deadline_answered``)."""

    def test_run_to_exhaustion(self):
        log, now, events, armed, heap = _run_wait_storm()
        want_log, want_now, want_events, want_armed, _ = _run_wait_storm(FifoTiebreak())
        assert len(armed) >= 500 and armed == want_armed
        assert heap <= 2 * 8 + 64  # compaction fired: ≤ 8 live, 600 answered
        assert (log, now) == (want_log, want_now)
        assert sum(line.endswith(":storm") for _, line in log) == 1
        assert sum(line.endswith(":<EXPIRED>") for _, line in log) >= 80
        # The only difference: one dead timer dispatched per answered wait.
        assert want_events - events == len(armed)

    def test_run_until_a_deadline_in_the_middle(self):
        until = 30.2
        log, now, events, armed, _ = _run_wait_storm(until=until)
        want_log, want_now, want_events, _, _ = _run_wait_storm(FifoTiebreak(), until)
        assert (log, now) == (want_log, want_now) and now == until
        dispatched = sum(1 for at in armed if at + 30.0 < until)
        assert 0 < dispatched < len(armed)
        assert want_events - events == dispatched


class TestFullStackEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_checker_digest_identical(self, monkeypatch, seed):
        scenario = CheckScenario(
            seed=seed, settle=4.0, probe_duration=4.0, cooldown=4.0
        )
        baseline = Schedule(label="baseline")
        fast = run_schedule(scenario, baseline).digest()
        # ``build_tiebreak`` maps a FIFO spec to "no policy"; install the
        # real one so the same schedule runs through the heap.
        monkeypatch.setattr(explorer_module, "build_tiebreak", lambda spec: FifoTiebreak())
        assert run_schedule(scenario, baseline).digest() == fast

    @pytest.mark.parametrize("seed", SEEDS)
    def test_obs_traces_byte_identical(self, monkeypatch, seed):
        def run(tiebreak):
            _deploy_under(monkeypatch, tiebreak)
            system = WhisperSystem(ScenarioConfig(seed=seed, replicas=2, students=20))
            service = system.deploy_student_service()
            system.settle()
            ClosedLoopWorkload(
                system, service.address, service.path, "StudentInformation",
                clients=2, think_time=0.05, requests_per_client=4,
            ).run()
            return (
                system.obs.traces_to_json(),
                system.obs.to_json(),
                system.trace.snapshot(),
            )

        assert run(None) == run(FifoTiebreak())


_CLIENT_HOST = re.compile(r"^(client-\d+)-\d+$")


def _records(trace):
    """Detailed message records, minus what is global to the process:
    message ids and the workload counter in client host names."""

    def address(addr):
        return [_CLIENT_HOST.sub(r"\1", addr[0]), addr[1]]

    return [
        (r.time, r.event, r.category, address(r.src), address(r.dst), r.size_bytes)
        for r in trace.records
    ]


def _deploy_read(system):
    return system.deploy_student_service(), "StudentInformation", None, False


def _enroll_arguments(index):
    return {"ID": f"S{index % 20 + 1:05d}", "course": "CS101"}


def _deploy_write(system):
    config = system.config
    service = system.deploy_service(
        student_admin_wsdl(),
        {
            "EnrollStudent": [
                student_enrollment(student_database(config.students))
                for _ in range(config.replicas)
            ]
        },
        web_host="web0",
    )
    return service, "EnrollStudent", _enroll_arguments, False


def _deploy_crash(system):
    return system.deploy_student_service(), "StudentInformation", None, True


class TestFastFormsMatchExpandedForms:
    """No policy (fast forms) == ``FifoTiebreak`` (expanded forms)."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "config, deploy",
        [
            (dict(replicas=2), _deploy_read),
            (dict(replicas=2, shards=2), _deploy_read),
            (dict(replicas=3), _deploy_write),
            (dict(replicas=3), _deploy_crash),
        ],
        ids=["read", "shards2", "write", "coordinator-crash"],
    )
    def test_deployment_identical(self, monkeypatch, seed, config, deploy):
        def run(tiebreak):
            _deploy_under(monkeypatch, tiebreak)
            system = WhisperSystem(
                ScenarioConfig(seed=seed, students=20, record_trace_details=True, **config)
            )
            service, operation, arguments, crash = deploy(system)
            system.settle()
            workload = ClosedLoopWorkload(
                system, service.address, service.path, operation,
                clients=2, think_time=0.05, requests_per_client=4, arguments=arguments,
            )
            if crash:
                victim = service.group.coordinator_peer().node.name
                system.failures.crash_at(system.env.now + 0.08, victim)
            result = workload.run()
            system.settle(2.0)
            assert result.successes == 8
            return (
                system.obs.traces_to_json(),
                system.trace.snapshot(),
                system.env.now,
                {
                    name: stream.getstate()
                    for name, stream in system.network.rng._streams.items()
                },
                _records(system.trace),
            ), system.env.events_processed

        fast, fast_events = run(None)
        expanded, expanded_events = run(FifoTiebreak())
        for got, want in zip(fast, expanded):
            assert got == want
        # The only difference: the events nobody listens to are gone.
        assert fast_events < expanded_events


def test_steady_state_read_costs_at_most_17_kernel_events():
    """Counted, not timed: 4 arrivals, 5 gets, 2 waits, ``done``, think
    time, backend and 2 process events per read — no ``StorePut``, no
    dead guard timer (23 before them), plus the heartbeat share."""
    system = WhisperSystem(ScenarioConfig(seed=42))
    service = system.deploy_student_service()
    system.settle()

    def reads(count):
        workload = ClosedLoopWorkload(
            system, service.address, service.path, "StudentInformation",
            clients=1, think_time=0.01, requests_per_client=count,
        )
        assert workload.run().successes == count

    reads(20)
    before = system.env.events_processed
    reads(200)
    assert (system.env.events_processed - before) / 200 <= 17
