"""What a served request leaves behind: nothing (DESIGN.md §6.11).

Counts only, no timings.  A deployment is driven until every ring on the
request path is full, then — with the cyclic collector off, so that what
is counted is what the code itself lets go of — driven some more:

* no reference cycle is created (an evicted trace, a finished process and
  an answered wait all die by reference count);
* the number of GC-tracked objects does not grow with requests served;
* the event heap and every host's process list stay within twice their
  live content plus a constant.

The declared exceptions are audit / durable state: the ``SagaLog`` and the
backends' effect ledgers grow with the work done, and the dedup journals
fill up to ``journal_capacity``.
"""

from __future__ import annotations

import contextlib
import gc

from repro.check.saga import (
    SagaCheckScenario,
    build_loan_fleet,
    loan_saga,
    loan_saga_context,
)
from repro.core import ScenarioConfig, WhisperSystem
from repro.simnet.environment import _DEAD_SLACK, _is_dead
from repro.simnet.node import _PRUNE_SLACK
from repro.soap.client import SoapClient
from repro.workflow.saga import SagaLog, SagaOrchestrator


@contextlib.contextmanager
def cyclic_gc_off():
    """Start from a collected heap and keep the collector off."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _heap_within_bound(env) -> bool:
    """Dead deadline entries ≤ max(live entries, slack): the compaction
    rule, which holds whenever a wait has just been answered."""
    dead = sum(map(_is_dead, env._queue))
    return dead <= max(len(env._queue) - dead, _DEAD_SLACK)


def _longest_process_list(system) -> int:
    return max(len(node._processes) for node in system.network.hosts.values())


class TestReadsLeaveNothingBehind:
    FILL = 9000  # past every ring: 512 traces, 8 192 audit records
    MEASURED = 1000

    def test_steady_state_reads(self):
        system = WhisperSystem(ScenarioConfig(seed=42, replicas=4, students=200))
        service = system.deploy_student_service()
        system.settle()
        env = system.env
        client = system.network.add_host("footprint-client")
        soap = SoapClient(client, default_timeout=30.0)

        def reads(count):
            for index in range(count):
                student_id = f"S{index % 200 + 1:05d}"
                value = yield from soap.call(
                    service.address, service.path, "StudentInformation",
                    {"ID": student_id},
                )
                assert value["studentId"] == student_id
                assert _heap_within_bound(env)
                yield env.timeout(0.005)

        env.run(until=client.spawn(reads(self.FILL)))
        with cyclic_gc_off():
            tracked = len(gc.get_objects())
            env.run(until=client.spawn(reads(self.MEASURED)))
            grown = len(gc.get_objects()) - tracked
            unreachable = gc.collect()

        assert unreachable == 0  # not one reference cycle
        assert grown < self.MEASURED  # < 1 object per request (parent: 11)
        assert len(env._queue) <= 150  # parent: ≈ 4 000 dead deadlines
        # Twice the few processes alive at once, plus the slack; at the
        # parent the web host lists one process per request served.
        assert _longest_process_list(system) <= 4 * _PRUNE_SLACK
        assert len(system.trace.rtt_samples) == 8192
        assert len(system.obs.traces) == system.obs.traces.maxlen


class TestSagasLeaveNoCycles:
    WARMUP = 8  # both outcomes, so every operation's semantic match is memoised
    SAGAS = 300  # ≈ 1 000 proxy invocations: the trace ring turns over twice

    def test_loan_sagas(self):
        system = WhisperSystem(ScenarioConfig(seed=42))
        services, _fleet = build_loan_fleet(system, replicas=2)
        saga = loan_saga(services)
        log = SagaLog()
        host = system.network.add_host("footprint-saga-host")
        orchestrator = SagaOrchestrator(host, log=log)
        orchestrator.register(saga)
        system.settle()
        scenario = SagaCheckScenario(solvent_amount=0.01)

        def submit(first, count):
            for sequence in range(first, first + count):
                context = loan_saga_context(scenario, sequence)
                record = yield from orchestrator.execute(
                    saga, context, saga_id=f"loan-{sequence:06d}"
                )
                expected = "compensated" if context["insolvent"] else "committed"
                assert record.state == expected
                yield system.env.timeout(0.02)

        system.env.run(until=host.spawn(submit(0, self.WARMUP)))
        with cyclic_gc_off():
            system.env.run(until=host.spawn(submit(self.WARMUP, self.SAGAS)))
            unreachable = gc.collect()

        assert len(system.obs.traces) == system.obs.traces.maxlen
        assert unreachable == 0  # parent: 28 cyclic objects per saga
        assert _longest_process_list(system) <= 4 * _PRUNE_SLACK
        # What did grow is the audit record, one per saga.
        assert len(log.records()) == self.WARMUP + self.SAGAS


class TestIdleUptimeLeavesNoListeners:
    def test_resolver_listener_tables_do_not_grow_with_uptime(self):
        """Every roster refresh (one per group per 5 s, for ever) used to
        leave its response listener in the resolver's table: 2 → 22 → 42 on
        each b-peer after 0 / 100 / 200 idle seconds.  Now a refresh
        replaces the last one's listener, and every query-and-wait cancels
        its own on the way out."""
        system = WhisperSystem(ScenarioConfig(seed=42, replicas=4, students=200))
        service = system.deploy_student_service()
        system.settle()
        peers = [*service.group.peers, service.proxy, system.rendezvous]

        def tables():
            return [peer.resolver.listeners for peer in peers]

        settled = tables()
        system.run_until(system.env.now + 200.0)
        assert max(tables()) <= 2  # parent: 42 on every b-peer
        assert tables() == settled  # one per joined group, from the start
