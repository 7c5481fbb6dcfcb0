"""The five workloads: what is deployed, what the clients send, what is correct.

A workload owns one freshly built :class:`WhisperSystem`, the simulated
client processes that load it, and the answer checks.  The workload seed
seeds both the request inputs (``random.Random(seed)`` here) and the
simulator's RNG streams (``ScenarioConfig.seed``); the system under test
receives nothing else from the benchmark.  Every other product setting is
left at its ``ScenarioConfig`` default unless the workload's table row in
README.md names it.

Clients are simulated hosts, so "4 closed-loop clients" costs no host
threads: the whole benchmark is one Python thread driving the simulator.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.backend.datasets import student_database
from repro.backend.services import (
    student_enrollment,
    student_lookup_operational,
    student_lookup_warehouse,
)
from repro.backend.warehouse import build_warehouse
from repro.check.invariants import (
    effect_totals,
    exactly_once_violations,
    rescache_violations,
    saga_atomicity_violations,
)
from repro.check.saga import (
    SagaCheckScenario,
    build_loan_fleet,
    loan_saga,
    loan_saga_context,
)
from repro.core.breaker import BreakerSpec
from repro.core.config import ScenarioConfig
from repro.core.rescache import ResultCacheSpec
from repro.core.system import WhisperSystem
from repro.soap.client import SoapClient
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault
from repro.soap.http import RequestTimeout
from repro.workflow.saga import SagaLog, SagaOrchestrator
from repro.wsdl.samples import student_admin_wsdl

__all__ = ["WORKLOADS", "Recorder", "Workload"]

CLIENTS = 4
THINK_TIME = 0.02
#: Client-side SOAP timeout: wider than the proxy's own retry budget
#: would ever need on these workloads, so a slow failover is *measured*
#: (as tail latency) rather than cut off and counted as a failure.
CALL_TIMEOUT = 30.0
#: A long-lived deployment always runs with a full dedup journal, and a
#: full journal costs more per request than a filling one (README.md,
#: "steady state"), so every run soaks past capacity before timing starts.
JOURNAL_CAPACITY = ScenarioConfig().journal_capacity
JOURNAL_SOAK = int(JOURNAL_CAPACITY * 1.1) + 1
#: One request in this many gets its envelopes sized and, in a traced
#: run, its spans kept.
SAMPLE_EVERY = 100


@dataclass
class Recorder:
    """What the clients observed, cumulatively since the system was built."""

    attempted: int = 0
    #: Replies that passed the workload's answer check.
    ok: int = 0
    #: The same, per operation.
    ok_by_operation: Counter = field(default_factory=Counter)
    #: SOAP faults + timeouts + sheds.
    failed: int = 0
    #: Replies that arrived but failed the answer check (sagas: ended in
    #: another state than the applicant's solvency calls for).
    wrong: int = 0
    #: Simulated seconds per correct reply, in completion order.
    latencies: List[float] = field(default_factory=list)
    envelope_samples: int = 0
    envelope_bytes_req: int = 0
    envelope_bytes_resp: int = 0

    @property
    def completed(self) -> int:
        return self.ok + self.failed + self.wrong


class Workload:
    """Closed-loop SOAP clients against one deployed service (the base)."""

    name = ""
    why = ""
    #: Requests completed inside ``setup_s``: enough for bindings, the
    #: advertisement and result caches, QoS profiles and the first election.
    warmup = 200
    #: Requests completed before the timed window opens; the stretch
    #: after ``warmup`` ages the deployment (fills its journals) and is
    #: timed separately, so ``setup_s`` stays sensitive to deploy-time work.
    soak = JOURNAL_SOAK
    #: ``--smoke`` soak (the only smoke run past journal capacity is
    #: ``read_seed``'s).
    smoke_soak = 250
    #: Simulated seconds per measured slice.
    slice_sim = 1.0
    #: The timed window, in simulated seconds per 10 s of ``--seconds``:
    #: sized once so the window costs 10–12 host seconds on the box this
    #: was written on, then frozen (README.md, "The window").
    window_sim = 55.0
    #: The shortest window, in slices, however small ``--seconds`` is.
    min_slices = 4
    #: A whole untraced run at ``--seconds 10`` — five set-ups, soak,
    #: window, drain, audit — in host seconds on that box (median of
    #: twenty, rounded up); what the driver's total time is budgeted on.
    run_budget_s = 19.0
    #: The ``SagaLog``, on the workload that drives sagas.
    log = None

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.rec = Recorder()
        self.stopping = False
        #: Traced runs set this to the layer tracer; a sampled request
        #: brackets itself with ``begin_request`` / ``end_request``.
        self.tracer = None
        self._sequence = itertools.count()
        self._clients: List[Any] = []
        self.system = WhisperSystem(self.config())
        self.env = self.system.env
        self.deploy()
        self.system.settle()
        self.start_clients()

    # -- what a subclass defines ---------------------------------------------------

    def config(self) -> ScenarioConfig:
        return ScenarioConfig(seed=self.seed)

    def deploy(self) -> None:
        self.service = self.system.deploy_student_service()
        self.rows = _student_rows(self.system.config.students)

    def next_request(self, sequence: int) -> Tuple[str, Dict[str, Any], Any]:
        """``(operation, arguments, expectation)`` for request ``sequence``."""
        student_id = f"S{self.rng.randrange(len(self.rows)) + 1:05d}"
        return "StudentInformation", {"ID": student_id}, student_id

    def correct(self, operation: str, expectation: Any, value: Any) -> bool:
        if operation == "EnrollStudent":
            student_id, course = expectation
            return (
                value["studentId"] == student_id
                and course in value["enrolledCourses"]
            )
        row = self.rows[expectation]
        return (
            value["studentId"] == expectation
            and value["name"] == row["name"]
            and value["degree"] == row["degree"]
            and value["email"] == row["email"]
        )

    def audit(self) -> List[str]:
        """Post-run invariant violations (empty = correct)."""
        return []

    # -- public state the runner reads -----------------------------------------------

    def services(self) -> List[Any]:
        return [self.service]

    def peers(self) -> List[Any]:
        return [peer for service in self.services() for peer in service.all_peers()]

    def crash_outages(self) -> List[float]:
        """Per injected crash, simulated seconds without service."""
        return []

    # -- load ------------------------------------------------------------------------

    def start_clients(self) -> None:
        for index in range(CLIENTS):
            node = self.system.network.add_host(f"bench-client-{index}")
            soap = SoapClient(node, default_timeout=CALL_TIMEOUT)
            self._clients.append(
                node.spawn(self._client_loop(soap), name=f"bench-client-{index}")
            )

    def _client_loop(self, soap: SoapClient):
        while not self.stopping:
            yield from self._one_call(soap, self.env.now)
            yield self.env.timeout(THINK_TIME)

    def _one_call(self, soap: SoapClient, due: float):
        """One SOAP request, timed from ``due``; records the outcome."""
        rec = self.rec
        sequence = next(self._sequence)
        operation, arguments, expectation = self.next_request(sequence)
        sampled = sequence % SAMPLE_EVERY == 0
        if sampled and self.tracer is not None:
            self.tracer.begin_request(sequence, self.env)
        rec.attempted += 1
        value = None
        try:
            value = yield from soap.call(
                self.service.address, self.service.path, operation, arguments
            )
        except (SoapFault, RequestTimeout):
            rec.failed += 1
        else:
            if self.correct(operation, expectation, value):
                rec.ok += 1
                rec.ok_by_operation[operation] += 1
                rec.latencies.append(self.env.now - due)
                self.on_correct_reply(due)
            else:
                rec.wrong += 1
        if sampled:
            if self.tracer is not None:
                self.tracer.end_request(sequence, self.system, due)
            if value is not None:
                rec.envelope_samples += 1
                rec.envelope_bytes_req += len(
                    Envelope.call(operation, arguments).to_xml()
                )
                rec.envelope_bytes_resp += len(
                    Envelope.result(operation, value).to_xml()
                )

    def on_correct_reply(self, due: float) -> None:
        pass

    def begin_faults(self) -> None:
        """Called when the timed window opens; only ``failover_open`` has any."""

    def drain(self) -> None:
        """Stop issuing requests and run until none is in flight."""
        self.stopping = True
        for process in self._clients:
            self.env.run(until=process)


def _student_rows(count: int) -> Dict[str, Dict[str, Any]]:
    table = student_database(count).table("students")
    return {row["student_id"]: row for row in table}


class ReadSeed(Workload):
    name = "read_seed"
    why = (
        "Seed config, closed-loop StudentInformation reads over SOAP: the paper's "
        "Figure-4/RTT path, where soap and simnet do the work and every opt-in "
        "feature must cost nothing."
    )
    smoke_soak = JOURNAL_SOAK


#: Enrolments draw their course from a fixed catalogue so a student's row
#: (and therefore the reply envelope) stops growing once warm: every
#: request is still a distinct mutating invocation under its own
#: idempotency key, which is all the journal and the effect ledger see.
_COURSE_CATALOGUE = [f"BX{index:03d}" for index in range(16)]


def _enrollment_audit(peers, acknowledged: int) -> List[str]:
    """Every acknowledged enrolment is in the effect ledgers exactly once."""
    violations = exactly_once_violations(peers)
    ledgered = len(effect_totals(peers))
    if ledgered != acknowledged:
        violations.append(
            f"{acknowledged} enrolments acknowledged but {ledgered} "
            f"distinct effects ledgered"
        )
    return violations


class WriteJournal(Workload):
    name = "write_journal"
    why = (
        "Same deployment shape serving mutating EnrollStudent calls: journal "
        "begin/complete, eager journal broadcast and the commit barrier, so a read "
        "speed-up bought by weakening journal work shows here."
    )

    window_sim = 23.0
    run_budget_s = 22.0

    def deploy(self) -> None:
        scenario = self.system.config
        self.service = self.system.deploy_service(
            student_admin_wsdl(),
            {
                "EnrollStudent": [
                    student_enrollment(student_database(scenario.students))
                    for _ in range(scenario.replicas)
                ]
            },
            web_host="web0",
        )
        self.students = scenario.students

    def next_request(self, sequence: int) -> Tuple[str, Dict[str, Any], Any]:
        student_id = f"S{sequence % self.students + 1:05d}"
        course = _COURSE_CATALOGUE[
            (sequence // self.students + self.rng.randrange(2))
            % len(_COURSE_CATALOGUE)
        ]
        return (
            "EnrollStudent",
            {"ID": student_id, "course": course},
            (student_id, course),
        )

    def audit(self) -> List[str]:
        return _enrollment_audit(
            self.peers(), self.rec.ok_by_operation["EnrollStudent"]
        )


class FailoverOpen(Workload):
    name = "failover_open"
    why = (
        "Open-loop Poisson reads that keep arriving while the coordinator is crashed "
        "every cycle: election, failure detector, resolver and proxy rebind/retry do "
        "the work; the multi-second tail is counted."
    )
    RATE = 50.0
    #: One crash per cycle; a slice is one whole cycle, so every measured
    #: window holds a whole number of outages.
    CYCLE = 20.0
    DOWNTIME = 6.0
    slice_sim = CYCLE
    window_sim = 9 * CYCLE
    min_slices = 2
    run_budget_s = 16.0
    smoke_soak = 1000

    def start_clients(self) -> None:
        self._outstanding = 0
        self._crashes: List[List[Optional[float]]] = []
        self._injector = self.system.network.add_host("bench-injector")
        self._clients.append(
            self._injector.spawn(self._arrivals(), name="bench-arrivals")
        )

    def begin_faults(self) -> None:
        """Arm the crash schedule: warm-up is crash-free."""
        self._clients.append(
            self._injector.spawn(self._crash_cycle(), name="bench-crashes")
        )

    def _arrivals(self):
        """Poisson arrivals, conditioned on ``RATE`` in every simulated
        second: that many seeded uniform instants per second, so every
        window of whole seconds is offered exactly the same load."""
        soap = SoapClient(self._injector, default_timeout=CALL_TIMEOUT)
        per_second = int(self.RATE)
        while True:
            second = self.env.now
            for offset in sorted(self.rng.random() for _ in range(per_second)):
                yield self.env.timeout(max(0.0, second + offset - self.env.now))
                if self.stopping:
                    return
                self._outstanding += 1
                self._injector.spawn(self._arrival(soap), name="bench-call")
            yield self.env.timeout(max(0.0, second + 1.0 - self.env.now))

    def _arrival(self, soap: SoapClient):
        try:
            yield from self._one_call(soap, self.env.now)
        finally:
            self._outstanding -= 1

    def _crash_cycle(self):
        """Crash whoever coordinates now, 1–5 s into each cycle.

        The schedule is the workload's, not the seed's: how long a group
        is without a coordinator depends on where in the failure
        detector's period the crash lands, and nine crashes are too few
        to average that out (seeded offsets moved msgs_per_req by 2–3 %
        between seeds, fixed ones by 0.5 %).  The offsets are a
        golden-ratio sequence, which spreads any number of cycles evenly
        over the interval.
        """
        phase = 0.0
        while not self.stopping:
            cycle_start = self.env.now
            phase = (phase + 0.6180339887498949) % 1.0
            offset = 1.0 + phase * 4.0
            yield self.env.timeout(offset)
            if self.stopping:
                return
            victim = self.service.group.coordinator_peer()
            if victim is not None:
                self.system.failures.crash_for(
                    self.env.now, victim.node.name, self.DOWNTIME
                )
                self._crashes.append([self.env.now, None])
            yield self.env.timeout(cycle_start + self.CYCLE - self.env.now)

    def on_correct_reply(self, due: float) -> None:
        # Time without service: crash → first correct reply to a request
        # that was *sent after* the crash.
        if self._crashes:
            crash = self._crashes[-1]
            if crash[1] is None and due >= crash[0]:
                crash[1] = self.env.now - crash[0]

    def crash_outages(self) -> List[float]:
        return [outage for _, outage in self._crashes if outage is not None]

    def drain(self) -> None:
        self.stopping = True
        for process in self._clients:
            self.env.run(until=process)
        while self._outstanding > 0:
            self.env.run(until=self.env.now + 1.0)

    def audit(self) -> List[str]:
        unanswered = sum(1 for _, outage in self._crashes if outage is None)
        if unanswered:
            return [f"{unanswered} crashes were never followed by a reply"]
        return []


class _Zipf:
    """Ranks 0..n-1 with probability ∝ 1/(rank+1)^s."""

    def __init__(self, n: int, s: float):
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        self._cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(
            self._cumulative, rng.random() * self._cumulative[-1]
        )


class LadderFull(Workload):
    name = "ladder_full"
    why = (
        "Every opt-in feature on (4 shards, load sharing, least-outstanding dispatch, "
        "queue bound, breaker, result cache), 90% Zipf-skewed reads and 10% "
        "cache-flushing writes: prices the feature ladder."
    )
    #: Every tenth request is a write (which one of the ten is seeded),
    #: so every run flushes the cache equally often.
    WRITE_EVERY = 10
    #: Tuned once so core.rescache.hit_ratio lands in 0.4–0.6, then frozen.
    ZIPF_S = 1.9
    window_sim = 70.0
    run_budget_s = 18.0

    def config(self) -> ScenarioConfig:
        return ScenarioConfig(
            seed=self.seed,
            shards=4,
            load_sharing=True,
            dispatch="least-outstanding",
            queue_bound=8,
            circuit_breaker=BreakerSpec(),
            result_cache=ResultCacheSpec(capacity=256, staleness_bound=2.0),
            students=2000,
        )

    def deploy(self) -> None:
        scenario = self.system.config

        def lookups(shard_index: int):
            # deploy_student_service's alternating flavours, per shard.
            warehouse = build_warehouse(student_database(scenario.students))
            return [
                student_lookup_warehouse(warehouse)
                if scenario.warehouse_every
                and index % scenario.warehouse_every == 1
                else student_lookup_operational(student_database(scenario.students))
                for index in range(scenario.replicas)
            ]

        def enrollments(shard_index: int):
            return [
                student_enrollment(student_database(scenario.students))
                for _ in range(scenario.replicas)
            ]

        self.service = self.system.deploy_service(
            student_admin_wsdl(),
            {"StudentInformation": lookups, "EnrollStudent": enrollments},
            web_host="web0",
        )
        self.rows = _student_rows(scenario.students)
        self._zipf = _Zipf(scenario.students, self.ZIPF_S)
        self._write_phase = self.rng.randrange(self.WRITE_EVERY)

    def next_request(self, sequence: int) -> Tuple[str, Dict[str, Any], Any]:
        student_id = f"S{self._zipf.draw(self.rng) + 1:05d}"
        if sequence % self.WRITE_EVERY == self._write_phase:
            course = self.rng.choice(_COURSE_CATALOGUE)
            return (
                "EnrollStudent",
                {"ID": student_id, "course": course},
                (student_id, course),
            )
        return "StudentInformation", {"ID": student_id}, student_id

    def audit(self) -> List[str]:
        enrol_peers = [
            peer
            for group in self.service.shard_groups_for("EnrollStudent")
            for peer in group.peers
        ]
        return _enrollment_audit(
            enrol_peers, self.rec.ok_by_operation["EnrollStudent"]
        ) + rescache_violations(self.service.proxy)


class SagaLoan(Workload):
    name = "saga_loan"
    why = (
        "Three-step loan sagas (every 4th applicant insolvent, so compensated) from "
        "one SagaOrchestrator straight through the proxies: workflow engine, saga "
        "log, multi-step mutating calls, no SOAP hop."
    )
    #: BookLoan runs for the solvent 3/4 of sagas, so its group's journals
    #: are the last of the forward path to fill (the compensation groups'
    #: would take 16 000 sagas and stay in the filling regime).
    soak = int(JOURNAL_CAPACITY / 0.75 * 1.03)
    window_sim = 23.0
    run_budget_s = 28.0
    #: Solvent amounts are tiny so no applicant's credit ever drains: the
    #: committed:compensated split stays 3:1 however long the run is.
    SCENARIO = SagaCheckScenario(solvent_amount=0.01)

    def deploy(self) -> None:
        self._services, _ = build_loan_fleet(self.system, replicas=2)
        self.saga = loan_saga(self._services)
        self.log = SagaLog()
        host = self.system.network.add_host("bench-saga-host")
        self.orchestrator = SagaOrchestrator(host, log=self.log)
        self.orchestrator.register(self.saga)

    def services(self) -> List[Any]:
        return list(self._services.values())

    def start_clients(self) -> None:
        host = self.orchestrator.node
        for index in range(CLIENTS):
            self._clients.append(
                host.spawn(self._submitter(), name=f"bench-submitter-{index}")
            )

    def _submitter(self):
        rec = self.rec
        while not self.stopping:
            sequence = next(self._sequence)
            context = loan_saga_context(self.SCENARIO, sequence)
            expected = "compensated" if context["insolvent"] else "committed"
            sampled = sequence % SAMPLE_EVERY == 0 and self.tracer is not None
            started = self.env.now
            if sampled:
                self.tracer.begin_request(sequence, self.env)
            rec.attempted += 1
            record = yield from self.orchestrator.execute(
                self.saga, context, saga_id=f"loan-{sequence:06d}"
            )
            if record.state == expected:
                rec.ok += 1
                rec.latencies.append(record.elapsed)
            else:
                rec.wrong += 1
            if sampled:
                self.tracer.end_request(sequence, self.system, started)
            yield self.env.timeout(THINK_TIME)

    def audit(self) -> List[str]:
        violations = saga_atomicity_violations(self.log, self.peers(), final=True)
        states = [record.state for record in self.log.records()]
        insolvent = sum(
            1
            for sequence in range(len(states))
            if loan_saga_context(self.SCENARIO, sequence)["insolvent"]
        )
        committed = states.count("committed")
        compensated = states.count("compensated")
        if (committed, compensated) != (len(states) - insolvent, insolvent):
            violations.append(
                f"{committed} committed / {compensated} compensated, expected "
                f"{len(states) - insolvent} / {insolvent} from the input mix"
            )
        return violations


WORKLOADS = {
    workload.name: workload
    for workload in (ReadSeed, WriteJournal, FailoverOpen, LadderFull, SagaLoan)
}
