"""End-to-end exactly-once invocation: dedup journal across failover.

The acceptance scenario for the exactly-once layer: a mutating enrollment
call executes once, its result is replicated through the group's dedup
journal, and a retry carrying the same idempotency key — to the same
coordinator or to a freshly elected one after a crash — is answered from
the journal (``InvokeResult.deduped``) instead of mutating the backend
again.  The negative control needs no switch: a retry whose DONE entry
was evicted from the bounded journal double-applies, and the
exactly-once audit catches it.
"""

import itertools

import pytest

from repro.backend.datasets import student_database
from repro.backend.services import student_enrollment
from repro.check.invariants import exactly_once_violations
from repro.core import ScenarioConfig, WhisperSystem
from repro.wsdl.samples import student_admin_wsdl

REPLICAS = 4


def _build(seed=1206):
    system = WhisperSystem(
        ScenarioConfig(seed=seed, heartbeat_interval=0.5, miss_threshold=2)
    )
    implementations = [
        student_enrollment(student_database(50)) for _ in range(REPLICAS)
    ]
    service = system.deploy_service(
        student_admin_wsdl(),
        {"EnrollStudent": implementations},
        web_host="web0",
    )
    system.settle(6.0)
    return system, service


@pytest.fixture
def deployment():
    return _build()


def _invoke(system, service, arguments, **kwargs):
    outcome = {}

    def runner():
        try:
            result = yield from service.invoke("EnrollStudent", arguments, **kwargs)
            outcome["result"] = result
        except Exception as error:  # noqa: BLE001 - captured for assertions
            outcome["error"] = error

    system.env.run(until=service.proxy.node.spawn(runner()))
    assert "error" not in outcome, outcome.get("error")
    return outcome["result"]


def _replay_same_invocation(proxy):
    """Rig the proxy to mint invocation id #1 again — a client-level retry
    of the first logical call, reusing its idempotency key."""
    proxy._invocation_ids = itertools.chain([1], itertools.count(2))


def _effect_counts(service):
    counts = {}
    for peer in service.group.peers:
        backend = peer.implementation.backend
        for invocation_id, _peer_name in backend.effect_log:
            counts[invocation_id] = counts.get(invocation_id, 0) + 1
    return counts


class TestDedupOnRetry:
    def test_retry_to_live_coordinator_is_deduped(self, deployment):
        system, service = deployment
        first = _invoke(system, service, {"ID": "S00001", "course": "C101"})
        assert not first.deduped
        assert "C101" in first.value["enrolledCourses"]

        _replay_same_invocation(service.proxy)
        retry = _invoke(system, service, {"ID": "S00001", "course": "C101"})
        assert retry.deduped
        assert retry.invocation_id == first.invocation_id
        assert retry.value == first.value
        assert service.proxy.stats.deduped == 1
        # The backend mutated exactly once across both calls.
        assert _effect_counts(service) == {first.invocation_id: 1}

    def test_mutating_result_replicated_to_members(self, deployment):
        system, service = deployment
        result = _invoke(system, service, {"ID": "S00002", "course": "C200"})
        system.settle(1.0)  # let the eager broadcast land
        holders = [
            peer
            for peer in service.group.peers
            if result.invocation_id in peer.journal
            and peer.journal.lookup(result.invocation_id).done
        ]
        assert len(holders) == len(service.group.peers)

    def test_retry_after_coordinator_crash_is_deduped(self, deployment):
        system, service = deployment
        first = _invoke(system, service, {"ID": "S00003", "course": "C300"})
        old_coordinator = service.group.coordinator_peer()
        system.settle(1.0)

        old_coordinator.node.crash()
        system.settle(10.0)  # re-election + journal push
        successor = service.group.coordinator_peer()
        assert successor is not None and successor is not old_coordinator

        _replay_same_invocation(service.proxy)
        retry = _invoke(system, service, {"ID": "S00003", "course": "C300"})
        assert retry.deduped
        assert retry.value == first.value
        # No second side effect anywhere in the group, the crashed
        # replica included.
        assert _effect_counts(service) == {first.invocation_id: 1}


class TestEvictionNegativeControl:
    """The audit has teeth: an evicted DONE entry degrades its invocation
    back to at-least-once (``journal.py``), and the retry double-applies."""

    @staticmethod
    def _enrol_a_then_b_then_replay_a(capacity):
        system, service = _build()
        for peer in service.group.peers:
            peer.journal.capacity = capacity
        first = _invoke(system, service, {"ID": "S00001", "course": "C101"})
        # B's entry evicts A's DONE entry wherever the capacity is 1.
        _invoke(system, service, {"ID": "S00002", "course": "C102"})
        system.settle(1.0)  # let B's eager broadcast land
        _replay_same_invocation(service.proxy)
        retry = _invoke(system, service, {"ID": "S00001", "course": "C101"})
        assert retry.invocation_id == first.invocation_id
        return service, retry

    def test_evicted_entry_double_applies(self):
        service, retry = self._enrol_a_then_b_then_replay_a(capacity=1)
        assert not retry.deduped
        (violation,) = exactly_once_violations(service.all_peers())
        assert f"invocation {retry.invocation_id} applied 2 times" in violation

        service, retry = self._enrol_a_then_b_then_replay_a(capacity=4096)
        assert retry.deduped
        assert exactly_once_violations(service.all_peers()) == []
