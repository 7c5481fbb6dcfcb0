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
        system.settle(10.0)  # re-election + takeover sync
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


def _enrol_many(system, service, count):
    """``count`` enrollments, one after another, each a new invocation."""
    return [
        _invoke(system, service, {"ID": f"S{index + 1:05d}", "course": f"C{index}"})
        for index in range(count)
    ]


class TestRelayedWrite:
    """§4.1's takeover with the coordinator's backend down: a relay
    delegate executes each write, so only that delegate completes it.  The
    coordinator installs the entry the relay reply carries back, and the
    proxy gets a result that is not a replay."""

    WRITES = 20

    def test_a_relayed_write_is_completed_once(self):
        system, service = _build()
        service.group.coordinator_peer().implementation.backend.fail()
        results = _enrol_many(system, service, self.WRITES)
        system.settle(1.0)
        counters = system.obs.metrics.counters
        assert [result.deduped for result in results] == [False] * self.WRITES
        assert service.proxy.stats.deduped == 0
        assert "bpeer.duplicate_suppressed" not in counters
        # One journal fan-out per write: to the other three members.
        assert counters["bpeer.journal_replicated"].value == (REPLICAS - 1) * self.WRITES
        assert _effect_counts(service) == {result.invocation_id: 1 for result in results}


class TestTakeoverTransfer:
    """A new coordinator gets the group's journal once: each survivor's
    DONE entries reach it in the one export that answers its takeover
    pull (``journal-sync-reply``), and in no second copy."""

    WRITES = 10

    def test_each_survivor_ships_its_entries_to_the_winner_once(self):
        system, service = _build()
        results = _enrol_many(system, service, self.WRITES)
        system.settle(1.0)
        old_coordinator = service.group.coordinator_peer()
        shipped = []  # (sender, receiver, mode, invocation ids)

        def recording(peer, tell):
            def tell_and_record(member, payload, size_bytes):
                entries = [part for part in payload if isinstance(part, list)]
                if entries:
                    ids = [entry.invocation_id for entry in entries[0]]
                    shipped.append((peer.peer_id, member, payload[0], ids))
                return tell(member, payload, size_bytes)

            return tell_and_record

        for peer in service.group.peers:
            peer.exactly_once.tell = recording(peer, peer.exactly_once.tell)
        old_coordinator.node.crash()
        system.settle(10.0)
        winner = service.group.coordinator_peer()
        assert winner is not None and winner is not old_coordinator
        written = sorted(result.invocation_id for result in results)
        survivors = [
            peer for peer in service.group.peers if peer not in (old_coordinator, winner)
        ]
        assert len(survivors) == REPLICAS - 2
        for survivor in survivors:
            to_winner = [
                (mode, sorted(ids))
                for sender, receiver, mode, ids in shipped
                if sender == survivor.peer_id and receiver == winner.peer_id
            ]
            assert to_winner == [("journal-sync-reply", written)]
