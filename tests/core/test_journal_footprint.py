"""One journal entry object per invocation per group (DESIGN.md §6.11, §6.20).

Counts only, no timings and no MiB.  A ``DONE`` entry is never written
again, so the coordinator ships the entry itself and every member installs
what it was sent: the group's journals share one object per invocation.
A journal that copied what it shipped or installed would hold four objects
per write on this four-replica group.  The protocol's records carry no instance
``__dict__`` either.
"""

from __future__ import annotations

import pytest

from repro.core import ScenarioConfig, WhisperSystem
from repro.core.bpeer import ExecReply, ExecRequest
from repro.core.journal import JournalEntry
from repro.workflow.saga import SagaRecord, StepRecord

REPLICAS = 4
WRITES = 200


def _done_entries(service):
    """Every ``DONE`` entry held across the deployment's journals."""
    return [
        entry
        for group in service.all_groups()
        for peer in group.peers
        for entry in peer.journal._entries.values()
        if entry.done
    ]


def test_a_group_holds_one_done_entry_object_per_invocation():
    system = WhisperSystem(ScenarioConfig(seed=42, replicas=REPLICAS))
    service = system.deploy_enrollment_service()
    system.settle()
    node, soap = system.add_client("journal-footprint-client", timeout=30.0)

    def writes(start, count):
        def calls():
            for index in range(start, start + count):
                course = f"C{index:04d}"
                value = yield from soap.call(
                    service.address, service.path, "EnrollStudent",
                    {"ID": "S00001", "course": course},
                )  # fmt: skip
                assert course in value["enrolledCourses"]
                yield system.env.timeout(0.005)

        system.env.run(until=node.spawn(calls()))

    writes(0, 5)  # warm-up
    writes(5, WRITES)
    entries = _done_entries(service)
    invocations = {entry.invocation_id for entry in entries}
    assert len(invocations) >= WRITES
    # Every member holds every write (the parent: one copy per member).
    assert len(entries) == REPLICAS * len(invocations)
    assert len({id(entry) for entry in entries}) == len(invocations)


@pytest.mark.parametrize("record", [ExecRequest, ExecReply, JournalEntry, SagaRecord, StepRecord])
def test_protocol_records_carry_no_instance_dict(record):
    assert not hasattr(record.__new__(record), "__dict__")
