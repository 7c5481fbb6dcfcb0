"""What a served request re-derives: nothing fixed at deploy time (DESIGN.md §6.18).

Calls are counted by patching, not timed.  After a warm-up that binds every
metric handle, 200 ``StudentInformation`` reads and 50 ``EnrollStudent``
writes through SOAP, the Web service, the proxy and the b-peer group call
none of:

* ``Operation.annotation`` / ``Definitions.operations`` — the service table
  is built once, by the constructor pass that validates it;
* the creating path of ``MetricsRegistry.counter`` / ``.histogram`` — every
  metric a request records already exists;
* ``Span.walk`` — a finished trace is folded over its child lists;
* ``dataclasses.replace`` — the canonical journal reply is a direct copy.

Each patch is checked to count a direct call afterwards, so a zero means
"not called", not "patched the wrong name".
"""

from __future__ import annotations

import collections
import dataclasses
import sys

import pytest

from repro.backend import student_database, student_enrollment, student_lookup_operational
from repro.core import ScenarioConfig, WhisperSystem
from repro.core.bpeer import ExecReply
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span
from repro.wsdl import student_admin_wsdl
from repro.wsdl.definitions import Definitions, Operation

READS, WRITES = 200, 50


def _counting(calls, key, function, when=None):
    def wrapper(*args, **kwargs):
        if when is None or when(*args):
            calls[key] += 1
        return function(*args, **kwargs)

    return wrapper


def _patch_counters(monkeypatch, calls):
    for owner, name in (
        (Operation, "annotation"),
        (Definitions, "operations"),
        (Span, "walk"),
    ):
        key = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, _counting(calls, key, getattr(owner, name)))
    monkeypatch.setattr(MetricsRegistry, "counter", _counting(
        calls, "MetricsRegistry.counter (creating)", MetricsRegistry.counter,
        when=lambda registry, name, *rest: name not in registry.counters,
    ))
    monkeypatch.setattr(MetricsRegistry, "histogram", _counting(
        calls, "MetricsRegistry.histogram (creating)", MetricsRegistry.histogram,
        when=lambda registry, name, *rest: name not in registry.histograms,
    ))
    # ``from dataclasses import replace`` binds the function into each
    # importing module: patch every binding, not only the module's own.
    original = dataclasses.replace
    counted = _counting(calls, "dataclasses.replace", original)
    for module in list(sys.modules.values()):
        if getattr(module, "replace", None) is original:
            monkeypatch.setattr(module, "replace", counted)


@pytest.fixture(scope="module")
def deployment():
    system = WhisperSystem(ScenarioConfig(seed=42, replicas=4))
    database = student_database()
    service = system.deploy_service(
        student_admin_wsdl(),
        {
            "StudentInformation": [student_lookup_operational(database) for _ in range(4)],
            "EnrollStudent": [student_enrollment(database) for _ in range(4)],
        },
    )
    system.settle()
    node, soap = system.add_client("bookkeeping-client", timeout=30.0)

    def drive(reads, writes, start):
        def calls():
            for index in range(start, start + reads):
                student_id = f"S{index % 200 + 1:05d}"
                value = yield from soap.call(
                    service.address, service.path, "StudentInformation", {"ID": student_id}
                )
                assert value["studentId"] == student_id
                yield system.env.timeout(0.005)
            for index in range(start, start + writes):
                course = f"C{index:04d}"
                value = yield from soap.call(
                    service.address, service.path, "EnrollStudent",
                    {"ID": "S00001", "course": course},
                )
                assert course in value["enrolledCourses"]
                yield system.env.timeout(0.005)

        system.env.run(until=node.spawn(calls()))

    drive(20, 5, start=0)  # warm-up: every handle bound, every match memoised
    return system, service, drive


#: Python-level calls into ``core/bpeer.py`` and ``core/journal.py`` together
#: per served request, as measured on this fixture before the exactly-once
#: protocol moved out of ``BPeer`` into ``core/journal.py`` (DESIGN.md §6.20).
#: The two files are summed because code moved between them.
MAX_CALLS_PER_READ = 39.06
MAX_CALLS_PER_WRITE = 111.08
_COUNTED_FILES = ("core/bpeer.py", "core/journal.py")


def _calls_per_file(run):
    """Python-level frames (generator resumes included) ``run`` enters in
    each counted file."""
    calls = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call":
            filename = frame.f_code.co_filename.replace("\\", "/")
            if filename.endswith(_COUNTED_FILES):
                calls[filename.rsplit("/", 1)[-1]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_served_requests_cost_no_more_bpeer_and_journal_calls(deployment):
    system, _service, drive = deployment
    reads = _calls_per_file(lambda: drive(READS, 0, start=2000))
    writes = _calls_per_file(lambda: drive(0, WRITES, start=3000))
    assert sum(reads.values()) / READS <= MAX_CALLS_PER_READ, reads
    assert sum(writes.values()) / WRITES <= MAX_CALLS_PER_WRITE, writes


def test_served_requests_rederive_nothing(deployment, monkeypatch):
    system, service, drive = deployment
    served_before = system.obs.metrics.counters["requests.ok"].value
    calls = collections.Counter()
    _patch_counters(monkeypatch, calls)

    drive(READS, WRITES, start=1000)

    assert system.obs.metrics.counters["requests.ok"].value - served_before == READS + WRITES
    assert {key: count for key, count in calls.items() if count} == {}

    # Positive control: each patch counts a direct call.
    service.sws.definitions.operations()
    service.sws.definitions.single_interface().operation("EnrollStudent").annotation()
    list(Span("probe", 0.0).walk())
    system.obs.metrics.counter("bookkeeping.probe")
    system.obs.metrics.histogram("bookkeeping.probe")
    sys.modules["repro.core.journal"].replace(ExecReply(request_id=1, kind="busy"))
    assert set(calls) == {
        "Operation.annotation",
        "Definitions.operations",
        "Span.walk",
        "MetricsRegistry.counter (creating)",
        "MetricsRegistry.histogram (creating)",
        "dataclasses.replace",
    }


def test_canonical_reply_copy_names_every_field():
    """``ExactlyOnce.complete`` copies an ``ExecReply`` field by field: a
    field added to the message must be added to that copy too."""
    assert [field.name for field in dataclasses.fields(ExecReply)] == [
        "request_id", "kind", "value", "fault_code", "coordinator",
        "served_by", "epoch", "retry_after", "invocation_id", "deduped",
    ]  # fmt: skip

