"""What one datagram costs the simulator, counted (DESIGN.md §6.19).

Counted with ``sys.setprofile``, not timed, so the guard is exact on any
host: one endpoint datagram — ``EndpointService.send`` through the network
and its arrival event, which runs the receive loop's body, to a no-op
listener — makes at most ``MAX_CALLS`` Python-level calls and exactly one
kernel event.  The other guards keep the bookkeeping off: no per-message
``__dict__``, and no ``Random.lognormvariate`` / ``normalvariate`` frames on
a served write.
"""

from __future__ import annotations

import collections
import random
import sys

import pytest

from repro.backend import student_database, student_enrollment, student_lookup_operational
from repro.core import ScenarioConfig, WhisperSystem
from repro.p2p import EndpointMessage, EndpointService, PeerGroupId, PeerId
from repro.simnet import Environment, Message, MessageTrace, Network, RngRegistry
from repro.wsdl import student_admin_wsdl

#: The budget for one datagram, send to listener included: 29 calls while
#: the datagram path carried its bookkeeping, 21 once it did not, 17 since
#: the arrival event runs the receive loop's body itself.
MAX_CALLS = 19
DATAGRAMS = 200


def _python_calls(run):
    """Python-level frames ``run`` enters (generator resumes included), less
    its own and the ``Environment.step`` frames that only drive it."""
    calls = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    del calls[run.__name__], calls["step"]
    return calls


def test_one_endpoint_datagram_costs_at_most_the_budget():
    env = Environment()
    network = Network(env, trace=MessageTrace(), rng=RngRegistry(12345))
    a = EndpointService(network.add_host("a"), PeerId.from_name("a"))
    b = EndpointService(network.add_host("b"), PeerId.from_name("b"))
    a.add_route(b.peer_id, b.address)
    heard = []
    b.register_listener("x", lambda message: heard.append(message))
    for _ in range(10):  # warm-up: first-use paths (counter keys, ...) taken
        a.send(b.peer_id, "x", None)
    env.run()
    heard.clear()
    events_before = env.events_processed

    def datagrams():
        for _ in range(DATAGRAMS):
            a.send(b.peer_id, "x", None)
            env.step()  # the arrival (a Timeout on the heap), listener included

    calls = _python_calls(datagrams)
    assert len(heard) == DATAGRAMS
    assert env.events_processed - events_before == DATAGRAMS
    assert env.peek() == float("inf")  # nothing left over per datagram
    assert sum(calls.values()) / DATAGRAMS <= MAX_CALLS, sorted(calls.items())


def test_messages_and_ids_have_no_instance_dict():
    peer = PeerId.from_name("p")
    envelope = EndpointMessage(peer, peer, "x", None)
    for value in (
        Message(("a", 1), ("b", 2), None),
        envelope,
        peer,
        PeerGroupId.from_name("g"),
    ):
        assert not hasattr(value, "__dict__"), type(value).__name__


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
    node, soap = system.add_client("datagram-client", timeout=30.0)

    def writes(count, start):
        def calls():
            for index in range(start, start + count):
                course = f"C{index:04d}"
                value = yield from soap.call(
                    service.address, service.path, "EnrollStudent",
                    {"ID": "S00001", "course": course},
                )
                assert course in value["enrolledCourses"]
                yield system.env.timeout(0.005)

        system.env.run(until=node.spawn(calls()))

    writes(5, start=0)  # warm-up
    return system, writes


def test_served_writes_draw_latency_without_the_stdlib_frames(deployment, monkeypatch):
    system, writes = deployment
    calls = collections.Counter()
    for name in ("lognormvariate", "normalvariate"):
        original = getattr(random.Random, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(random.Random, name, counted)
    sent_before = system.trace.sent_total

    writes(50, start=1000)

    assert system.trace.sent_total - sent_before > 50 * 10  # group traffic flowed
    assert dict(calls) == {}
    random.Random(1).lognormvariate(0.0, 1.0)  # positive control: both counted
    assert dict(calls) == {"lognormvariate": 1, "normalvariate": 1}
