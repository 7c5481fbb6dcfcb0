"""The b-peer group protocol's single implementations (DESIGN.md §6.7).

``core/bpeer.py`` sends every group message through ``_tell``, receives
every one through the ``{mode: handler}`` dict behind ``_on_delegate``,
and builds every ``busy`` bounce in ``_busy_reply``.  These tests pin
the three properties that make "one implementation" safe to rely on.
"""

import ast
import inspect

import pytest

from repro.backend import (
    student_database,
    student_enrollment,
    student_lookup_operational,
)
from repro.core import ScenarioConfig, WhisperSystem, bpeer as bpeer_module
from repro.core.bpeer import SYNC_GATE, ExecRequest, _majority_acks
from repro.p2p import Peer
from repro.wsdl import student_admin_wsdl


@pytest.fixture
def enroll_coordinator():
    """The coordinator of a settled three-replica *mutating* group, with
    every reply it emits captured instead of sent."""
    system = WhisperSystem(ScenarioConfig(seed=71, queue_bound=2))
    database = student_database()
    service = system.deploy_service(
        student_admin_wsdl(),
        {
            "StudentInformation": [student_lookup_operational(database)],
            "EnrollStudent": [student_enrollment(database) for _ in range(3)],
        },
    )
    system.settle(6.0)
    peer = service.groups["EnrollStudent"].coordinator_peer()
    peer.replies = []
    peer._reply = lambda request, reply: peer.replies.append(reply)
    return system, peer


def _request(peer, invocation_id="unit#1"):
    return ExecRequest(
        request_id=7,
        group_id=peer.group_id,
        operation="EnrollStudent",
        arguments={"ID": "S00001", "course": "X1"},
        reply_to=peer.peer_id,
        reply_addr=peer.endpoint.address,
        invocation_id=invocation_id,
        attempt=2,
    )


# -- every busy reply carries the invocation id ---------------------------------------


def _shed(peer, request):
    peer._shed(request)


def _park_expiry(peer, request):
    peer._parked[request.invocation_id] = [request]
    peer._expire_parked(request.invocation_id, request)


def _sync_park_expiry(peer, request):
    peer._parked[SYNC_GATE] = [request]
    peer._expire_parked(SYNC_GATE, request)


def _sync_drain(peer, request):
    peer._parked[SYNC_GATE] = [request]
    peer._drain_sync_gate()


def _sync_bounce(peer, request):
    peer._parked[SYNC_GATE] = [request]
    peer._bounce_parked([SYNC_GATE])


def _barrier_blocked(peer, request):
    peer._tell = lambda *args: False  # no member reachable: no quorum
    barrier = peer._commit_barrier(request)
    with pytest.raises(StopIteration) as stop:
        next(barrier)
    peer.replies.append(stop.value.value)


@pytest.mark.parametrize(
    "emit",
    [_shed, _park_expiry, _sync_park_expiry, _sync_drain, _sync_bounce, _barrier_blocked],
)
def test_every_busy_reply_carries_the_invocation_id(enroll_coordinator, emit):
    _system, peer = enroll_coordinator
    request = _request(peer)
    emit(peer, request)
    (reply,) = peer.replies
    assert reply.kind == "busy"
    assert reply.request_id == request.request_id
    assert reply.invocation_id == request.invocation_id
    assert reply.retry_after is not None
    assert reply.epoch == peer.coordinator_mgr.epoch


# -- the commit quorum ----------------------------------------------------------------


@pytest.mark.parametrize(
    "cohort, acks", [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)]
)
def test_majority_acks(cohort, acks):
    assert _majority_acks(cohort) == acks
    # With our own vote the acks make a strict majority; one fewer do not.
    assert 2 * (acks + 1) > cohort + 1
    assert acks == 0 or 2 * acks <= cohort + 1


# -- _tell ----------------------------------------------------------------------------


def test_tell_reports_an_unresolvable_member_without_raising(enroll_coordinator):
    system, peer = enroll_coordinator
    stranger = Peer(system.network.add_host("never-introduced"))
    sent_before = system.trace.sent_total
    assert peer._tell(stranger.peer_id, ("journal-pull", None), "bpeer-journal", 64) is False
    assert system.trace.sent_total == sent_before


def test_tell_sends_one_group_datagram_to_a_known_member(enroll_coordinator):
    system, peer = enroll_coordinator
    member = next(m for m in peer._commit_cohort())
    sent_before = system.trace.sent_total
    assert peer._tell(member, ("intent-clear", "nobody#0", member), "bpeer-journal", 64)
    assert system.trace.sent_total == sent_before + 1


# -- the handler dict -----------------------------------------------------------------


def _modes_sent_by_bpeer():
    """First element of every payload tuple ``bpeer.py`` hands to ``_tell``
    (inline, or through a local name assigned in the same function)."""
    modes = set()
    tree = ast.parse(inspect.getsource(bpeer_module))
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        local_tuples = {
            node.targets[0].id: node.value
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Tuple)
        }
        for call in ast.walk(function):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "_tell"
            ):
                payload = call.args[1]
                if isinstance(payload, ast.Name):
                    payload = local_tuples[payload.id]
                assert isinstance(payload, ast.Tuple), ast.dump(call)
                modes.add(payload.elts[0].value)
    return modes


def test_handlers_cover_exactly_the_modes_sent(enroll_coordinator):
    _system, peer = enroll_coordinator
    sent = _modes_sent_by_bpeer()
    assert len(sent) == 13
    assert set(peer._group_handlers) == sent


def test_unknown_mode_is_ignored(enroll_coordinator):
    system, peer = enroll_coordinator
    sent_before = system.trace.sent_total
    peer._on_delegate(("no-such-mode", 1, 2), peer.peer_id, peer.group_id)
    assert peer.replies == []
    assert system.trace.sent_total == sent_before
