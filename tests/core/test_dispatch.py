"""Unit tests for the pluggable dispatch policies."""

import pytest

from repro.core import ScenarioConfig, WhisperSystem
from repro.core.dispatch import (
    DISPATCH_POLICIES,
    DispatchPolicy,
    LeastOutstandingDispatch,
    MemberLoad,
    RoundRobinDispatch,
    dispatch_policy,
)
from repro.p2p.ids import PeerId


def _peers(count):
    return [PeerId.from_name(f"member-{index}") for index in range(count)]


class TestRoundRobin:
    def test_cycles_over_sorted_identity(self):
        members = _peers(3)
        ordered = sorted(members, key=str)
        policy = RoundRobinDispatch()
        picks = [policy.choose(members, {}) for _ in range(6)]
        assert picks == ordered + ordered

    def test_rotation_independent_of_view_order(self):
        members = _peers(3)
        ordered = sorted(members, key=str)
        policy = RoundRobinDispatch()
        # Present the view in a different order each call: rotation is
        # over member identity, not list position.
        views = [members, list(reversed(members)), members[1:] + members[:1]]
        picks = [policy.choose(view, {}) for view in views]
        assert picks == ordered

    def test_empty_view_returns_none(self):
        assert RoundRobinDispatch().choose([], {}) is None

    def test_no_skip_or_double_serve_on_view_growth(self):
        members = _peers(2)
        ordered = sorted(members, key=str)
        policy = RoundRobinDispatch()
        assert policy.choose(members, {}) == ordered[0]
        grown = sorted(members + _peers(3)[2:], key=str)
        # The next pick is the next identity after the last-served one in
        # the grown view — nobody gets skipped or served twice.
        expected = next(m for m in grown if str(m) > str(ordered[0]))
        assert policy.choose(grown, {}) == expected

    def test_no_double_serve_when_member_departs(self):
        """Shrinking the view mid-rotation must not re-serve a member
        that was already served this cycle (the old positional-cursor
        bug)."""
        members = sorted(_peers(3), key=str)
        policy = RoundRobinDispatch()
        first = policy.choose(members, {})
        assert first == members[0]
        second = policy.choose(members, {})
        assert second == members[1]
        # members[1] departs; the rotation continues at members[2], it
        # does NOT wrap back and double-serve members[0].
        shrunk = [members[0], members[2]]
        assert policy.choose(shrunk, {}) == members[2]
        assert policy.choose(shrunk, {}) == members[0]

    def test_wraps_after_last_member(self):
        members = sorted(_peers(2), key=str)
        policy = RoundRobinDispatch()
        assert policy.choose(members, {}) == members[0]
        assert policy.choose(members, {}) == members[1]
        assert policy.choose(members, {}) == members[0]


class TestLeastOutstanding:
    def test_picks_least_loaded(self):
        members = _peers(3)
        load = {
            members[0]: MemberLoad(outstanding=2),
            members[1]: MemberLoad(outstanding=0),
            members[2]: MemberLoad(outstanding=5),
        }
        assert LeastOutstandingDispatch().choose(members, load) == members[1]

    def test_unseen_member_counts_as_idle(self):
        members = _peers(2)
        load = {members[0]: MemberLoad(outstanding=1)}
        assert LeastOutstandingDispatch().choose(members, load) == members[1]

    def test_tie_breaks_on_stable_id_order(self):
        members = _peers(4)
        load = {member: MemberLoad(outstanding=3) for member in members}
        expected = min(members, key=str)
        policy = LeastOutstandingDispatch()
        # Deterministic: the same tie resolves the same way every time,
        # regardless of the order the view presents the members in.
        assert policy.choose(members, load) == expected
        assert policy.choose(list(reversed(members)), load) == expected

    def test_empty_view_returns_none(self):
        assert LeastOutstandingDispatch().choose([], {}) is None


class TestFactory:
    def test_none_defaults_to_round_robin(self):
        assert isinstance(dispatch_policy(None), RoundRobinDispatch)

    def test_instance_passes_through(self):
        policy = LeastOutstandingDispatch()
        assert dispatch_policy(policy) is policy

    def test_names_resolve_to_fresh_instances(self):
        for name, cls in DISPATCH_POLICIES.items():
            first, second = dispatch_policy(name), dispatch_policy(name)
            assert isinstance(first, cls)
            assert first is not second  # policies are stateful

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="least-outstanding"):
            dispatch_policy("fastest-first")

    def test_registry_names_match_policy_names(self):
        for name, cls in DISPATCH_POLICIES.items():
            assert cls.name == name
            assert issubclass(cls, DispatchPolicy)


class TestCrashedMemberSkip:
    def test_failed_coordinator_leaves_view_and_ledger(self):
        """When the coordinator crashes, the failure detector removes it
        from the surviving members' group view, so the new coordinator's
        dispatch never chooses it; any ledger entry for it (with in-flight
        counts it would otherwise leak) is dropped too."""
        system = WhisperSystem(
            ScenarioConfig(
                seed=1301,
                replicas=3,
                load_sharing=True,
                dispatch="least-outstanding",
                heartbeat_interval=0.5,
                miss_threshold=2,
            )
        )
        service = system.deploy_student_service()
        system.settle(6.0)
        old = service.group.coordinator_peer()
        survivor = next(
            peer for peer in service.group.peers if peer is not old
        )
        # Pretend the survivor had delegated work toward the doomed peer.
        survivor._load_for(old.peer_id).outstanding = 3
        old.node.crash()
        system.settle(4.0)  # detection (1s) + re-election with margin

        new = service.group.coordinator_peer()
        assert new is not old
        members = new._dispatch_members()
        assert old.peer_id not in members
        assert new.peer_id in members
        assert old.peer_id not in new._member_load
        # And the policy can only pick live members.
        for _ in range(6):
            assert new._dispatch_target() in members

    def test_follower_crash_is_masked_by_retry_not_detected(self):
        """Followers are not heartbeat-monitored (only the coordinator
        is), so a crashed follower stays in the view; the proxy's
        timeout-and-retry masks misdispatched requests instead."""
        system = WhisperSystem(
            ScenarioConfig(
                seed=1307,
                replicas=3,
                load_sharing=True,
                dispatch="round-robin",
                request_timeout=0.5,
            )
        )
        service = system.deploy_student_service()
        system.settle(6.0)
        coordinator = service.group.coordinator_peer()
        victim = next(
            peer for peer in service.group.peers if peer is not coordinator
        )
        victim.node.crash()
        system.settle(2.0)
        outcome = {}

        def runner():
            result = yield from service.proxy.invoke(
                "StudentInformation", {"ID": "S00001"}
            )
            outcome["result"] = result

        system.env.run(until=service.proxy.node.spawn(runner()))
        assert outcome["result"].value["studentId"] == "S00001"
