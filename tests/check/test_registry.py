"""The stateful registry: epoch monotonicity as a trajectory property,
and one audit over every service of a run (saga atomicity included)."""

from types import SimpleNamespace

from repro.check import InvariantRegistry
from repro.election import Epoch


#: The fake peers' clock.  A handover lasts 4 s: a 2 s re-affirmation
#: interval plus an election's 0.5 s answer and 1.5 s coordinator timeouts.
NOW = 10.0


def _peer(name="p0", epoch=None, coordinator=False, effects=None, claimed_at=None):
    epoch = epoch if epoch is not None else Epoch(1, "aa")
    peer = SimpleNamespace(
        name=name,
        peer_id=SimpleNamespace(uuid_hex="aa"),
        coordinator_mgr=SimpleNamespace(
            epoch=epoch,
            # The peer's own announcements (a claimant's term, if it
            # announced one) and its failure detector's settings.
            elector=SimpleNamespace(
                announced=[] if claimed_at is None else [(claimed_at, epoch)],
                answer_timeout=0.5,
                coordinator_timeout=1.5,
            ),
            watchdog_interval=2.0,
            is_coordinator=coordinator,
        ),
        node=SimpleNamespace(up=True, env=SimpleNamespace(now=NOW)),
        # The effect ledger: invocation id -> applications (empty: the
        # exactly-once audit has nothing to count).
        implementation=SimpleNamespace(
            backend=SimpleNamespace(effect_counts=lambda: dict(effects or {}))
        ),
    )
    peer._member_load = {}
    return peer


def _service(epoch=None, peers=None, group_name="g0", result_epoch_log=()):
    peers = peers if peers is not None else [_peer(epoch=epoch)]
    group = SimpleNamespace(name=group_name, peers=peers)
    return SimpleNamespace(
        group=group,
        all_peers=lambda: list(peers),
        all_groups=lambda: [group],
        autoscalers=[],
        proxy=SimpleNamespace(
            bindings=SimpleNamespace(result_epoch_log=list(result_epoch_log))
        ),
    )


class TestAcceptedEpochCursor:
    def test_advancing_epochs_pass(self):
        registry = InvariantRegistry()
        assert registry.check_step([_service(Epoch(1, "aa"))]) == []
        assert registry.check_step([_service(Epoch(2, "bb"))]) == []

    def test_regression_caught_even_if_it_self_corrects(self):
        """The cursor sees the dip a final-state audit would miss."""
        registry = InvariantRegistry()
        assert registry.check_step([_service(Epoch(3, "aa"))]) == []
        violations = registry.check_step([_service(Epoch(1, "bb"))])
        assert violations and "regressed" in violations[0]
        # A later recovery to a fresh term is clean again.
        assert registry.check_step([_service(Epoch(4, "cc"))]) == []

    def test_fresh_registry_has_no_history(self):
        """Per-run state: a new registry accepts any starting epoch."""
        first = InvariantRegistry()
        first.check_step([_service(Epoch(9, "aa"))])
        second = InvariantRegistry()
        assert second.check_step([_service(Epoch(1, "bb"))]) == []


class TestFleet:
    def test_stale_result_on_the_second_service_is_reported(self):
        stale = [("grp-b", Epoch(2, "bb")), ("grp-b", Epoch(1, "aa"))]
        fleet = [
            _service(peers=[_peer("p0")]),
            _service(peers=[_peer("p1")], group_name="g1", result_epoch_log=stale),
        ]
        (violation,) = InvariantRegistry().check_step(fleet)
        assert "delivered result under" in violation and "grp-b" in violation

    @staticmethod
    def _two_claimants_in_g1(second_claimed_at=None):
        def peer(name, claimed_at=None):
            return _peer(name, coordinator=True, claimed_at=claimed_at)

        return [
            _service(peers=[peer("p0")], group_name="g0"),
            _service(
                peers=[peer("p1", claimed_at=1.0), peer("p2", second_claimed_at)],
                group_name="g1",
            ),
        ]

    def test_convergence_names_the_group_with_two_claimants(self):
        assert InvariantRegistry().check_final(self._two_claimants_in_g1()) == [
            "2 live peers claim coordination after cooldown in group g1: "
            "['p1', 'p2']"
        ]

    def test_a_claim_younger_than_a_handover_is_not_a_split_brain(self):
        """The deposed coordinator has not yet heard of its successor."""
        fleet = self._two_claimants_in_g1(second_claimed_at=NOW - 3.9)
        assert InvariantRegistry().check_final(fleet) == []

    def test_two_claims_that_stood_a_handover_are_a_split_brain(self):
        fleet = self._two_claimants_in_g1(second_claimed_at=NOW - 4.0)
        (violation,) = InvariantRegistry().check_final(fleet)
        assert "in group g1: ['p1', 'p2']" in violation


def _saga_log(state):
    record = SimpleNamespace(saga_id="loan-1", state=state, steps=[])
    return SimpleNamespace(records=lambda: [record])


class TestSagaLog:
    #: ``register`` applied and never compensated.
    EFFECTS = {"saga:loan-1:register:fwd": 1}

    def test_uncompensated_step_of_a_compensated_saga_is_a_step_violation(self):
        fleet = [_service(peers=[_peer(effects=self.EFFECTS)])]
        registry = InvariantRegistry(saga_log=_saga_log("compensated"))
        assert registry.check_step(fleet) == [
            "saga loan-1: compensated but applied steps ['register'] have no "
            "compensation effect"
        ]

    def test_a_running_saga_is_only_a_final_violation(self):
        fleet = [_service(peers=[_peer(effects=self.EFFECTS)])]
        registry = InvariantRegistry(saga_log=_saga_log("running"))
        assert registry.check_step(fleet) == []
        (violation,) = registry.check_final(fleet)
        assert violation.startswith("saga loan-1: still running after cooldown")

    def test_audit_runs_the_final_checks_only_when_the_step_checks_hold(self):
        registry = InvariantRegistry(saga_log=_saga_log("running"))
        clean = [_service(peers=[_peer()])]
        (violation,) = registry.audit(clean)
        assert "still running after cooldown" in violation
        stale = [("grp-b", Epoch(2, "bb")), ("grp-b", Epoch(1, "aa"))]
        broken = [_service(peers=[_peer()], result_epoch_log=stale)]
        (violation,) = InvariantRegistry(saga_log=_saga_log("running")).audit(broken)
        assert "delivered result under" in violation
