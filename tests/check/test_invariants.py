"""The invariant audit functions, exercised on hand-built states.

The functions take live system objects but only touch a narrow surface
(peer name/id, elector announcement log, backend ledgers, admission
ledger, node liveness), so small shims can present exactly the state
each violation needs — including states the real protocol (hopefully)
never reaches.
"""

from types import SimpleNamespace

from repro.check import (
    announced_epoch_violations,
    convergence_violations,
    exactly_once_violations,
    queue_bound_violations,
    stale_result_violations,
)
from repro.election import Epoch


def _peer(name, owner_hex, announced, *, up=True, claims=False, backend=None,
          member_load=None):
    shim = SimpleNamespace(
        name=name,
        peer_id=SimpleNamespace(uuid_hex=owner_hex),
        # The election timers give a handover 4 s; the clock stands at 0.
        coordinator_mgr=SimpleNamespace(
            elector=SimpleNamespace(
                announced=list(announced), answer_timeout=0.5, coordinator_timeout=1.5
            ),
            epoch=None,
            is_coordinator=claims,
            watchdog_interval=2.0,
        ),
        node=SimpleNamespace(up=up, env=SimpleNamespace(now=0.0)),
        implementation=SimpleNamespace(backend=backend),
    )
    shim._member_load = member_load or {}
    return shim


class _Backend:
    def __init__(self, counts):
        self._counts = dict(counts)

    def effect_counts(self):
        return dict(self._counts)


class TestElectionSafety:
    def test_clean_log_passes(self):
        peers = [
            _peer("p0", "aa", [(1.0, Epoch(1, "aa")), (5.0, Epoch(3, "aa"))]),
            _peer("p1", "bb", [(3.0, Epoch(2, "bb"))]),
        ]
        assert announced_epoch_violations(peers) == []

    def test_unowned_epoch_flagged(self):
        peers = [_peer("p0", "aa", [(1.0, Epoch(1, "bb"))])]
        violations = announced_epoch_violations(peers)
        assert len(violations) == 1
        assert "does not own" in violations[0]

    def test_non_increasing_announcements_flagged(self):
        peers = [
            _peer("p0", "aa", [(1.0, Epoch(2, "aa")), (2.0, Epoch(1, "aa"))]),
        ]
        violations = announced_epoch_violations(peers)
        assert any("not increasing" in v for v in violations)

    def test_same_epoch_twice_by_one_peer_flagged(self):
        """Re-announcing an identical term is not 'strictly increasing'."""
        peers = [
            _peer("p0", "aa", [(1.0, Epoch(2, "aa")), (2.0, Epoch(2, "aa"))]),
        ]
        assert announced_epoch_violations(peers)


class TestStaleResults:
    def test_monotone_deliveries_pass(self):
        proxy = SimpleNamespace(bindings=SimpleNamespace(result_epoch_log=[
            ("g", Epoch(1, "aa")), ("g", Epoch(1, "aa")), ("g", Epoch(2, "bb")),
        ]))
        assert stale_result_violations(proxy) == []

    def test_regression_flagged(self):
        proxy = SimpleNamespace(bindings=SimpleNamespace(result_epoch_log=[
            ("g", Epoch(2, "bb")), ("g", Epoch(1, "aa")),
        ]))
        violations = stale_result_violations(proxy)
        assert len(violations) == 1
        assert "after" in violations[0]

    def test_groups_are_independent(self):
        proxy = SimpleNamespace(bindings=SimpleNamespace(result_epoch_log=[
            ("g1", Epoch(2, "bb")), ("g2", Epoch(1, "aa")),
        ]))
        assert stale_result_violations(proxy) == []


class TestExactlyOnce:
    def test_duplicate_application_flagged(self):
        backend = _Backend({"inv-1": 1, "inv-2": 2})
        peers = [_peer("p0", "aa", [], backend=backend)]
        violations = exactly_once_violations(peers)
        assert violations == [
            "invocation inv-2 applied 2 times (exactly-once violated)"
        ]

    def test_shared_backend_not_double_counted(self):
        """Replicas sharing one store must not look like duplicates."""
        backend = _Backend({"inv-1": 1})
        peers = [
            _peer("p0", "aa", [], backend=backend),
            _peer("p1", "bb", [], backend=backend),
        ]
        assert exactly_once_violations(peers) == []

    def test_distinct_backends_summed(self):
        peers = [
            _peer("p0", "aa", [], backend=_Backend({"inv-1": 1})),
            _peer("p1", "bb", [], backend=_Backend({"inv-1": 1})),
        ]
        assert exactly_once_violations(peers)


class TestQueueBound:
    def test_within_bound_passes(self):
        load = {"m": SimpleNamespace(outstanding=4)}
        peers = [_peer("p0", "aa", [], member_load=load)]
        assert queue_bound_violations(peers, bound=4) == []

    def test_over_bound_flagged(self):
        load = {"m": SimpleNamespace(outstanding=5)}
        peers = [_peer("p0", "aa", [], member_load=load)]
        assert queue_bound_violations(peers, bound=4)

    def test_unbounded_always_passes(self):
        load = {"m": SimpleNamespace(outstanding=1000)}
        peers = [_peer("p0", "aa", [], member_load=load)]
        assert queue_bound_violations(peers, bound=None) == []


class TestConvergence:
    def test_single_claimant_passes(self):
        peers = [
            _peer("p0", "aa", [], claims=True),
            _peer("p1", "bb", [], claims=False),
        ]
        assert convergence_violations(peers) == []

    def test_split_brain_flagged(self):
        peers = [
            _peer("p0", "aa", [], claims=True),
            _peer("p1", "bb", [], claims=True),
        ]
        violations = convergence_violations(peers)
        assert len(violations) == 1
        assert "2 live peers" in violations[0]

    def test_dead_claimant_ignored(self):
        peers = [
            _peer("p0", "aa", [], claims=True),
            _peer("p1", "bb", [], claims=True, up=False),
        ]
        assert convergence_violations(peers) == []
