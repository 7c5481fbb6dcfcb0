"""The stateful registry: epoch monotonicity as a trajectory property."""

from types import SimpleNamespace

from repro.check import InvariantRegistry
from repro.election import Epoch


def _service(epoch):
    peer = SimpleNamespace(
        name="p0",
        peer_id=SimpleNamespace(uuid_hex="aa"),
        coordinator_mgr=SimpleNamespace(
            epoch=epoch,
            elector=SimpleNamespace(announced=[]),
            is_coordinator=False,
        ),
        node=SimpleNamespace(up=True),
        # An empty effect ledger: the exactly-once audit has nothing to count.
        implementation=SimpleNamespace(backend=SimpleNamespace(effect_counts=dict)),
    )
    peer._member_load = {}
    group = SimpleNamespace(name="g0", peers=[peer])
    return SimpleNamespace(
        group=group,
        all_peers=lambda: [peer],
        all_groups=lambda: [group],
        proxy=SimpleNamespace(bindings=SimpleNamespace(result_epoch_log=[])),
    )


class TestAcceptedEpochCursor:
    def test_advancing_epochs_pass(self):
        registry = InvariantRegistry()
        assert registry.check_step(_service(Epoch(1, "aa"))) == []
        assert registry.check_step(_service(Epoch(2, "bb"))) == []

    def test_regression_caught_even_if_it_self_corrects(self):
        """The cursor sees the dip a final-state audit would miss."""
        registry = InvariantRegistry()
        assert registry.check_step(_service(Epoch(3, "aa"))) == []
        violations = registry.check_step(_service(Epoch(1, "bb")))
        assert violations and "regressed" in violations[0]
        # A later recovery to a fresh term is clean again.
        assert registry.check_step(_service(Epoch(4, "cc"))) == []

    def test_fresh_registry_has_no_history(self):
        """Per-run state: a new registry accepts any starting epoch."""
        first = InvariantRegistry()
        first.check_step(_service(Epoch(9, "aa")))
        second = InvariantRegistry()
        assert second.check_step(_service(Epoch(1, "bb"))) == []
