"""End-to-end epoch fencing: stale coordinators cannot serve clients.

The acceptance scenario for the recovery-hardening layer: partition the
sitting coordinator away from its group (but not from the web host), let
the majority elect a successor under a higher epoch, heal, and show that
the deposed coordinator's stale term is fenced — the proxy's
epoch-stamped request is rejected with ``not-coordinator``/``stale-epoch``
and the retry lands under the fresh term.
"""

import pytest

from repro.core import ScenarioConfig, WhisperSystem
from repro.election import Epoch


@pytest.fixture
def system():
    return WhisperSystem(ScenarioConfig(seed=1106, heartbeat_interval=0.5, miss_threshold=2))


@pytest.fixture
def deployed(system):
    service = system.deploy_student_service(system.config.replace(replicas=4))
    system.settle(6.0)
    return service


def _quiesce_watchdogs(group):
    """Stop the peers' coordination watchdogs for the rest of the run.

    The watchdog's periodic re-affirmation actively heals split-brain, so
    tests that *forge* a split claimant (to probe the resolver's epoch
    preference in isolation) must silence it or the forged state unravels
    mid-resolve.
    """
    for peer in group.peers:
        mgr = peer.coordinator_mgr
        watchdog, mgr._watchdog = mgr._watchdog, None
        if watchdog is not None and watchdog.is_alive:
            watchdog.interrupt("quiesce")


def _invoke(system, proxy, operation, arguments, **kwargs):
    outcome = {}

    def runner():
        try:
            result = yield from proxy.invoke(operation, arguments, **kwargs)
            outcome["result"] = result
            outcome["value"] = result.value
        except Exception as error:  # noqa: BLE001 - captured for assertions
            outcome["error"] = error

    system.env.run(until=proxy.node.spawn(runner()))
    return outcome


class TestPartitionThenHeal:
    def test_stale_coordinator_rejected_via_epoch(self, system, deployed):
        """Seeded partition-then-heal: a request carried under a term the
        coordinator has since superseded is fenced, not served."""
        proxy = deployed.proxy
        group_id = deployed.group.group_id

        # Prime the binding under the first term.
        outcome = _invoke(system, proxy, "StudentInformation", {"ID": "S00001"})
        assert outcome["value"]["studentId"] == "S00001"
        old_coord = deployed.group.coordinator_peer()
        old_epoch = old_coord.coordinator_mgr.epoch
        assert old_epoch.counter >= 1
        binding = proxy._bindings[group_id]
        assert binding.coordinator == old_coord.peer_id
        assert binding.epoch == old_epoch

        # Isolate the coordinator from members + rendezvous.  The web
        # host stays connected to BOTH sides, so the proxy's binding to
        # the deposed coordinator stays usable throughout.
        member_side = [
            peer.node.name
            for peer in deployed.group.peers
            if peer is not old_coord
        ] + ["rdv0"]
        system.failures.partition_at(
            system.env.now + 0.5, [old_coord.node.name], member_side,
            duration=8.0,
        )
        system.settle(9.0)

        # The majority elected a successor under a higher term while the
        # deposed coordinator kept believing in its own.
        survivors = [
            peer for peer in deployed.group.peers if peer is not old_coord
        ]
        mid_epoch = max(peer.coordinator_mgr.epoch for peer in survivors)
        usurper = next(
            peer for peer in survivors if peer.coordinator_mgr.is_coordinator
        )
        assert mid_epoch > old_epoch
        assert old_coord.coordinator_mgr.epoch == old_epoch  # still stale

        # Heal, let rosters re-sync, then crash the successor.  The
        # re-election pulls the rejoined old coordinator back in: its
        # ELECTION traffic carries the majority's higher term, so the old
        # coordinator re-wins only by minting a fresh term above it.
        system.settle(7.0)
        usurper.node.crash()
        system.settle(15.0)
        final_epoch = old_coord.coordinator_mgr.epoch
        assert final_epoch > mid_epoch > old_epoch
        assert final_epoch.owner_hex == old_coord.peer_id.uuid_hex
        claimants = [
            peer
            for peer in deployed.group.peers
            if peer.node.up and peer.coordinator_mgr.is_coordinator
        ]
        assert claimants == [old_coord]

        # The proxy still holds the pre-partition binding.  Its next
        # request carries the stale epoch, gets fenced with a
        # ``stale-epoch`` redirect, and the forwarded pointer re-binds it
        # under the fresh term — the client never sees the failure.
        rejections = old_coord.stale_epoch_rejections
        outcome = _invoke(system, proxy, "StudentInformation", {"ID": "S00002"})
        assert outcome["value"]["studentId"] == "S00002"
        assert old_coord.stale_epoch_rejections == rejections + 1
        assert proxy.stats.stale_epoch_redirects >= 1
        assert proxy._bindings[group_id].epoch == final_epoch


class TestResolverEpochPreference:
    def test_highest_epoch_answer_wins_binding(self, system, deployed):
        """Conflicting resolver answers (split-brain) are decided by
        epoch: the freshest claim wins even if a stale one answers
        first."""
        proxy = deployed.proxy
        group_id = deployed.group.group_id
        coordinator_id = deployed.group.coordinator_id()
        real_epoch = deployed.group.coordinator_peer().coordinator_mgr.epoch
        follower = next(
            peer for peer in deployed.group.peers
            if peer.peer_id != coordinator_id
        )
        # Forge a split-brain claimant with a *higher* term.
        _quiesce_watchdogs(deployed.group)
        forged = Epoch(real_epoch.counter + 7, follower.peer_id.uuid_hex)
        follower.coordinator_mgr.elector.coordinator = follower.peer_id
        follower.coordinator_mgr.elector.epoch = forged
        proxy.resolve_grace = 0.1  # collect every racing answer
        proxy.drop_binding(group_id)

        result = {}

        def runner():
            result["binding"] = yield from proxy.resolve_coordinator(group_id)

        system.env.run(until=proxy.node.spawn(runner()))
        assert result["binding"].coordinator == follower.peer_id
        assert result["binding"].epoch == forged

    def test_stale_epoch_answer_loses_binding(self, system, deployed):
        """The mirror case: a claimant stuck on a *lower* term never
        steals the binding from the legitimate coordinator."""
        proxy = deployed.proxy
        group_id = deployed.group.group_id
        coordinator_id = deployed.group.coordinator_id()
        real_epoch = deployed.group.coordinator_peer().coordinator_mgr.epoch
        follower = next(
            peer for peer in deployed.group.peers
            if peer.peer_id != coordinator_id
        )
        follower.coordinator_mgr.elector.coordinator = follower.peer_id
        follower.coordinator_mgr.elector.epoch = Epoch(0, follower.peer_id.uuid_hex)
        proxy.resolve_grace = 0.1
        proxy.drop_binding(group_id)

        result = {}

        def runner():
            result["binding"] = yield from proxy.resolve_coordinator(group_id)

        system.env.run(until=proxy.node.spawn(runner()))
        assert result["binding"].coordinator == coordinator_id
        assert result["binding"].epoch == real_epoch

    def test_joined_lookup_inherits_the_highest_epoch_answer(self, system, deployed):
        """Split-brain with two concurrent callers: the second joins the
        first one's query (single-flight) and must get what the grace
        window decided — the highest-epoch claim — not the first answer
        that happened to be in when it joined."""
        proxy = deployed.proxy
        group_id = deployed.group.group_id
        coordinator_id = deployed.group.coordinator_id()
        real_epoch = deployed.group.coordinator_peer().coordinator_mgr.epoch
        follower = next(
            peer for peer in deployed.group.peers
            if peer.peer_id != coordinator_id
        )
        _quiesce_watchdogs(deployed.group)
        forged = Epoch(real_epoch.counter + 7, follower.peer_id.uuid_hex)
        follower.coordinator_mgr.elector.coordinator = follower.peer_id
        follower.coordinator_mgr.elector.epoch = forged
        proxy.resolve_grace = 0.1
        proxy.drop_binding(group_id)
        queries = proxy.resolver.queries_sent

        bindings = []

        def caller(delay):
            # The late caller arrives inside the leader's grace window,
            # after the first answers have landed.
            yield system.env.timeout(delay)
            bindings.append((yield from proxy.resolve_coordinator(group_id)))

        callers = [proxy.node.spawn(caller(delay)) for delay in (0.0, 0.05)]
        for process in callers:
            system.env.run(until=process)
        assert proxy.resolver.queries_sent == queries + 1
        assert proxy.stats.shared_lookups == 1
        assert bindings[0] is bindings[1]
        assert bindings[0].coordinator == follower.peer_id
        assert bindings[0].epoch == forged
