"""Election behaviour across network partitions.

During a partition each side may elect its own coordinator (the classic
split-brain of leader election without quorum — Bully has no quorum).  The
important guarantee Whisper needs is *convergence after healing*: the
COORDINATOR-claim-from-lower rule plus the abdication-aware heartbeats
collapse the two leaders back to one.
"""

import pytest

from repro.election import GroupCoordinator
from repro.p2p import Peer, PeerGroupId
from repro.simnet import Environment, MessageTrace, Network, RngRegistry

GROUP_ID = PeerGroupId.from_name("partition-group")


@pytest.fixture
def cluster():
    env = Environment()
    network = Network(env, trace=MessageTrace(), rng=RngRegistry(7))
    rendezvous = Peer(network.add_host("rdv"), is_rendezvous=True)
    rendezvous.publish_self(remote=False)
    peers = []
    coordinators = []
    for index in range(5):
        peer = Peer(network.add_host(f"p{index}"))
        peer.attach_to(rendezvous)
        peer.publish_self(remote=True)
        peer.groups.join(GROUP_ID, "partition-group")
        peers.append(peer)
    env.run(until=1.0)
    for peer in peers:
        coordinators.append(
            GroupCoordinator(
                peer.groups, GROUP_ID, heartbeat_interval=0.5, miss_threshold=2
            )
        )
    coordinators[0].bootstrap()
    env.run(until=6.0)
    return env, network, rendezvous, peers, coordinators


def _sides(network, peers):
    """Partition: the two highest peers (+rdv) vs. the rest."""
    ordered = sorted(peers, key=lambda p: p.peer_id.uuid_hex)
    majority = [p.node.name for p in ordered[-2:]] + ["rdv"]
    minority = [p.node.name for p in ordered[:-2]]
    return majority, minority, ordered


class TestSplitBrain:
    def test_isolated_side_elects_its_own_leader(self, cluster):
        env, network, _rdv, peers, coordinators = cluster
        majority, minority, ordered = _sides(network, peers)
        network.partition(majority, minority)
        env.run(until=env.now + 20.0)
        minority_peers = [
            (peer, coordinator)
            for peer, coordinator in zip(peers, coordinators)
            if peer.node.name in minority
        ]
        beliefs = {coordinator.coordinator for _p, coordinator in minority_peers}
        # The minority elected the highest peer *it can reach*.
        highest_minority = max(
            (peer for peer, _c in minority_peers),
            key=lambda p: p.peer_id.uuid_hex,
        )
        assert beliefs == {highest_minority.peer_id}

    def test_heal_converges_to_single_leader(self, cluster):
        env, network, _rdv, peers, coordinators = cluster
        majority, minority, ordered = _sides(network, peers)
        handle = network.partition(majority, minority)
        env.run(until=env.now + 20.0)
        network.heal_partition(handle)
        env.run(until=env.now + 30.0)
        beliefs = {coordinator.coordinator for coordinator in coordinators}
        assert len(beliefs) == 1, f"split-brain persisted: {beliefs}"
        leader = beliefs.pop()
        assert leader == ordered[-1].peer_id  # the global highest
        self_believers = [c for c in coordinators if c.is_coordinator]
        assert len(self_believers) == 1

    def test_requests_resume_after_heal(self, cluster):
        """End-to-end: a group split and healed keeps answering exec
        requests (exercised through the coordinator-query handler)."""
        env, network, rendezvous, peers, coordinators = cluster
        majority, minority, _ordered = _sides(network, peers)
        handle = network.partition(majority, minority)
        env.run(until=env.now + 20.0)
        network.heal_partition(handle)
        env.run(until=env.now + 30.0)
        # Everyone, including the rendezvous path, agrees on one live leader.
        alive_beliefs = {c.coordinator for c in coordinators}
        assert len(alive_beliefs) == 1
        assert next(iter(alive_beliefs)) in {p.peer_id for p in peers}
