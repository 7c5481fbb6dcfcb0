"""Deployment of semantic b-peer groups.

Bundles the steps §4 describes: create the group identity, derive the
*semantic advertisement* from the service's WSDL-S annotations, place one
b-peer (with its service implementation) per host, join them into the
logical group, publish the advertisement network-wide, and bootstrap the
first Bully election.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..backend.services import ServiceImplementation
from ..p2p.advertisement import SemanticAdvertisement
from ..p2p.ids import PeerGroupId, PeerId
from ..p2p.peer import Peer
from ..simnet.network import Network
from ..wsdl.annotations import SemanticAnnotation
from .bpeer import BPeer
from .config import ScenarioConfig

__all__ = ["BPeerGroup", "deploy_bpeer_group", "semantic_advertisement_for"]


def semantic_advertisement_for(
    group_name: str,
    annotation: SemanticAnnotation,
    ontology_uri: str,
    description: str = "",
    shard_index: Optional[int] = None,
    shard_count: Optional[int] = None,
    region: Optional[str] = None,
) -> SemanticAdvertisement:
    """Build the group's semantic advertisement from a WSDL-S annotation.

    ``shard_index``/``shard_count`` mark the group as
    one shard of a federated set partitioning the service keyspace;
    ``region`` marks its home region in multi-region topologies.  All
    stay ``None`` for single-group single-LAN deployments so the
    advertisement wire format is unchanged.
    """
    return SemanticAdvertisement(
        group_id=PeerGroupId.from_name(group_name),
        name=group_name,
        action=annotation.action,
        inputs=annotation.inputs,
        outputs=annotation.outputs,
        ontology_uri=ontology_uri,
        description=description,
        shard_index=shard_index,
        shard_count=shard_count,
        region=region,
    )


@dataclass
class BPeerGroup:
    """A deployed b-peer group: identity, advertisement, replicas."""

    group_id: PeerGroupId
    name: str
    advertisement: SemanticAdvertisement
    peers: List[BPeer] = field(default_factory=list)

    def add_member(
        self,
        network: Network,
        rendezvous: Peer,
        implementation: ServiceImplementation,
        config: ScenarioConfig,
        region: Optional[str] = None,
    ) -> BPeer:
        """Place one more b-peer on its own host (``bpeer-<group>-<i>``,
        mirroring the paper's one-peer-per-machine testbed) and join it:
        how the initial deployment and the autoscaler both grow a group.
        ``config`` carries the b-peer knobs (heartbeats, load sharing,
        dispatch, queue bound, journal, fencing)."""
        node = network.add_host(f"bpeer-{self.name}-{len(self.peers)}", region=region)
        bpeer = BPeer(
            node,
            group_id=self.group_id,
            group_name=self.name,
            implementation=implementation,
            config=config,
        )
        bpeer.start(rendezvous)
        # Every replica keeps the group advertisement alive (idempotent in
        # the SRDI index), so it survives any single publisher's death.
        bpeer.keep_published(self.advertisement)
        self.peers.append(bpeer)
        return bpeer

    def coordinator_peer(self) -> Optional[BPeer]:
        """The replica that currently believes it coordinates (if any)."""
        for peer in self.peers:
            if peer.node.up and peer.is_coordinator:
                return peer
        return None

    def coordinator_id(self) -> Optional[PeerId]:
        peer = self.coordinator_peer()
        return peer.peer_id if peer is not None else None

    def alive_peers(self) -> List[BPeer]:
        return [peer for peer in self.peers if peer.node.up]

    def crash_coordinator(self) -> Optional[BPeer]:
        """Fail-stop the current coordinator's host; returns the victim."""
        victim = self.coordinator_peer()
        if victim is not None:
            victim.node.crash()
        return victim

    def total_requests_executed(self) -> int:
        return sum(peer.requests_executed for peer in self.peers)

    def total_requests_shed(self) -> int:
        """Requests refused by admission control, group-wide."""
        return sum(peer.requests_shed for peer in self.peers)


def deploy_bpeer_group(
    network: Network,
    rendezvous: Peer,
    group_name: str,
    annotation: SemanticAnnotation,
    implementations: Sequence[ServiceImplementation],
    ontology_uri: str = "",
    config: ScenarioConfig = ScenarioConfig(),
    shard_index: Optional[int] = None,
    shard_count: Optional[int] = None,
    region: Optional[str] = None,
    host_regions: Optional[Sequence[str]] = None,
    rendezvous_by_region: Optional[Dict[str, Peer]] = None,
) -> BPeerGroup:
    """Place one b-peer per implementation and wire the group together.

    Every b-peer publishes the group's semantic advertisement into the
    rendezvous' SRDI index so that SWS-proxies anywhere can discover the
    group (:meth:`BPeerGroup.add_member`).

    Multi-region placement: ``region`` puts every host (and the
    advertisement's home) in one region; ``host_regions`` instead spreads
    hosts round-robin over the given regions (a group *spanning* the WAN,
    one election domain).  ``rendezvous_by_region`` maps each region to
    its rendezvous peer — a b-peer always attaches to the rendezvous of
    the region it lands in (falling back to ``rendezvous``).
    """
    if not implementations:
        raise ValueError("a b-peer group needs at least one implementation")
    advertisement = semantic_advertisement_for(
        group_name,
        annotation,
        ontology_uri,
        description=f"b-peer group {group_name}",
        shard_index=shard_index,
        shard_count=shard_count,
        region=region,
    )
    group = BPeerGroup(
        group_id=advertisement.group_id,
        name=group_name,
        advertisement=advertisement,
    )
    for index, implementation in enumerate(implementations):
        host_region = region
        if host_regions:
            host_region = host_regions[index % len(host_regions)]
        home_rendezvous = rendezvous
        if rendezvous_by_region and host_region in rendezvous_by_region:
            home_rendezvous = rendezvous_by_region[host_region]
        group.add_member(
            network, home_rendezvous, implementation, config, region=host_region
        )
    group.peers[0].bootstrap_election()
    return group
