"""The peer: one participant on the JXTA-like network.

A :class:`Peer` stacks the protocol services on one simulated host:
endpoint → (rendezvous, resolver) → discovery / groups / pipes /
membership.  B-peers (:mod:`repro.core.bpeer`) build on this class.
"""

from __future__ import annotations

from typing import Optional

from ..simnet.node import Node
from .advertisement import PeerAdvertisement
from .cache import AdvertisementCache
from .discovery import DiscoveryService
from .endpoint import ENDPOINT_PORT, EndpointService
from .ids import PeerId
from .membership import MembershipService
from .peergroup import GroupService
from .pipes import PipeService
from .rendezvous import RendezvousService
from .resolver import ResolverService

__all__ = ["Peer"]


class Peer:
    """A full JXTA-like protocol stack on one host."""

    def __init__(
        self,
        node: Node,
        name: Optional[str] = None,
        is_rendezvous: bool = False,
        nat_isolated: bool = False,
        port: int = ENDPOINT_PORT,
    ):
        self.node = node
        self.env = node.env
        self.name = name or node.name
        self.peer_id = PeerId.from_name(self.name)
        self.endpoint = EndpointService(
            node, self.peer_id, port=port, nat_isolated=nat_isolated
        )
        self.cache = AdvertisementCache(
            clock=lambda: self.env.now, metrics=node.network.obs.metrics
        )
        self.rendezvous = RendezvousService(self.endpoint, is_rendezvous=is_rendezvous)
        self.resolver = ResolverService(self.endpoint, self.rendezvous)
        self.discovery = DiscoveryService(self.resolver, self.cache, self.rendezvous)
        self.groups = GroupService(self.endpoint, self.rendezvous, self.resolver)
        self.pipes = PipeService(self.endpoint, self.resolver, self.rendezvous)
        self.membership = MembershipService(self.peer_id, clock=lambda: self.env.now)

    # -- convenience -----------------------------------------------------------------

    def advertisement(self) -> PeerAdvertisement:
        """This peer's own peer advertisement."""
        return PeerAdvertisement(
            peer_id=self.peer_id,
            name=self.name,
            host=self.node.name,
            port=self.endpoint.port,
        )

    def publish_self(self, remote: bool = True) -> PeerAdvertisement:
        """Publish this peer's advertisement (locally, and via SRDI)."""
        advertisement = self.advertisement()
        self.discovery.publish(advertisement, remote=remote)
        return advertisement

    def attach_to(self, rendezvous_peer: "Peer") -> None:
        """Connect to a rendezvous peer (lease + route setup)."""
        self.endpoint.add_route(
            rendezvous_peer.peer_id, rendezvous_peer.endpoint.address
        )
        self.rendezvous.connect(rendezvous_peer.peer_id)

    def learn_route_to(self, other: "Peer") -> None:
        """Directly learn another peer's address (same-LAN shortcut)."""
        self.endpoint.add_route(other.peer_id, other.endpoint.address)

    def __repr__(self) -> str:
        role = "rdv" if self.rendezvous.is_rendezvous else "edge"
        return f"<Peer {self.name} ({role}) on {self.node.name}>"

