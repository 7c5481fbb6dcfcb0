"""A JXTA-like peer-to-peer infrastructure, built from scratch.

Whisper's fault tolerance rests on "the features and characteristics of
peer-to-peer networks" (§1), concretely JXTA 2.3.  This package implements
the protocol surface Whisper uses: peer and group identifiers, XML
advertisements (peer advertisements and the paper's new *semantic
advertisements*, §4.3), an endpoint service that sends by route (or
through the rendezvous when it has none), rendezvous peers with leases +
propagation + an SRDI index, a resolver, discovery with local caches and
remote queries, and logical peer groups.  JXTA's pipes, membership
credentials and NAT relays are left out: a b-peer group finds its members
through its semantic advertisement, reaches its coordinator through the
resolver and messages members directly, and the paper's testbed is one
LAN.
"""

from .advertisement import (
    DEFAULT_LIFETIME,
    AdvParseError,
    Advertisement,
    PeerAdvertisement,
    SemanticAdvertisement,
    advertisement_from_xml,
)
from .cache import AdvertisementCache
from .discovery import DiscoveryQuery, DiscoveryService
from .endpoint import (
    ENDPOINT_PORT,
    EndpointMessage,
    EndpointService,
    UnresolvablePeerError,
)
from .gossip import GOSSIP_PROTOCOL, GossipEntry, GossipService
from .ids import JxtaId, PeerGroupId, PeerId
from .peer import Peer
from .peergroup import GroupService, PeerGroupView
from .rendezvous import RendezvousService
from .resolver import ResolverQuery, ResolverResponse, ResolverService

__all__ = [
    "AdvParseError",
    "Advertisement",
    "AdvertisementCache",
    "DEFAULT_LIFETIME",
    "DiscoveryQuery",
    "DiscoveryService",
    "ENDPOINT_PORT",
    "EndpointMessage",
    "EndpointService",
    "GOSSIP_PROTOCOL",
    "GossipEntry",
    "GossipService",
    "GroupService",
    "JxtaId",
    "Peer",
    "PeerAdvertisement",
    "PeerGroupId",
    "PeerGroupView",
    "PeerId",
    "RendezvousService",
    "ResolverQuery",
    "ResolverResponse",
    "ResolverService",
    "SemanticAdvertisement",
    "UnresolvablePeerError",
    "advertisement_from_xml",
]
