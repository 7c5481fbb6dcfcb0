"""A JXTA-like peer-to-peer infrastructure, built from scratch.

Whisper's fault tolerance rests on "the features and characteristics of
peer-to-peer networks" (§1), concretely JXTA 2.3.  This package implements
the protocol surface Whisper uses: peer and group identifiers, XML
advertisements (peer advertisements and the paper's new *semantic
advertisements*, §4.3), an endpoint service with relay routing, rendezvous
peers with leases + propagation + an SRDI index, a resolver, discovery
with local caches and remote queries, and logical peer groups.  JXTA's
pipes and membership credentials are left out: a b-peer group finds its
members through its semantic advertisement, reaches its coordinator
through the resolver and messages members directly.
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
from .relay import attach_nat_peer, configure_relay
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
    "attach_nat_peer",
    "configure_relay",
]
