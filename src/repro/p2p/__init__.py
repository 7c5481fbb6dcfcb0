"""A JXTA-like peer-to-peer infrastructure, built from scratch.

Whisper's fault tolerance rests on "the features and characteristics of
peer-to-peer networks" (§1), concretely JXTA 2.3.  This package implements
the protocol surface Whisper uses: peer/group/pipe identifiers, XML
advertisements (including the paper's new *semantic advertisements*,
§4.3), an endpoint service with relay routing, rendezvous peers with
leases + propagation + an SRDI index, a resolver, discovery with local
caches and remote queries, logical peer groups, pipes, and membership
credentials.
"""

from .advertisement import (
    DEFAULT_LIFETIME,
    AdvParseError,
    Advertisement,
    PeerAdvertisement,
    PeerGroupAdvertisement,
    PipeAdvertisement,
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
from .ids import WORLD_GROUP_ID, JxtaId, PeerGroupId, PeerId, PipeId
from .membership import Credential, MembershipError, MembershipService
from .peer import Peer
from .peergroup import GroupService, PeerGroupView
from .pipes import InputPipe, OutputPipe, PipeBindError, PipeService, PropagatePipe
from .relay import attach_nat_peer, configure_relay
from .rendezvous import RendezvousService
from .resolver import ResolverQuery, ResolverResponse, ResolverService

__all__ = [
    "AdvParseError",
    "Advertisement",
    "AdvertisementCache",
    "Credential",
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
    "InputPipe",
    "JxtaId",
    "MembershipError",
    "MembershipService",
    "OutputPipe",
    "Peer",
    "PeerAdvertisement",
    "PeerGroupAdvertisement",
    "PeerGroupId",
    "PeerGroupView",
    "PeerId",
    "PipeAdvertisement",
    "PipeBindError",
    "PipeId",
    "PipeService",
    "PropagatePipe",
    "RendezvousService",
    "ResolverQuery",
    "ResolverResponse",
    "ResolverService",
    "SemanticAdvertisement",
    "UnresolvablePeerError",
    "WORLD_GROUP_ID",
    "advertisement_from_xml",
    "attach_nat_peer",
    "configure_relay",
]
