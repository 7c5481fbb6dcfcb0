"""The rendezvous service: leases, propagation, and the SRDI index.

JXTA networks scale by electing a few *rendezvous* peers that ordinary
*edge* peers connect to.  Edges hold a renewable lease with their
rendezvous; queries that need to reach "the network" are handed to the
rendezvous, which propagates them to its connected edges and consults its
Shared Resource Distributed Index (SRDI) of advertisement keys pushed by
edges.  Lease-renewal traffic is part of the per-peer message cost that
Figure 4 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..simnet.events import Interrupt
from ..simnet.message import Address
from .advertisement import Advertisement, advertisement_from_xml
from .endpoint import EndpointMessage, EndpointService
from .ids import PeerId

__all__ = ["RendezvousService", "PROTOCOL", "LEASE_DURATION"]

PROTOCOL = "jxta:rdv"

#: Default lease duration and renewal period (seconds).
LEASE_DURATION = 30.0
RENEW_PERIOD = LEASE_DURATION / 2


@dataclass
class _LeaseRequest:
    peer_id: PeerId
    address: Address


@dataclass
class _LeaseGrant:
    rendezvous_id: PeerId
    duration: float


@dataclass
class _PropagateRequest:
    """An edge asks its rendezvous to fan a datagram out to the group."""

    protocol: str
    payload: Any
    origin: PeerId
    ttl: int = 2


@dataclass
class _SrdiPush:
    """An edge pushes advertisement XML to the rendezvous index."""

    origin: PeerId
    documents: List[str] = field(default_factory=list)


class RendezvousService:
    """Either side of the rendezvous protocol, depending on ``is_rendezvous``."""

    def __init__(
        self,
        endpoint: EndpointService,
        is_rendezvous: bool = False,
    ):
        self.endpoint = endpoint
        self.env = endpoint.node.env
        self.is_rendezvous = is_rendezvous
        self.lease_duration = LEASE_DURATION
        #: rendezvous side: connected edge peers -> lease expiry time.
        self.clients: Dict[PeerId, float] = {}
        #: edge side: the rendezvous we hold a lease with.
        self.connected_to: Optional[PeerId] = None
        self.lease_expires_at: float = 0.0
        #: rendezvous side: SRDI advertisement documents by key.
        self.srdi: Dict[str, Tuple[PeerId, Advertisement]] = {}
        #: federation links to rendezvous peers in *other* regions
        #: (``peer_id -> address``).  Empty on single-region deployments,
        #: which keeps every code path below byte-identical to the seed.
        self.federated: Dict[PeerId, Address] = {}
        #: observers of inbound SRDI pushes, ``(key, origin, adv, xml)`` —
        #: the gossip layer subscribes here to pick up fresh advertisements.
        self.on_srdi_push: List[Callable[[str, PeerId, Advertisement, str], None]] = []
        #: local dispatch for propagated datagrams: protocol -> callback.
        self._propagate_listeners: Dict[str, Callable[[Any, PeerId], None]] = {}
        self._renew_process = None
        endpoint.register_listener(PROTOCOL, self._on_message)
        endpoint.node.on_crash(lambda _node: self._on_crash())

    # -- edge side ------------------------------------------------------------------

    def connect(self, rendezvous_id: PeerId) -> None:
        """Request a lease with ``rendezvous_id`` and keep renewing it."""
        self.connected_to = rendezvous_id
        self._send_lease_request()
        if self._renew_process is None or not self._renew_process.is_alive:
            self._renew_process = self.endpoint.node.spawn(
                self._renew_loop(), name=f"rdv-renew:{self.endpoint.node.name}"
            )

    def _send_lease_request(self) -> None:
        request = _LeaseRequest(self.endpoint.peer_id, self.endpoint.address)
        self.endpoint.send(
            self.connected_to,
            PROTOCOL,
            ("lease-request", request),
            category="rdv-lease",
            size_bytes=256,
        )

    def _renew_loop(self):
        try:
            while True:
                yield self.env.timeout(self.lease_duration / 2)
                if self.connected_to is not None:
                    self._send_lease_request()
        except Interrupt:
            return

    @property
    def has_lease(self) -> bool:
        return self.connected_to is not None and self.env.now < self.lease_expires_at

    # -- federation (multi-region) --------------------------------------------------------

    def federate_with(self, peer_id: PeerId, address: Address) -> None:
        """Link this rendezvous to a peer-region rendezvous.

        Federated rendezvous forward propagated datagrams across the WAN
        (queries keep the paper's flood semantics between regions) and act
        as a relay of last resort for responses addressed to peers leased
        in another region.
        """
        if peer_id == self.endpoint.peer_id:
            return
        self.federated[peer_id] = address
        self.endpoint.add_route(peer_id, address)
        if self.endpoint.relay_fallback is None:
            self.endpoint.relay_fallback = self._federated_relay

    def _federated_relay(self, envelope, message) -> None:
        """Forward an unroutable relayed envelope to the other regions.

        One federated hop only (the envelope's ``fed_hop`` flag stops loops):
        the region actually holding the destination's lease has a route and
        delivers; the others drop silently, like any relay without a route.
        """
        if envelope.fed_hop:
            return
        envelope.fed_hop = True
        for address in self.federated.values():
            self.endpoint.forward(address, envelope, message)

    def _fan_out_federated(self, request: "_PropagateRequest", size_bytes: int) -> None:
        """Forward a propagated datagram to every federated rendezvous."""
        if not self.federated or request.ttl <= 0:
            return
        forwarded = _PropagateRequest(
            protocol=request.protocol,
            payload=request.payload,
            origin=request.origin,
            ttl=request.ttl - 1,
        )
        for peer_id in sorted(self.federated, key=lambda pid: pid.uuid_hex):
            self.endpoint.send(
                peer_id,
                PROTOCOL,
                ("propagate-fed", forwarded),
                category="rdv-propagate-fed",
                size_bytes=size_bytes,
            )

    # -- propagation --------------------------------------------------------------------

    def register_propagate_listener(
        self, protocol: str, listener: Callable[[Any, PeerId], None]
    ) -> None:
        """Receive datagrams propagated under ``protocol``."""
        self._propagate_listeners[protocol] = listener

    def propagate(self, protocol: str, payload: Any, size_bytes: int = 512) -> None:
        """Deliver ``payload`` to every reachable peer in the group.

        On a rendezvous this fans out to every leased edge; on an edge it
        asks the connected rendezvous to do so.  The origin also processes
        the datagram locally (JXTA loopback semantics).
        """
        origin = self.endpoint.peer_id
        request = _PropagateRequest(protocol=protocol, payload=payload, origin=origin)
        self._dispatch_local(request)
        if self.is_rendezvous:
            self._fan_out(request, exclude={origin}, size_bytes=size_bytes)
            self._fan_out_federated(request, size_bytes=size_bytes)
        elif self.connected_to is not None:
            self.endpoint.send(
                self.connected_to,
                PROTOCOL,
                ("propagate", request),
                category="rdv-propagate",
                size_bytes=size_bytes,
            )

    def _fan_out(
        self, request: _PropagateRequest, exclude: Set[PeerId], size_bytes: int = 512
    ) -> None:
        self._expire_clients()
        for client in sorted(self.clients, key=lambda pid: pid.uuid_hex):
            if client in exclude:
                continue
            self.endpoint.send(
                client,
                PROTOCOL,
                ("propagate-deliver", request),
                category="rdv-propagate",
                size_bytes=size_bytes,
            )

    def _dispatch_local(self, request: _PropagateRequest) -> None:
        listener = self._propagate_listeners.get(request.protocol)
        if listener is not None:
            listener(request.payload, request.origin)

    # -- SRDI ------------------------------------------------------------------------------

    def push_srdi(self, advertisements: List[Advertisement]) -> None:
        """Edge side: push advertisement documents to the rendezvous index."""
        if self.connected_to is None:
            return
        push = _SrdiPush(
            origin=self.endpoint.peer_id,
            documents=[adv.to_xml() for adv in advertisements],
        )
        total = sum(len(doc.encode()) for doc in push.documents) + 128
        self.endpoint.send(
            self.connected_to,
            PROTOCOL,
            ("srdi-push", push),
            category="srdi",
            size_bytes=total,
        )

    def srdi_lookup(self, predicate: Callable[[Advertisement], bool]) -> List[Advertisement]:
        """Rendezvous side: all indexed advertisements matching ``predicate``."""
        return [adv for (_origin, adv) in self.srdi.values() if predicate(adv)]

    # -- message handling ------------------------------------------------------------------

    def _on_message(self, message: EndpointMessage) -> None:
        kind, body = message.payload
        if kind == "lease-request" and self.is_rendezvous:
            request: _LeaseRequest = body
            self.endpoint.add_route(request.peer_id, request.address)
            self.clients[request.peer_id] = self.env.now + self.lease_duration
            grant = _LeaseGrant(self.endpoint.peer_id, self.lease_duration)
            self.endpoint.send(
                request.peer_id,
                PROTOCOL,
                ("lease-grant", grant),
                category="rdv-lease",
                size_bytes=128,
            )
        elif kind == "lease-grant":
            grant: _LeaseGrant = body
            if grant.rendezvous_id == self.connected_to:
                self.lease_expires_at = self.env.now + grant.duration
        elif kind == "propagate" and self.is_rendezvous:
            request: _PropagateRequest = body
            self._dispatch_local(request)
            self._fan_out(request, exclude={request.origin, message.src_peer})
            self._fan_out_federated(request, size_bytes=512)
        elif kind == "propagate-fed" and self.is_rendezvous:
            # A peer-region rendezvous forwarded a propagated datagram:
            # deliver locally and to our own edges, but never re-federate
            # (the federation graph is complete; one WAN hop reaches all).
            request: _PropagateRequest = body
            self._dispatch_local(request)
            self._fan_out(request, exclude={request.origin, message.src_peer})
        elif kind == "propagate-deliver":
            self._dispatch_local(body)
        elif kind == "srdi-push" and self.is_rendezvous:
            push: _SrdiPush = body
            for document in push.documents:
                advertisement = advertisement_from_xml(document)
                key = advertisement.key()
                self.srdi[key] = (push.origin, advertisement)
                for hook in self.on_srdi_push:
                    hook(key, push.origin, advertisement, document)

    def _expire_clients(self) -> None:
        now = self.env.now
        expired = [peer for peer, expiry in self.clients.items() if expiry <= now]
        for peer in expired:
            del self.clients[peer]
            # Drop the dead edge's SRDI entries with it.
            stale = [
                key for key, (origin, _adv) in self.srdi.items() if origin == peer
            ]
            for key in stale:
                del self.srdi[key]

    def _on_crash(self) -> None:
        self.clients.clear()
        self.srdi.clear()
        self.connected_to = None
        self.lease_expires_at = 0.0
        self._renew_process = None
