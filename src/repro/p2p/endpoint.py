"""The endpoint service: peer-ID-addressed messaging.

JXTA's endpoint service provides "an abstract network transport capable of
transporting messages between peers, either directly, or via relay peers"
(§5).  Ours does the same: peers address each other by :class:`PeerId`;
the endpoint resolves IDs to transport addresses from peer advertisements,
dispatches inbound messages to per-protocol listeners, and routes through
a relay when the destination is NAT-isolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set

from ..simnet.events import Interrupt
from ..simnet.message import Address, Message
from ..simnet.node import Node
from .ids import PeerId

__all__ = ["EndpointService", "EndpointMessage", "UnresolvablePeerError"]

#: The well-known port every peer's endpoint listens on.
ENDPOINT_PORT = 9701


class UnresolvablePeerError(Exception):
    """The endpoint has no route (no peer advertisement) for a peer ID."""


@dataclass(slots=True)
class EndpointMessage:
    """The JXTA-level message carried inside a transport datagram."""

    src_peer: PeerId
    dst_peer: PeerId
    protocol: str
    payload: Any
    #: When set, the message is being relayed: deliver to ``dst_peer``.
    relayed: bool = False
    #: Set by the one federated-rendezvous hop a relayed message may take
    #: (:meth:`RendezvousService._federated_relay`), so it takes no second.
    fed_hop: bool = False


#: Listener signature: ``listener(endpoint_message)``.
Listener = Callable[[EndpointMessage], None]


class EndpointService:
    """One peer's messaging endpoint."""

    def __init__(
        self,
        node: Node,
        peer_id: PeerId,
        port: int = ENDPOINT_PORT,
        nat_isolated: bool = False,
    ):
        self.node = node
        self.peer_id = peer_id
        self.port = port
        self.nat_isolated = nat_isolated
        self._routes: Dict[PeerId, Address] = {}
        #: Destinations reachable only through the relay; empty (and so
        #: never consulted by :meth:`send`) unless NAT peers are wired in.
        self._nat_peers: Set[PeerId] = set()
        self._listeners: Dict[str, Listener] = {}
        self.relay_peer: Optional[PeerId] = None
        #: Last-resort forwarding for relayed envelopes with no local route
        #: (federated rendezvous install one: the destination may be leased
        #: to a rendezvous in another region).  Returns True if it re-routed
        #: the envelope; the default None keeps the seed's drop behaviour.
        self.relay_fallback: Optional[
            Callable[[EndpointMessage, Message], bool]
        ] = None
        self.messages_in = 0
        self.messages_out = 0
        #: The bound socket.  Closed, not dropped, while the host is down:
        #: a send from a crashed host reaches the network, which records it
        #: and drops it ``src-down``.
        self._socket = None
        self.start()
        node.on_crash(lambda _node: self._socket.close())
        node.on_restart(lambda _node: self.start())

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._socket is not None and not self._socket.closed:
            return
        self._socket = self.node.transport.bind(self.port)
        self.node.spawn(self._receive_loop(), name=f"endpoint:{self.node.name}")

    @property
    def address(self) -> Address:
        return (self.node.name, self.port)

    # -- routing table ---------------------------------------------------------------

    def add_route(
        self, peer_id: PeerId, address: Address, nat_isolated: bool = False
    ) -> None:
        """Learn (typically from a peer advertisement) where a peer lives."""
        self._routes[peer_id] = address
        if nat_isolated:
            self._nat_peers.add(peer_id)
        elif self._nat_peers:
            self._nat_peers.discard(peer_id)

    def route_for(self, peer_id: PeerId) -> Optional[Address]:
        return self._routes.get(peer_id)

    def set_relay(self, relay_peer: PeerId) -> None:
        """Use ``relay_peer`` to reach NAT-isolated destinations."""
        self.relay_peer = relay_peer

    # -- listeners --------------------------------------------------------------------

    def register_listener(self, protocol: str, listener: Listener) -> None:
        """Dispatch inbound messages for ``protocol`` to ``listener``."""
        self._listeners[protocol] = listener

    def unregister_listener(self, protocol: str) -> None:
        self._listeners.pop(protocol, None)

    # -- sending -----------------------------------------------------------------------

    def send(
        self,
        dst_peer: PeerId,
        protocol: str,
        payload: Any,
        category: Optional[str] = None,
        size_bytes: int = 512,
    ) -> None:
        """Send a message to another peer by ID.

        Raises :class:`UnresolvablePeerError` when no route is known and no
        relay can help.  Sending is fire-and-forget (datagram semantics);
        loss happens silently, exactly like a real crashed peer.  One route
        lookup: the destination's, or the relay's when either end is behind
        a NAT.
        """
        relay_peer = self.relay_peer
        if (
            self.nat_isolated or self._nat_peers and dst_peer in self._nat_peers
        ) and dst_peer != relay_peer:
            if relay_peer is None:
                raise UnresolvablePeerError(
                    f"{dst_peer} is NAT-isolated and no relay is configured"
                )
            address = self._routes.get(relay_peer)
            if address is None:
                raise UnresolvablePeerError(f"no route to relay {relay_peer}")
            relayed = True
        else:
            address = self._routes.get(dst_peer)
            if address is None:
                raise UnresolvablePeerError(f"no route to {dst_peer}")
            relayed = False
        self.messages_out += 1
        self._socket.send(
            address,
            EndpointMessage(self.peer_id, dst_peer, protocol, payload, relayed),
            category or protocol,
            size_bytes,
        )

    def send_via(
        self,
        via_peer: PeerId,
        dst_peer: PeerId,
        protocol: str,
        payload: Any,
        category: Optional[str] = None,
        size_bytes: int = 512,
    ) -> None:
        """Send to ``dst_peer`` through ``via_peer`` (e.g. a rendezvous).

        Used when the sender has no direct route to the destination; the
        intermediate hop forwards from its own routing table.
        """
        address = self._routes.get(via_peer)
        if address is None:
            raise UnresolvablePeerError(f"no route to via-peer {via_peer}")
        self.messages_out += 1
        self._socket.send(
            address,
            EndpointMessage(self.peer_id, dst_peer, protocol, payload, True),
            category or protocol,
            size_bytes,
        )

    # -- receiving ----------------------------------------------------------------------

    def _receive_loop(self):
        socket = self._socket
        get = socket.inbox.get
        try:
            while True:
                message: Message = yield get()
                envelope = message.payload
                if not isinstance(envelope, EndpointMessage):
                    continue
                dst_peer = envelope.dst_peer
                if dst_peer is not self.peer_id and dst_peer != self.peer_id:
                    # We are acting as a relay hop: forward to the target.
                    self._relay_forward(envelope, message)
                    continue
                self.messages_in += 1
                listener = self._listeners.get(envelope.protocol)
                if listener is not None:
                    listener(envelope)
        except Interrupt:
            socket.close()

    def _relay_forward(self, envelope: EndpointMessage, message: Message) -> None:
        address = self._routes.get(envelope.dst_peer)
        if address is None:
            if self.relay_fallback is not None:
                self.relay_fallback(envelope, message)
            return  # relay cannot help locally; fallback or drop
        self._socket.send(address, envelope, message.category, message.size_bytes)
