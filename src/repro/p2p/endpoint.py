"""The endpoint service: peer-ID-addressed messaging.

JXTA's endpoint service provides "an abstract network transport capable of
transporting messages between peers, either directly, or via relay peers"
(§5).  Ours sends by route only: peers address each other by
:class:`PeerId`, the endpoint resolves IDs to transport addresses from peer
advertisements and dispatches inbound messages to per-protocol listeners.
The one relay is the rendezvous: :meth:`EndpointService.send_via` hands an
envelope to it when the sender has no direct route, and a peer that
receives an envelope addressed to another forwards it by its own routes.
JXTA's NAT traversal is left out: the paper's testbed is one LAN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

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
    #: Set by the one federated-rendezvous hop a relayed message may take
    #: (:meth:`RendezvousService._federated_relay`), so it takes no second.
    fed_hop: bool = False


#: Listener signature: ``listener(endpoint_message)``.
Listener = Callable[[EndpointMessage], None]


class EndpointService:
    """One peer's messaging endpoint."""

    def __init__(self, node: Node, peer_id: PeerId):
        self.node = node
        self.peer_id = peer_id
        self._routes: Dict[PeerId, Address] = {}
        self._listeners: Dict[str, Listener] = {}
        #: Last-resort forwarding for relayed envelopes with no local route
        #: (federated rendezvous install one: the destination may be leased
        #: to a rendezvous in another region).  With none, such an envelope
        #: is dropped.
        self.relay_fallback: Optional[
            Callable[[EndpointMessage, Message], None]
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
        self._socket = self.node.transport.bind(ENDPOINT_PORT, self._receive)
        self.node.spawn(self._receive_loop(), name=f"endpoint:{self.node.name}")

    @property
    def address(self) -> Address:
        return (self.node.name, ENDPOINT_PORT)

    # -- routing table ---------------------------------------------------------------

    def add_route(self, peer_id: PeerId, address: Address) -> None:
        """Learn (typically from a peer advertisement) where a peer lives."""
        self._routes[peer_id] = address

    def route_for(self, peer_id: PeerId) -> Optional[Address]:
        return self._routes.get(peer_id)

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

        Raises :class:`UnresolvablePeerError` when no route is known.
        Sending is fire-and-forget (datagram semantics); loss happens
        silently, exactly like a real crashed peer.
        """
        address = self._routes.get(dst_peer)
        if address is None:
            raise UnresolvablePeerError(f"no route to {dst_peer}")
        self.messages_out += 1
        self._socket.send(
            address,
            EndpointMessage(self.peer_id, dst_peer, protocol, payload),
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
            EndpointMessage(self.peer_id, dst_peer, protocol, payload),
            category or protocol,
            size_bytes,
        )

    def forward(self, address: Address, envelope: EndpointMessage, message: Message) -> None:
        """Pass a relayed ``envelope`` on to ``address`` unchanged, in a
        datagram of ``message``'s category and size.  A relay hop is not a
        send of this peer's: ``messages_out`` does not count it."""
        self._socket.send(address, envelope, message.category, message.size_bytes)

    # -- receiving ----------------------------------------------------------------------

    def _receive_loop(self):
        socket = self._socket
        get = socket.inbox.get
        receive = socket.receiver
        try:
            while True:
                receive((yield get()))
        except Interrupt:
            socket.close()

    def _receive(self, message: Message) -> None:
        """The receive loop's body, also run in the arrival event itself
        (:attr:`~repro.simnet.transport.Socket.receiver`)."""
        envelope = message.payload
        if not isinstance(envelope, EndpointMessage):
            return
        dst_peer = envelope.dst_peer
        if dst_peer is not self.peer_id and dst_peer != self.peer_id:
            # We are acting as a relay hop: forward to the target.
            self._relay_forward(envelope, message)
            return
        self.messages_in += 1
        listener = self._listeners.get(envelope.protocol)
        if listener is not None:
            listener(envelope)

    def _relay_forward(self, envelope: EndpointMessage, message: Message) -> None:
        address = self._routes.get(envelope.dst_peer)
        if address is not None:
            self.forward(address, envelope, message)
        elif self.relay_fallback is not None:
            self.relay_fallback(envelope, message)
