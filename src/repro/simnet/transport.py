"""Datagram transport: port-addressed sockets on a host.

This is the lowest messaging layer services see.  A socket is bound to one
port; ``send`` hands a :class:`~repro.simnet.message.Message` to the
network, ``recv`` yields the next inbound message (or the network hands it
to the socket's ``receiver``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .message import Address, Message
from .queues import Store, StoreGet

__all__ = ["Transport", "Socket", "PortInUseError"]


#: The IANA dynamic range: ephemeral ports are handed out round-robin.
_EPHEMERAL = range(49152, 65536)

#: The body of a socket's receive loop, called with each inbound message.
Receiver = Callable[[Message], None]


class PortInUseError(Exception):
    """Raised when binding a port that already has a socket."""


class Socket:
    """A bound datagram endpoint ``(host, port)``.

    A closed socket still sends: its host is down, so the network records
    the datagram and drops it ``src-down``, as for any send from a crashed
    host.
    """

    def __init__(self, transport: "Transport", port: int, receiver: Optional[Receiver] = None):
        node = transport.node
        self._transport = transport
        self._network = node.network
        self.port = port
        self.address: Address = (node.name, port)
        self.inbox = Store(node.env)
        #: The body of the loop that reads :attr:`inbox`, if that loop does
        #: nothing but ``receiver((yield inbox.get()))``: the network may
        #: run it inside the arrival event instead (DESIGN.md §6.9).
        self.receiver = receiver
        self.closed = False

    def send(
        self,
        dst: Address,
        payload: Any,
        category: str = "data",
        size_bytes: int = 512,
        correlation_id: Optional[int] = None,
    ) -> Message:
        """Send a datagram; returns the message object (already in flight)."""
        message = Message(self.address, dst, payload, category, size_bytes, correlation_id)
        self._network.send(message)
        return message

    def recv(self) -> StoreGet:
        """Event that fires with the next inbound message."""
        return self.inbox.get()

    def close(self) -> None:
        """Unbind the socket; further traffic to this port is dropped."""
        if not self.closed:
            self.closed = True
            self._transport.unbind(self.port)


class Transport:
    """All sockets of one host."""

    def __init__(self, node):
        self.node = node
        self._sockets: Dict[int, Socket] = {}
        self._next_ephemeral = _EPHEMERAL.start

    def bind(self, port: Optional[int] = None, receiver: Optional[Receiver] = None) -> Socket:
        """Bind a port (or allocate an ephemeral one) and return a socket
        whose receive loop's body is ``receiver`` (:attr:`Socket.receiver`)."""
        if port is None:
            # One lap at most: a range with no free port fails the check below.
            for _ in _EPHEMERAL:
                port = self._next_ephemeral
                self._next_ephemeral = port + 1 if port + 1 in _EPHEMERAL else _EPHEMERAL.start
                if port not in self._sockets:
                    break
        if port in self._sockets:
            raise PortInUseError(f"{self.node.name}:{port} is already bound")
        socket = Socket(self, port, receiver)
        self._sockets[port] = socket
        return socket

    def unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    def socket_at(self, port: int) -> Optional[Socket]:
        """The open socket bound to ``port`` (``None``: traffic to it drops)."""
        socket = self._sockets.get(port)
        if socket is None or socket.closed:
            return None
        return socket

    def flush(self) -> None:
        """Discard every queued inbound message (host crash)."""
        for socket in self._sockets.values():
            socket.inbox.items.clear()
