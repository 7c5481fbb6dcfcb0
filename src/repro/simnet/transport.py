"""Datagram transport: port-addressed sockets on a host.

This is the lowest messaging layer services see.  A socket is bound to one
port; ``send`` hands a :class:`~repro.simnet.message.Message` to the
network, ``recv`` yields the next inbound message.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .message import Address, Message
from .queues import Store, StoreGet

__all__ = ["Transport", "Socket", "PortInUseError"]


#: The IANA dynamic range: ephemeral ports are handed out round-robin.
_EPHEMERAL = range(49152, 65536)


class PortInUseError(Exception):
    """Raised when binding a port that already has a socket."""


class Socket:
    """A bound datagram endpoint ``(host, port)``."""

    def __init__(self, transport: "Transport", port: int):
        self._transport = transport
        self.port = port
        self.inbox = Store(transport.node.env)
        self.closed = False

    @property
    def address(self) -> Address:
        return (self._transport.node.name, self.port)

    def send(
        self,
        dst: Address,
        payload: Any,
        category: str = "data",
        size_bytes: int = 512,
        correlation_id: Optional[int] = None,
    ) -> Message:
        """Send a datagram; returns the message object (already in flight)."""
        message = Message(
            src=self.address,
            dst=dst,
            payload=payload,
            category=category,
            size_bytes=size_bytes,
            correlation_id=correlation_id,
        )
        self._transport.node.network.send(message)
        return message

    def send_message(self, message: Message) -> Message:
        """Send a pre-built message (its ``src`` must be this socket)."""
        if message.src != self.address:
            raise ValueError(
                f"message src {message.src} does not match socket {self.address}"
            )
        self._transport.node.network.send(message)
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

    def bind(self, port: Optional[int] = None) -> Socket:
        """Bind a port (or allocate an ephemeral one) and return a socket."""
        if port is None:
            # One lap at most: a range with no free port fails the check below.
            for _ in _EPHEMERAL:
                port = self._next_ephemeral
                self._next_ephemeral = port + 1 if port + 1 in _EPHEMERAL else _EPHEMERAL.start
                if port not in self._sockets:
                    break
        if port in self._sockets:
            raise PortInUseError(f"{self.node.name}:{port} is already bound")
        socket = Socket(self, port)
        self._sockets[port] = socket
        return socket

    def unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    def deliver(self, message: Message) -> bool:
        """Hand an inbound message to the right socket.

        Returns False (message dropped) if the port is unbound or the host
        is down.
        """
        if not self.node.up:
            return False
        socket = self._sockets.get(message.dst[1])
        if socket is None or socket.closed:
            return False
        socket.inbox.push(message)
        return True

    def flush(self) -> None:
        """Discard every queued inbound message (host crash)."""
        for socket in self._sockets.values():
            socket.inbox.items.clear()
