"""Network message model.

A :class:`Message` is what travels over simulated links.  Every message
carries a *category* string used by the global trace to attribute message
counts to protocol layers (discovery, heartbeat, election, request, ...),
which is what the paper's Figure 4 plots.

``Message`` is a hand-rolled ``__slots__`` class rather than a dataclass:
million-message runs allocate one of these per datagram, so it holds only
what the network, the trace and the receivers read — no per-instance
``__dict__``, no headers mapping, no send stamp or hop count nobody reads,
no dataclass ``__init__`` indirection (DESIGN.md §6.19 counts what one
datagram costs).
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Tuple

__all__ = ["Address", "Message"]

_MESSAGE_IDS = itertools.count(1)

#: A network address is ``(host_name, port)``.
Address = Tuple[str, int]


class Message:
    """A single datagram on the simulated network."""

    __slots__ = ("src", "dst", "payload", "category", "size_bytes", "msg_id", "correlation_id")

    def __init__(
        self,
        src: Address,
        dst: Address,
        payload: Any,
        category: str = "data",
        size_bytes: int = 512,
        correlation_id: Optional[int] = None,
    ):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.category = category
        self.size_bytes = size_bytes
        self.msg_id = next(_MESSAGE_IDS)
        self.correlation_id = correlation_id

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.category} "
            f"{self.src[0]}:{self.src[1]} -> {self.dst[0]}:{self.dst[1]}>"
        )
