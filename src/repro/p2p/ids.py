"""JXTA-style identifiers.

JXTA names every resource — here peers and peer groups — with a URN of the
form ``urn:jxta:uuid-<hex>``.  We generate the UUID part deterministically
from the resource's kind and name (SHA-256, UUIDv5-style), which keeps
whole simulations reproducible while preserving global uniqueness across
differently named resources.

IDs key every routing table and are compared on every datagram a peer
receives, so an id is slotted (no ``__dict__``) and ``==`` / ``hash`` work on
the hex string directly — identity first, then same class and same hex —
rather than on the one-field tuples the dataclass would build.  Ordering,
freezing and pickling stay the dataclass's (``tests/p2p/jxta_id_oracle.py``
keeps the plain dataclass the tests hold this one to).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["JxtaId", "PeerId", "PeerGroupId"]


@dataclass(frozen=True, order=True, slots=True)
class JxtaId:
    """Base identifier; subclasses fix the ``kind`` tag."""

    uuid_hex: str

    KIND = "generic"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.uuid_hex == other.uuid_hex
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.uuid_hex)

    @classmethod
    def from_name(cls, name: str) -> "JxtaId":
        digest = hashlib.sha256(f"jxta:{cls.KIND}:{name}".encode()).hexdigest()
        return cls(digest[:32].upper())

    @property
    def urn(self) -> str:
        return f"urn:jxta:uuid-{self.uuid_hex}"

    @classmethod
    def from_urn(cls, urn: str) -> "JxtaId":
        prefix = "urn:jxta:uuid-"
        if not urn.startswith(prefix):
            raise ValueError(f"not a JXTA URN: {urn!r}")
        return cls(urn[len(prefix):])

    def __str__(self) -> str:
        return self.urn

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.uuid_hex[:8]}…>"


class PeerId(JxtaId):
    """Identifies one peer."""

    __slots__ = ()
    KIND = "peer"


class PeerGroupId(JxtaId):
    """Identifies a peer group."""

    __slots__ = ()
    KIND = "peergroup"

