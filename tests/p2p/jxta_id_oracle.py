"""The JXTA identifier as a plain frozen dataclass, kept as the oracle.

``repro.p2p.ids.JxtaId`` is slotted and compares and hashes its hex string
directly; this is the class it replaced, unchanged but for its name, so
``test_jxta_id_oracle.py`` can hold the two to the same behaviour.
"""

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class JxtaId:
    """Base identifier; subclasses fix the ``kind`` tag."""

    uuid_hex: str

    KIND = "generic"

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
    KIND = "peer"


class PeerGroupId(JxtaId):
    KIND = "peergroup"
