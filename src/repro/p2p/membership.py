"""The membership service: credentials for group operations.

JXTA groups gate membership through a membership service that issues
credentials.  Whisper's groups are cooperative, so we implement the
``NullMembership``-style flow: ``join`` issues a credential naming the
peer and group.  The group service
and b-peers attach credentials to sensitive operations; verification
checks the (peer, group) binding and expiry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .ids import PeerGroupId, PeerId

__all__ = ["Credential", "MembershipService", "MembershipError"]

#: Credential validity period (seconds).
CREDENTIAL_LIFETIME = 3600.0


class MembershipError(Exception):
    """Raised for invalid membership operations."""


@dataclass(frozen=True)
class Credential:
    """Proof that a peer joined a group at a given time."""

    peer_id: PeerId
    group_id: PeerGroupId
    issued_at: float
    expires_at: float

    def valid_at(self, now: float) -> bool:
        return self.issued_at <= now < self.expires_at


class MembershipService:
    """Issues and verifies group credentials for one peer."""

    def __init__(self, peer_id: PeerId, clock):
        self.peer_id = peer_id
        self._clock = clock
        self._credentials: Dict[PeerGroupId, Credential] = {}

    def join(self, group_id: PeerGroupId) -> Credential:
        """Complete the join, obtaining a credential."""
        now = self._clock()
        credential = Credential(
            peer_id=self.peer_id,
            group_id=group_id,
            issued_at=now,
            expires_at=now + CREDENTIAL_LIFETIME,
        )
        self._credentials[group_id] = credential
        return credential

    def resign(self, group_id: PeerGroupId) -> None:
        """Discard the credential for a group."""
        self._credentials.pop(group_id, None)

    def current_credential(self, group_id: PeerGroupId) -> Optional[Credential]:
        credential = self._credentials.get(group_id)
        if credential is None or not credential.valid_at(self._clock()):
            return None
        return credential

    def verify(self, credential: Credential, group_id: PeerGroupId) -> None:
        """Raise :class:`MembershipError` unless the credential fits the group."""
        if credential.group_id != group_id:
            raise MembershipError(
                f"credential for {credential.group_id} presented to {group_id}"
            )
        if not credential.valid_at(self._clock()):
            raise MembershipError("credential expired")
