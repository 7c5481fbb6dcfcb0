"""Election epochs: fencing tokens for coordinator announcements.

Bully has no quorum, so after a partition two sides may each elect a
coordinator and — worse — a healed ex-coordinator may keep serving
requests it has no right to serve.  Following the peer-group availability
design of Jan et al. ("Exploiting peer group concept for adaptive and
highly available services"), every COORDINATOR announcement is stamped
with a monotonically increasing :class:`Epoch`; proxies bind to *(peer,
epoch)* pairs and b-peers reject requests addressed to a stale epoch.

An epoch is a ``(counter, owner)`` pair ordered lexicographically.  The
owner component makes every minted epoch globally unique without any
coordination: two partitioned winners may both pick counter *n + 1*, but
their full epochs still differ, so "at most one coordinator per epoch"
holds by construction and is *checkable* — a campaign can verify that no
two peers ever announced the same full epoch, and that no peer announced
an epoch it does not own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Epoch", "GENESIS"]


@dataclass(frozen=True)
class Epoch:
    """One coordinator term: a counter tie-broken by the winner's id."""

    counter: int = 0
    #: ``uuid_hex`` of the peer that minted (and coordinates) this epoch.
    owner_hex: str = ""

    def key(self) -> Tuple[int, str]:
        return (self.counter, self.owner_hex)

    def next_for(self, owner_hex: str) -> "Epoch":
        """The epoch a new winner mints on top of the highest it has seen."""
        return Epoch(self.counter + 1, owner_hex)

    # -- ordering (lexicographic on (counter, owner)) -------------------------------

    def __lt__(self, other: "Epoch") -> bool:
        return self.key() < other.key()

    def __gt__(self, other: "Epoch") -> bool:
        return self.key() > other.key()

    def __ge__(self, other: "Epoch") -> bool:
        return self.key() >= other.key()

    def __str__(self) -> str:
        owner = self.owner_hex[:8] if self.owner_hex else "-"
        return f"e{self.counter}@{owner}"


#: The pre-election epoch: below every minted epoch.
GENESIS = Epoch()
