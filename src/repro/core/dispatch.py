"""Pluggable load-aware dispatch for b-peer coordinators.

§4.1 claims the redundancy mechanism "makes possible to also address
scalability requirements through load-sharing", but the paper never says
*how* the coordinator spreads work.  The seed implementation cycled
blindly (round-robin) with unbounded queues, which melts down past
saturation: slow members accumulate backlog while fast members idle.

This module makes the coordinator's choice a policy object, in the spirit
of the CERN peer-group line of work (adaptive member selection from
observed load):

* :class:`RoundRobinDispatch` — the paper-faithful blind rotation;
* :class:`LeastOutstandingDispatch` — pick the member with the fewest
  requests in flight (adaptive capacity: a slow or struggling member
  naturally receives less work).

Policies see only what a coordinator can actually know: the current group
view and a per-member :class:`MemberLoad` ledger fed by dispatch
accounting and members' completion reports.  Crashed members drop out of
the view (the failure detector prunes them), so every policy skips them
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

from ..p2p.ids import PeerId
from ..qos.metrics import QosMetrics

__all__ = [
    "MemberLoad",
    "DispatchPolicy",
    "RoundRobinDispatch",
    "LeastOutstandingDispatch",
    "dispatch_policy",
    "DISPATCH_POLICIES",
]


@dataclass
class MemberLoad:
    """What the coordinator knows about one member's load.

    ``outstanding`` counts requests dispatched to the member and not yet
    reported complete; ``qos`` is the member's last self-reported QoS
    snapshot (``None`` until the first completion report arrives).
    """

    outstanding: int = 0
    qos: Optional[QosMetrics] = field(default=None)


class DispatchPolicy:
    """Chooses which group member serves the next request."""

    name = "base"

    def choose(
        self, members: Sequence[PeerId], load: Dict[PeerId, MemberLoad]
    ) -> Optional[PeerId]:
        """Pick one of ``members`` (the coordinator's live view) or None."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class RoundRobinDispatch(DispatchPolicy):
    """Blind rotation over the member view, by member identity.

    The rotation remembers the *identity* of the last-served member and
    advances to the next live member in sorted-id order (wrapping), not a
    positional cursor into the view list.  A positional cursor skews when
    the view shrinks or grows mid-rotation (failover, autoscale): the
    same member can be served twice in a cycle while another is skipped
    entirely.  Identity rotation guarantees every continuously-live
    member is served exactly once per cycle regardless of churn.
    """

    name = "round-robin"

    def __init__(self):
        self._last: Optional[PeerId] = None

    def choose(
        self, members: Sequence[PeerId], load: Dict[PeerId, MemberLoad]
    ) -> Optional[PeerId]:
        if not members:
            return None
        ordered = sorted(members, key=str)
        if self._last is not None:
            last_key = str(self._last)
            for member in ordered:
                if str(member) > last_key:
                    self._last = member
                    return member
        self._last = ordered[0]
        return ordered[0]


class LeastOutstandingDispatch(DispatchPolicy):
    """Send to the member with the fewest requests in flight.

    Ties break on the stable member ordering (sorted peer ids), so runs
    are deterministic; a member the ledger has never seen counts as idle.
    """

    name = "least-outstanding"

    def choose(
        self, members: Sequence[PeerId], load: Dict[PeerId, MemberLoad]
    ) -> Optional[PeerId]:
        if not members:
            return None
        return min(
            members,
            key=lambda member: (
                load[member].outstanding if member in load else 0,
                str(member),
            ),
        )


#: Policy registry for string specs (config files, CLI flags).
DISPATCH_POLICIES = {
    RoundRobinDispatch.name: RoundRobinDispatch,
    LeastOutstandingDispatch.name: LeastOutstandingDispatch,
}

DispatchSpec = Union[str, DispatchPolicy, None]


def dispatch_policy(spec: DispatchSpec) -> DispatchPolicy:
    """Resolve a policy name / instance / None into a policy object.

    Policies are stateful (cursors), so each coordinator gets its own
    instance — pass a name (or None for the round-robin default) unless
    you deliberately want shared state.
    """
    if spec is None:
        return RoundRobinDispatch()
    if isinstance(spec, DispatchPolicy):
        return spec
    try:
        return DISPATCH_POLICIES[spec]()
    except KeyError:
        raise ValueError(
            f"unknown dispatch policy {spec!r}; "
            f"expected one of {sorted(DISPATCH_POLICIES)}"
        ) from None
