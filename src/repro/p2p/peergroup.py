"""Peer groups: logical clusters of peers implementing one service.

"Peers are self-organized into b-peer groups which are logical rather than
physical entities" (§4.1).  The group service tracks, per peer, which
groups it belongs to and who the other members are.  Membership converges
through three complementary mechanisms, all with *linear* aggregate
message cost (this is one of the levers behind Figure 4's linear shape):

1. a one-time *join* announcement propagated through the rendezvous, to
   which existing members respond with a *member-sync* roster unicast;
2. a periodic *membership renewal* each member sends to its rendezvous,
   which maintains an expiring membership index per group (the same
   pattern as JXTA's SRDI advertisement index);
3. a periodic *roster query* each member issues against that index,
   repairing any view divergence within one period.

In multi-region deployments a rendezvous forwards each renewal it applies
to its federated peers once, so every region's membership index converges
on the full roster.  Without this, roster repair is region-local: a peer
that restarts and loses its view could only ever re-learn members leased
in its own region, and its coordinator announcements would silently skip
the rest of the group.  Single-region deployments have no federation
links, so the seed's message sequence is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..simnet.events import Interrupt
from ..simnet.message import Address
from .advertisement import Advertisement
from .endpoint import EndpointMessage, EndpointService, UnresolvablePeerError
from .ids import PeerGroupId, PeerId
from .rendezvous import RendezvousService
from .resolver import ResolverQuery, ResolverService

__all__ = ["GroupService", "PeerGroupView", "PROTOCOL", "ANNOUNCE_PERIOD"]

PROTOCOL = "whisper:group"
ROSTER_HANDLER = "whisper:group-roster"

#: Period of membership renewals and roster refreshes.
ANNOUNCE_PERIOD = 5.0

#: How many periods a membership-index entry survives without renewal.
RENEWAL_GRACE = 2.5


@dataclass
class PeerGroupView:
    """One peer's view of a group it belongs to (or observes)."""

    group_id: PeerGroupId
    name: str
    members: Set[PeerId] = field(default_factory=set)
    advertisement: Optional[Advertisement] = None

    def sorted_members(self) -> List[PeerId]:
        return sorted(self.members, key=lambda pid: pid.uuid_hex)


@dataclass
class _JoinAnnouncement:
    group_id: PeerGroupId
    group_name: str
    peer_id: PeerId
    address: Address


@dataclass
class _MemberSync:
    group_id: PeerGroupId
    members: List[Tuple[PeerId, Address]]


@dataclass
class _LeaveAnnouncement:
    group_id: PeerGroupId
    peer_id: PeerId


@dataclass
class _Renewal:
    group_id: PeerGroupId
    peer_id: PeerId
    address: Address


#: Group message listeners: ``listener(payload, src_peer, group_id)``.
GroupListener = Callable[[Any, PeerId, PeerGroupId], None]


class GroupService:
    """Manages group membership and intra-group messaging for one peer."""

    def __init__(
        self,
        endpoint: EndpointService,
        rendezvous: RendezvousService,
        resolver: ResolverService,
    ):
        self.endpoint = endpoint
        self.rendezvous = rendezvous
        self.resolver = resolver
        self.groups: Dict[PeerGroupId, PeerGroupView] = {}
        #: Rendezvous side: group -> peer -> (address, expiry).
        self._registry: Dict[PeerGroupId, Dict[PeerId, Tuple[Address, float]]] = {}
        self._listeners: Dict[str, GroupListener] = {}
        self._membership_listeners: List[Callable[[PeerGroupId, PeerId, str], None]] = []
        self._maintainer = None
        #: Group -> id of its latest roster query: one listener per group.
        self._roster_queries: Dict[PeerGroupId, int] = {}
        endpoint.register_listener(PROTOCOL, self._on_direct)
        rendezvous.register_propagate_listener(PROTOCOL, self._on_propagated)
        resolver.register_handler(ROSTER_HANDLER, self._on_roster_query)
        endpoint.node.on_crash(lambda _node: self._on_crash())

    # -- membership -----------------------------------------------------------------

    def join(
        self,
        group_id: PeerGroupId,
        name: str,
        advertisement: Optional[Advertisement] = None,
    ) -> PeerGroupView:
        """Join (creating if necessary) a group and announce it."""
        view = self.groups.get(group_id)
        if view is None:
            view = PeerGroupView(group_id=group_id, name=name)
            self.groups[group_id] = view
        view.members.add(self.endpoint.peer_id)
        if advertisement is not None:
            view.advertisement = advertisement
        announcement = _JoinAnnouncement(
            group_id=group_id,
            group_name=name,
            peer_id=self.endpoint.peer_id,
            address=self.endpoint.address,
        )
        self.rendezvous.propagate(PROTOCOL, ("join", announcement), size_bytes=256)
        self._renew(group_id)
        self._request_roster(group_id)
        if self._maintainer is None or not self._maintainer.is_alive:
            self._maintainer = self.endpoint.node.spawn(
                self._maintenance_loop(),
                name=f"group-maintain:{self.endpoint.node.name}",
            )
        return view

    def leave(self, group_id: PeerGroupId) -> None:
        """Leave a group and announce the departure."""
        view = self.groups.get(group_id)
        if view is None:
            return
        view.members.discard(self.endpoint.peer_id)
        announcement = _LeaveAnnouncement(group_id=group_id, peer_id=self.endpoint.peer_id)
        self.rendezvous.propagate(PROTOCOL, ("leave", announcement), size_bytes=128)
        del self.groups[group_id]
        # Local observers (e.g. the elector) see the departure too.
        self._notify_membership(group_id, self.endpoint.peer_id, "left")

    def members(self, group_id: PeerGroupId) -> Set[PeerId]:
        view = self.groups.get(group_id)
        return set(view.members) if view is not None else set()

    def is_member(self, group_id: PeerGroupId) -> bool:
        view = self.groups.get(group_id)
        return view is not None and self.endpoint.peer_id in view.members

    def remove_member(self, group_id: PeerGroupId, peer_id: PeerId) -> None:
        """Locally drop a member believed dead (failure detector outcome)."""
        view = self.groups.get(group_id)
        if view is not None and peer_id in view.members:
            view.members.discard(peer_id)
            self._notify_membership(group_id, peer_id, "removed")

    def on_membership_change(
        self, listener: Callable[[PeerGroupId, PeerId, str], None]
    ) -> None:
        """Observe joins/leaves/removals: ``listener(group, peer, change)``."""
        self._membership_listeners.append(listener)

    # -- periodic maintenance (renewals + roster refresh) -----------------------------

    def _maintenance_loop(self):
        env = self.endpoint.node.env
        try:
            while True:
                yield env.timeout(ANNOUNCE_PERIOD)
                for view in list(self.groups.values()):
                    if self.endpoint.peer_id in view.members:
                        self._renew(view.group_id)
                        self._request_roster(view.group_id)
        except Interrupt:
            return

    def _renew(self, group_id: PeerGroupId) -> None:
        """Refresh our entry in the rendezvous' membership index."""
        renewal = _Renewal(
            group_id=group_id,
            peer_id=self.endpoint.peer_id,
            address=self.endpoint.address,
        )
        if self.rendezvous.is_rendezvous:
            self._apply_renewal(renewal)
            return
        if self.rendezvous.connected_to is None:
            return
        try:
            self.endpoint.send(
                self.rendezvous.connected_to,
                PROTOCOL,
                ("renew", renewal),
                category="group-renew",
                size_bytes=128,
            )
        except UnresolvablePeerError:
            pass

    def _request_roster(self, group_id: PeerGroupId) -> None:
        """Ask the rendezvous' membership index for the current roster."""

        def on_response(response) -> None:
            self._apply_member_sync(response.payload)

        target = (
            None
            if self.rendezvous.is_rendezvous
            else self.rendezvous.connected_to
        )
        if target is None and not self.rendezvous.is_rendezvous:
            return
        # The next refresh replaces the last one's listener.  (Not a
        # one-shot: the rendezvous' own query is answered by loopback
        # inside ``send_query``, before its id is known here.)
        previous = self._roster_queries.get(group_id)
        if previous is not None:
            self.resolver.cancel_query(previous)
        self._roster_queries[group_id] = self.resolver.send_query(
            ROSTER_HANDLER,
            group_id,
            on_response=on_response,
            dst_peer=target,
            size_bytes=128,
        )

    def _on_roster_query(self, query: ResolverQuery) -> Optional[Any]:
        group_id: PeerGroupId = query.payload
        entries = self._registry.get(group_id)
        if not entries:
            return None
        now = self.endpoint.node.env.now
        alive = [
            (peer, address)
            for peer, (address, expiry) in sorted(
                entries.items(), key=lambda item: item[0].uuid_hex
            )
            if expiry > now
        ]
        if not alive:
            return None
        return _MemberSync(group_id=group_id, members=alive)

    def _apply_renewal(self, renewal: _Renewal) -> None:
        entries = self._registry.setdefault(renewal.group_id, {})
        expiry = self.endpoint.node.env.now + ANNOUNCE_PERIOD * RENEWAL_GRACE
        entries[renewal.peer_id] = (renewal.address, expiry)
        self.endpoint.add_route(renewal.peer_id, renewal.address)

    def _forward_renewal_federated(self, renewal: _Renewal) -> None:
        """Replicate a locally-applied renewal to federated rendezvous.

        Keeps every region's membership index authoritative for the whole
        group, so a restarted peer's roster query repairs its view even
        when the surviving members are leased in other regions.
        """
        if not (self.rendezvous.is_rendezvous and self.rendezvous.federated):
            return
        for peer_id in sorted(
            self.rendezvous.federated, key=lambda pid: pid.uuid_hex
        ):
            try:
                self.endpoint.send(
                    peer_id,
                    PROTOCOL,
                    ("renew-fed", renewal),
                    category="group-renew-fed",
                    size_bytes=128,
                )
            except UnresolvablePeerError:
                continue

    # -- group messaging -----------------------------------------------------------------

    def register_group_listener(self, protocol: str, listener: GroupListener) -> None:
        """Receive group datagrams sent under ``protocol``."""
        self._listeners[protocol] = listener

    def send_to_member(
        self,
        group_id: PeerGroupId,
        peer_id: PeerId,
        protocol: str,
        payload: Any,
        category: Optional[str] = None,
        size_bytes: int = 512,
    ) -> None:
        """Unicast a group datagram to one member."""
        datagram = ("msg", (group_id, protocol, payload))
        self.endpoint.send(
            peer_id,
            PROTOCOL,
            datagram,
            category=category or protocol,
            size_bytes=size_bytes,
        )

    def propagate_to_group(
        self,
        group_id: PeerGroupId,
        protocol: str,
        payload: Any,
        category: Optional[str] = None,
        size_bytes: int = 512,
        include_self: bool = True,
    ) -> int:
        """Unicast a datagram to every member; returns how many were sent.

        This is the JXTA propagate-pipe pattern scoped to a group; its cost
        is linear in the member count.
        """
        view = self.groups.get(group_id)
        if view is None:
            return 0
        sent = 0
        for member in view.sorted_members():
            if member == self.endpoint.peer_id:
                continue
            try:
                self.send_to_member(
                    group_id, member, protocol, payload, category, size_bytes
                )
                sent += 1
            except UnresolvablePeerError:
                continue
        if include_self:
            listener = self._listeners.get(protocol)
            if listener is not None:
                listener(payload, self.endpoint.peer_id, group_id)
        return sent

    # -- inbound ----------------------------------------------------------------------------

    def _on_direct(self, message: EndpointMessage) -> None:
        kind, body = message.payload
        if kind == "msg":
            group_id, protocol, payload = body
            listener = self._listeners.get(protocol)
            if listener is not None:
                listener(payload, message.src_peer, group_id)
        elif kind == "member-sync":
            self._apply_member_sync(body)
        elif kind == "renew":
            self._apply_renewal(body)
            self._forward_renewal_federated(body)
        elif kind == "renew-fed":
            # A federated rendezvous replicated a remote member's renewal:
            # index it, never re-forward (the federation mesh is complete).
            self._apply_renewal(body)
        elif kind == "join":
            self._apply_join(body, direct=True)

    def _on_propagated(self, payload: Any, _origin: PeerId) -> None:
        kind, body = payload
        if kind == "join":
            self._apply_join(body, direct=False)
        elif kind == "leave":
            self._apply_leave(body)

    def _apply_join(self, announcement: _JoinAnnouncement, direct: bool) -> None:
        self.endpoint.add_route(announcement.peer_id, announcement.address)
        view = self.groups.get(announcement.group_id)
        if view is None:
            # Not our group: remember nothing (membership is group-scoped).
            return
        if announcement.peer_id in view.members:
            return
        view.members.add(announcement.peer_id)
        self._notify_membership(announcement.group_id, announcement.peer_id, "joined")
        if not direct and announcement.peer_id != self.endpoint.peer_id:
            # Existing member: sync the roster back to the newcomer.
            roster = [
                (member, self._route_or_own(member))
                for member in view.sorted_members()
                if self._route_or_own(member) is not None
            ]
            sync = _MemberSync(group_id=announcement.group_id, members=roster)
            try:
                self.endpoint.send(
                    announcement.peer_id,
                    PROTOCOL,
                    ("member-sync", sync),
                    category="group-sync",
                    size_bytes=128 + 64 * len(roster),
                )
            except UnresolvablePeerError:
                pass

    def _route_or_own(self, member: PeerId) -> Optional[Address]:
        if member == self.endpoint.peer_id:
            return self.endpoint.address
        return self.endpoint.route_for(member)

    def _apply_member_sync(self, sync: _MemberSync) -> None:
        view = self.groups.get(sync.group_id)
        if view is None:
            return
        for peer_id, address in sync.members:
            self.endpoint.add_route(peer_id, address)
            if peer_id not in view.members:
                view.members.add(peer_id)
                self._notify_membership(sync.group_id, peer_id, "joined")

    def _apply_leave(self, announcement: _LeaveAnnouncement) -> None:
        view = self.groups.get(announcement.group_id)
        if view is not None and announcement.peer_id in view.members:
            view.members.discard(announcement.peer_id)
            self._notify_membership(announcement.group_id, announcement.peer_id, "left")
        entries = self._registry.get(announcement.group_id)
        if entries is not None:
            entries.pop(announcement.peer_id, None)

    def _notify_membership(
        self, group_id: PeerGroupId, peer_id: PeerId, change: str
    ) -> None:
        for listener in self._membership_listeners:
            listener(group_id, peer_id, change)

    def _on_crash(self) -> None:
        self.groups.clear()
        self._registry.clear()
        self._maintainer = None
