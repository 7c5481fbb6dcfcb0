"""Cross-region gossip discovery: rumor spreading + anti-entropy.

The paper's discovery floods every advertisement to every peer, which is
fine on one switched LAN but quadratic across regions: each b-peer
republishes its advertisements every ``REPUBLISH_PERIOD`` seconds, and a
flood-federated rendezvous would forward every one of those refreshes to
every other region forever.  This module replaces that cross-region flood
with the classic epidemic pair:

* **rumor mongering** — a rendezvous that learns a *new or changed*
  advertisement pushes it to ``fanout`` random federated rendezvous every
  ``interval`` seconds, for ``rumor_rounds`` rounds; receivers re-rumor
  what was news to them.  With fanout >= 2 a fresh advertisement reaches
  all R regions in O(log R) rounds.
* **anti-entropy** — every ``anti_entropy_interval`` seconds each
  rendezvous sends one random federated peer a *digest* (its per-origin
  version vector).  The peer replies only on a diff, with the entries the
  digester lacks plus its own vector; the digester pushes back what the
  peer lacks.  This repairs anything rumor mongering missed (e.g. a
  region that was partitioned while a rumor was hot).

Unchanged periodic republications are recognised by content and spread
no rumor at all — that is the asymptotic win over the flood baseline,
which :class:`GossipService` also implements (``mode="flood"``) so the
WAN bench can measure both under identical workloads.

Entries are versioned ``(origin_region, seq)`` with a monotone per-origin
sequence; a per-service version vector (``origin_region -> max seq``)
summarises what a rendezvous holds.  Applied entries are written straight
into the local rendezvous' SRDI index, so discovery and the SWS-proxy
find remote-region groups through exactly the paper's lookup path.
Gossiped :class:`~repro.p2p.advertisement.PeerAdvertisement`\\ s also feed
the endpoint routing table, which is what lets a federated rendezvous
relay responses toward peers leased in another region.

Intra-region discovery is untouched: on a single-region topology no
GossipService exists and the wire traffic is byte-identical to the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from ..simnet.events import Interrupt
from .advertisement import Advertisement, PeerAdvertisement, advertisement_from_xml
from .endpoint import UnresolvablePeerError
from .ids import PeerId

__all__ = ["GossipService", "GossipEntry", "GOSSIP_PROTOCOL"]

GOSSIP_PROTOCOL = "whisper:gossip"

#: Fixed per-message overhead (headers, vector framing), bytes.
_OVERHEAD = 128


@dataclass
class GossipEntry:
    """One versioned advertisement travelling between regions."""

    key: str
    origin: str  #: region that first saw this version
    seq: int  #: per-origin monotone sequence number
    document: str  #: advertisement XML
    publisher: PeerId  #: the edge peer that pushed it into SRDI

    def size_bytes(self) -> int:
        return len(self.document.encode()) + 64


@dataclass
class GossipStats:
    """Message/convergence counters, reset with the trace counters."""

    rumors_sent: int = 0
    digests_sent: int = 0
    deltas_sent: int = 0
    floods_sent: int = 0
    entries_applied: int = 0
    refreshes_suppressed: int = 0
    rounds: int = 0


class GossipService:
    """The gossip side of one region's rendezvous peer."""

    def __init__(
        self,
        peer,
        region: str,
        rng: random.Random,
        fanout: int = 2,
        interval: float = 0.5,
        anti_entropy_interval: float = 5.0,
        rumor_rounds: int = 2,
        mode: str = "gossip",
    ):
        self.peer = peer
        self.endpoint = peer.endpoint
        self.rendezvous = peer.rendezvous
        self.env = peer.node.env
        self.region = region
        self.rng = rng
        self.fanout = fanout
        self.interval = interval
        self.anti_entropy_interval = anti_entropy_interval
        self.rumor_rounds = rumor_rounds
        self.mode = mode
        #: federated gossip peers: rendezvous peer id -> its region name.
        self.peers: Dict[PeerId, str] = {}
        #: everything this rendezvous holds, by advertisement key.
        self.entries: Dict[str, GossipEntry] = {}
        #: per-origin version vector: region name -> max sequence seen.
        self.vector: Dict[str, int] = {}
        #: rumors still hot: key -> remaining rounds to forward.
        self._hot: Dict[str, int] = {}
        self._seq = 0
        #: simulated time each key was first applied here (convergence probe).
        self.seen_at: Dict[str, float] = {}
        self.stats = GossipStats()
        self.endpoint.register_listener(GOSSIP_PROTOCOL, self._on_message)
        self.rendezvous.on_srdi_push.append(self._on_local_srdi)
        self._start_loops()
        peer.node.on_crash(lambda _node: self._on_crash())
        peer.node.on_restart(lambda _node: self._start_loops())

    # -- wiring ------------------------------------------------------------------------

    def add_peer(self, peer_id: PeerId, region: str) -> None:
        """Register a federated rendezvous (route comes from federate_with)."""
        if peer_id != self.endpoint.peer_id:
            self.peers[peer_id] = region

    def _start_loops(self) -> None:
        if self.mode != "gossip":
            return  # flood mode forwards eagerly; no periodic machinery
        self.peer.node.spawn(self._rumor_loop(), name=f"gossip-rumor:{self.region}")
        self.peer.node.spawn(
            self._anti_entropy_loop(), name=f"gossip-ae:{self.region}"
        )

    def _on_crash(self) -> None:
        # The SRDI index dies with the rendezvous; so does our store.  The
        # sequence counter survives so post-restart updates never look
        # older than what other regions already hold from us.
        self.entries.clear()
        self.vector.clear()
        self._hot.clear()

    # -- local updates (from this region's SRDI pushes) ----------------------------------

    def _on_local_srdi(
        self, key: str, origin: PeerId, advertisement: Advertisement, document: str
    ) -> None:
        existing = self.entries.get(key)
        if self.mode == "flood":
            # The baseline federates every push, including the periodic
            # keep-alive republications — that is precisely its cost.
            self._seq += 1
            entry = GossipEntry(key, self.region, self._seq, document, origin)
            self._remember(entry)
            for peer_id in sorted(self.peers, key=lambda pid: pid.uuid_hex):
                self._send(peer_id, ("rumor", [entry]), "gossip-flood", entry.size_bytes())
                self.stats.floods_sent += 1
            return
        if existing is not None and existing.document == document:
            # Periodic republication of unchanged content: nothing to spread.
            self.stats.refreshes_suppressed += 1
            return
        self._seq += 1
        entry = GossipEntry(key, self.region, self._seq, document, origin)
        self._remember(entry)
        self._hot[key] = self.rumor_rounds

    # -- epidemic machinery --------------------------------------------------------------

    def _rumor_loop(self):
        try:
            while True:
                yield self.env.timeout(self.interval)
                self.stats.rounds += 1
                if not self._hot or not self.peers:
                    continue
                entries = [self.entries[key] for key in sorted(self._hot)]
                size = sum(entry.size_bytes() for entry in entries) + _OVERHEAD
                for peer_id in self._pick_peers(self.fanout):
                    self._send(peer_id, ("rumor", entries), "gossip-rumor", size)
                    self.stats.rumors_sent += 1
                for key in list(self._hot):
                    self._hot[key] -= 1
                    if self._hot[key] <= 0:
                        del self._hot[key]
        except Interrupt:
            return

    def _anti_entropy_loop(self):
        try:
            while True:
                yield self.env.timeout(self.anti_entropy_interval)
                if not self.peers:
                    continue
                peer_id = self._pick_peers(1)[0]
                size = _OVERHEAD + 24 * max(1, len(self.vector))
                self._send(peer_id, ("digest", dict(self.vector)), "gossip-digest", size)
                self.stats.digests_sent += 1
        except Interrupt:
            return

    def _pick_peers(self, count: int) -> List[PeerId]:
        ordered = sorted(self.peers, key=lambda pid: pid.uuid_hex)
        if count >= len(ordered):
            return ordered
        return self.rng.sample(ordered, count)

    # -- message handling ----------------------------------------------------------------

    def _on_message(self, message) -> None:
        kind, body = message.payload
        if kind == "rumor":
            self._apply_batch(body, re_rumor=self.mode == "gossip")
        elif kind == "digest":
            self._on_digest(body, message.src_peer)
        elif kind == "delta":
            entries, their_vector = body
            self._apply_batch(entries, re_rumor=True)
            final = self._missing_for(their_vector)
            if final:
                size = sum(e.size_bytes() for e in final) + _OVERHEAD
                self._send(message.src_peer, ("delta-final", final), "gossip-delta", size)
                self.stats.deltas_sent += 1
        elif kind == "delta-final":
            self._apply_batch(body, re_rumor=True)

    def _on_digest(self, their_vector: Dict[str, int], src_peer: PeerId) -> None:
        missing = self._missing_for(their_vector)
        they_have_more = any(
            seq > self.vector.get(origin, 0) for origin, seq in their_vector.items()
        )
        if not missing and not they_have_more:
            return  # in sync: the digest is the whole exchange
        size = sum(e.size_bytes() for e in missing) + _OVERHEAD + 24 * max(
            1, len(self.vector)
        )
        self._send(src_peer, ("delta", (missing, dict(self.vector))), "gossip-delta", size)
        self.stats.deltas_sent += 1

    def _missing_for(self, their_vector: Dict[str, int]) -> List[GossipEntry]:
        return [
            entry
            for key, entry in sorted(self.entries.items())
            if entry.seq > their_vector.get(entry.origin, 0)
        ]

    def _apply_batch(self, entries: List[GossipEntry], re_rumor: bool) -> None:
        for entry in entries:
            if not self._is_newer(entry):
                continue
            self._remember(entry)
            self._install(entry)
            self.stats.entries_applied += 1
            if re_rumor:
                self._hot[entry.key] = self.rumor_rounds

    def _is_newer(self, entry: GossipEntry) -> bool:
        existing = self.entries.get(entry.key)
        if existing is None:
            return True
        if existing.document == entry.document:
            return False
        if existing.origin == entry.origin:
            return entry.seq > existing.seq
        # Same key updated from two regions (e.g. a span-placed group's
        # replicas republishing from both sides): deterministic total order.
        return (entry.seq, entry.origin) > (existing.seq, existing.origin)

    def _remember(self, entry: GossipEntry) -> None:
        self.entries[entry.key] = entry
        if entry.seq > self.vector.get(entry.origin, 0):
            self.vector[entry.origin] = entry.seq
        self.seen_at.setdefault(entry.key, self.env.now)

    def _install(self, entry: GossipEntry) -> None:
        """Make a remote entry discoverable exactly like a local SRDI push."""
        advertisement = advertisement_from_xml(entry.document)
        self.rendezvous.srdi[entry.key] = (entry.publisher, advertisement)
        if isinstance(advertisement, PeerAdvertisement):
            # Remote peers become routable, so this rendezvous can relay
            # responses (and forward queries) toward their region directly.
            self.endpoint.add_route(advertisement.peer_id, advertisement.address)

    def _send(self, peer_id: PeerId, payload, category: str, size_bytes: int) -> None:
        try:
            self.endpoint.send(
                peer_id,
                GOSSIP_PROTOCOL,
                payload,
                category=category,
                size_bytes=size_bytes,
            )
        except UnresolvablePeerError:
            # A federated peer with no route yet (or mid-crash) is a normal
            # epidemic condition: some other round will repair it.
            pass
