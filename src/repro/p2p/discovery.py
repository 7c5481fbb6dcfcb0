"""The discovery service.

"B-peers publish and discover advertisements representing other resources
such as b-peers and b-peer groups" (§4.3).  Discovery has two halves:

* **local** — query the peer's own advertisement cache (the paper's
  ``discovery.getLocalAdvertisements`` in the §3.2 listing);
* **remote** — propagate a resolver query through the rendezvous; every
  peer (and the rendezvous' SRDI index) answers with matching
  advertisement documents, which land in the querying peer's local cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Type

from ..simnet.events import Wait
from .advertisement import Advertisement, advertisement_from_xml
from .cache import AdvertisementCache, matching
from .rendezvous import RendezvousService
from .resolver import ResolverQuery, ResolverService

__all__ = ["DiscoveryService", "DiscoveryQuery", "HANDLER_NAME"]

HANDLER_NAME = "jxta:discovery"

#: How many advertisements one response message may carry.
MAX_RESPONSES_PER_PEER = 20


@dataclass
class DiscoveryQuery:
    """The wire form of a remote discovery request."""

    adv_type: Optional[str]
    attribute: Optional[str]
    value: Optional[str]
    threshold: int = MAX_RESPONSES_PER_PEER


class DiscoveryService:
    """One peer's discovery service."""

    def __init__(
        self,
        resolver: ResolverService,
        cache: AdvertisementCache,
        rendezvous: RendezvousService,
    ):
        self.resolver = resolver
        self.cache = cache
        self.rendezvous = rendezvous
        self.env = resolver.endpoint.node.env
        self.remote_queries = 0
        resolver.register_handler(HANDLER_NAME, self._handle_query)

    # -- publishing -----------------------------------------------------------------

    def publish(self, advertisement: Advertisement, remote: bool = False) -> None:
        """Store an advertisement locally; optionally index it network-wide.

        ``remote=True`` additionally pushes the document to the connected
        rendezvous' SRDI index so other peers' remote queries can find it
        without this peer being asked.
        """
        self.cache.publish(advertisement)
        if remote:
            self.rendezvous.push_srdi([advertisement])

    def flush(self, advertisement: Advertisement) -> None:
        """Remove an advertisement from the local cache."""
        self.cache.remove(advertisement.key())

    # -- local queries (paper §3.2: getLocalAdvertisements) -----------------------------

    def get_local_advertisements(
        self, adv_type: Optional[Type[Advertisement]] = None
    ) -> List[Advertisement]:
        return self.cache.query(adv_type=adv_type)

    # -- remote queries --------------------------------------------------------------------

    def get_remote_advertisements(
        self,
        adv_type: Optional[Type[Advertisement]] = None,
        attribute: Optional[str] = None,
        value: Optional[str] = None,
        timeout: float = 1.0,
        threshold: int = MAX_RESPONSES_PER_PEER,
    ) -> Generator:
        """Query the network; returns matching advertisements (``yield from``).

        Waits until ``threshold`` advertisements arrive or ``timeout``
        elapses, whichever is first.  Every received advertisement is also
        published into the local cache, so subsequent local queries hit.
        """
        self.remote_queries += 1
        query = DiscoveryQuery(
            adv_type=adv_type.ADV_TYPE if adv_type is not None else None,
            attribute=attribute,
            value=value,
            threshold=threshold,
        )
        collected: List[Advertisement] = []
        seen_keys = set()
        done = self.env.event()

        def on_response(response) -> None:
            for document in response.payload:
                advertisement = advertisement_from_xml(document)
                if advertisement.key() in seen_keys:
                    continue
                seen_keys.add(advertisement.key())
                self.cache.publish(advertisement)
                collected.append(advertisement)
            if len(collected) >= threshold and not done.triggered:
                done.succeed()

        query_id = self.resolver.send_query(
            HANDLER_NAME, query, on_response=on_response, size_bytes=256
        )
        try:
            yield Wait(self.env, done, timeout)
        finally:
            self.resolver.cancel_query(query_id)
        return list(collected)

    # -- answering remote queries --------------------------------------------------------------

    def _handle_query(self, query: ResolverQuery) -> Optional[Any]:
        request: DiscoveryQuery = query.payload
        predicate = matching(request.adv_type, request.attribute, request.value)
        matches = self.cache.select(predicate)
        # A rendezvous additionally answers from its SRDI index, covering
        # advertisements published by edges that are not asked directly.
        if self.rendezvous.is_rendezvous and self.rendezvous.srdi:
            known = {advertisement.key() for advertisement in matches}
            for advertisement in self.rendezvous.srdi_lookup(predicate):
                if advertisement.key() not in known:
                    matches.append(advertisement)
        if not matches:
            return None
        limited = matches[: request.threshold]
        return [advertisement.to_xml() for advertisement in limited]
