"""The resolver service: generic query/response.

Higher-level JXTA services (discovery, pipe binding) are built on the
resolver: a named *handler* receives queries and may answer them.  Queries
can be sent to one peer or propagated network-wide via the rendezvous;
responses are routed back to the querying peer — through the rendezvous if
no direct route exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .endpoint import EndpointMessage, EndpointService, UnresolvablePeerError
from .ids import PeerId
from .rendezvous import RendezvousService

__all__ = ["ResolverService", "ResolverQuery", "ResolverResponse", "PROTOCOL"]

PROTOCOL = "jxta:resolver"


@dataclass
class ResolverQuery:
    """A query addressed to a named handler somewhere on the network."""

    query_id: int
    handler_name: str
    src_peer: PeerId
    payload: Any


@dataclass
class ResolverResponse:
    """A response to a :class:`ResolverQuery`."""

    query_id: int
    handler_name: str
    src_peer: PeerId
    payload: Any


#: Query handlers return a response payload, or None for "no answer".
QueryHandler = Callable[[ResolverQuery], Optional[Any]]
#: Response listeners receive every response for a given query id.
ResponseListener = Callable[[ResolverResponse], None]


class ResolverService:
    """One peer's resolver."""

    def __init__(self, endpoint: EndpointService, rendezvous: RendezvousService):
        self.endpoint = endpoint
        self.rendezvous = rendezvous
        self._handlers: Dict[str, QueryHandler] = {}
        self._pending: Dict[int, ResponseListener] = {}
        self._query_ids = itertools.count(1)
        self.queries_sent = 0
        self.responses_sent = 0
        endpoint.register_listener(PROTOCOL, self._on_message)
        rendezvous.register_propagate_listener(PROTOCOL, self._on_propagated)
        endpoint.node.on_crash(lambda _node: self._pending.clear())

    # -- handler registration ---------------------------------------------------------

    def register_handler(self, name: str, handler: QueryHandler) -> None:
        """Answer queries addressed to ``name`` with ``handler``."""
        self._handlers[name] = handler

    # -- querying -----------------------------------------------------------------------

    def send_query(
        self,
        handler_name: str,
        payload: Any,
        on_response: Optional[ResponseListener] = None,
        dst_peer: Optional[PeerId] = None,
        size_bytes: int = 512,
    ) -> int:
        """Send a query; returns the query id.

        With ``dst_peer`` the query goes to that peer only; otherwise it is
        propagated through the rendezvous to the whole group.
        """
        query = ResolverQuery(
            query_id=next(self._query_ids),
            handler_name=handler_name,
            src_peer=self.endpoint.peer_id,
            payload=payload,
        )
        if on_response is not None:
            self._pending[query.query_id] = on_response
        self.queries_sent += 1
        if dst_peer is not None:
            try:
                self.endpoint.send(
                    dst_peer,
                    PROTOCOL,
                    ("query", query),
                    category="resolver-query",
                    size_bytes=size_bytes,
                )
            except UnresolvablePeerError:
                # No direct route: relay the query through our rendezvous.
                if self.rendezvous.connected_to is None:
                    raise
                self.endpoint.send_via(
                    self.rendezvous.connected_to,
                    dst_peer,
                    PROTOCOL,
                    ("query", query),
                    category="resolver-query",
                    size_bytes=size_bytes,
                )
        else:
            self.rendezvous.propagate(
                PROTOCOL, ("query", query), size_bytes=size_bytes
            )
        return query.query_id

    def cancel_query(self, query_id: int) -> None:
        """Stop listening for responses to ``query_id``."""
        self._pending.pop(query_id, None)

    @property
    def listeners(self) -> int:
        """Response listeners registered and not yet cancelled."""
        return len(self._pending)

    # -- answering -----------------------------------------------------------------------

    def _answer(self, query: ResolverQuery) -> None:
        handler = self._handlers.get(query.handler_name)
        if handler is None:
            return
        answer = handler(query)
        if answer is None:
            return
        if query.src_peer == self.endpoint.peer_id:
            # Local loopback: deliver directly.
            self._deliver_response(
                ResolverResponse(
                    query.query_id, query.handler_name, self.endpoint.peer_id, answer
                )
            )
            return
        response = ResolverResponse(
            query_id=query.query_id,
            handler_name=query.handler_name,
            src_peer=self.endpoint.peer_id,
            payload=answer,
        )
        self.responses_sent += 1
        try:
            self.endpoint.send(
                query.src_peer,
                PROTOCOL,
                ("response", response),
                category="resolver-response",
            )
        except UnresolvablePeerError:
            # No direct route: relay through our rendezvous.
            if self.rendezvous.connected_to is not None:
                self.endpoint.send_via(
                    self.rendezvous.connected_to,
                    query.src_peer,
                    PROTOCOL,
                    ("response", response),
                    category="resolver-response",
                )

    # -- inbound dispatch ----------------------------------------------------------------

    def _on_message(self, message: EndpointMessage) -> None:
        kind, body = message.payload
        if kind == "query":
            self._answer(body)
        elif kind == "response":
            self._deliver_response(body)

    def _on_propagated(self, payload: Any, _origin: PeerId) -> None:
        kind, body = payload
        if kind == "query":
            self._answer(body)

    def _deliver_response(self, response: ResolverResponse) -> None:
        listener = self._pending.get(response.query_id)
        if listener is not None:
            listener(response)
