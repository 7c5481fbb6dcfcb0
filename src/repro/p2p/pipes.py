"""JXTA pipes: unicast and propagate virtual channels.

A pipe decouples *what* you talk to (a pipe ID from a pipe advertisement)
from *where* it lives (whichever peer currently binds an input pipe for
that ID).  Binding an output pipe resolves the current host through the
resolver — the same indirection Whisper's proxy uses to survive b-peer
failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from ..simnet.events import Wait
from ..simnet.queues import Store
from .advertisement import PipeAdvertisement
from .endpoint import EndpointMessage, EndpointService, UnresolvablePeerError
from .ids import PeerId, PipeId
from .rendezvous import RendezvousService
from .resolver import ResolverQuery, ResolverService

__all__ = [
    "PipeService",
    "InputPipe",
    "OutputPipe",
    "PropagatePipe",
    "PipeBindError",
]

PROTOCOL = "jxta:pipe"
PROPAGATE_PROTOCOL = "jxta:pipe-propagate"
BINDING_HANDLER = "jxta:pipe-binding"


class PipeBindError(Exception):
    """No peer answered the pipe-binding resolution in time."""


@dataclass
class _PipeDatagram:
    pipe_id: PipeId
    payload: Any
    src_peer: PeerId


class InputPipe:
    """The receiving end of a pipe, bound on one peer."""

    def __init__(self, service: "PipeService", advertisement: PipeAdvertisement):
        self._service = service
        self.advertisement = advertisement
        self.inbox: Store = Store(service.endpoint.node.env)
        self.closed = False

    @property
    def pipe_id(self) -> PipeId:
        return self.advertisement.pipe_id

    def recv(self):
        """Event yielding the next :class:`_PipeDatagram` payload."""
        return self.inbox.get()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._service._input_pipes.pop(self.pipe_id, None)


class OutputPipe:
    """The sending end, resolved to whichever peer binds the input pipe."""

    def __init__(
        self,
        service: "PipeService",
        advertisement: PipeAdvertisement,
        remote_peer: PeerId,
    ):
        self._service = service
        self.advertisement = advertisement
        self.remote_peer = remote_peer

    def send(self, payload: Any, size_bytes: int = 512) -> None:
        datagram = _PipeDatagram(
            pipe_id=self.advertisement.pipe_id,
            payload=payload,
            src_peer=self._service.endpoint.peer_id,
        )
        endpoint = self._service.endpoint
        try:
            endpoint.send(
                self.remote_peer,
                PROTOCOL,
                datagram,
                category="pipe",
                size_bytes=size_bytes,
            )
        except UnresolvablePeerError:
            # No direct route to the binder: relay through the rendezvous.
            rendezvous = self._service.rendezvous
            if rendezvous is None or rendezvous.connected_to is None:
                raise
            endpoint.send_via(
                rendezvous.connected_to,
                self.remote_peer,
                PROTOCOL,
                datagram,
                category="pipe",
                size_bytes=size_bytes,
            )


class PropagatePipe:
    """A one-to-many pipe (JXTA's ``JxtaPropagate`` type).

    Every peer that opens the same propagate-pipe advertisement receives
    each message sent into it; delivery rides the rendezvous propagation
    path, so the sender does not need to know the listeners.
    """

    def __init__(self, service: "PipeService", advertisement: PipeAdvertisement):
        if advertisement.pipe_type != PipeAdvertisement.PROPAGATE:
            raise ValueError(
                f"advertisement {advertisement.name!r} is not a propagate pipe"
            )
        self._service = service
        self.advertisement = advertisement
        self.inbox: Store = Store(service.endpoint.node.env)
        self.closed = False
        service._propagate_pipes.setdefault(advertisement.pipe_id, []).append(self)

    @property
    def pipe_id(self) -> PipeId:
        return self.advertisement.pipe_id

    def send(self, payload: Any, size_bytes: int = 512) -> None:
        """Deliver ``payload`` to every open copy of this pipe."""
        if self._service.rendezvous is None:
            raise PipeBindError("propagate pipes require a rendezvous service")
        datagram = _PipeDatagram(
            pipe_id=self.pipe_id,
            payload=payload,
            src_peer=self._service.endpoint.peer_id,
        )
        self._service.rendezvous.propagate(
            PROPAGATE_PROTOCOL, datagram, size_bytes=size_bytes
        )

    def recv(self):
        """Event yielding the next inbound :class:`_PipeDatagram`."""
        return self.inbox.get()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            pipes = self._service._propagate_pipes.get(self.pipe_id, [])
            if self in pipes:
                pipes.remove(self)


class PipeService:
    """Pipe creation, binding resolution, and inbound dispatch for one peer."""

    def __init__(
        self,
        endpoint: EndpointService,
        resolver: ResolverService,
        rendezvous: Optional[RendezvousService] = None,
    ):
        self.endpoint = endpoint
        self.resolver = resolver
        self.rendezvous = rendezvous
        self.env = endpoint.node.env
        self._input_pipes: Dict[PipeId, InputPipe] = {}
        self._propagate_pipes: Dict[PipeId, List[PropagatePipe]] = {}
        endpoint.register_listener(PROTOCOL, self._on_message)
        resolver.register_handler(BINDING_HANDLER, self._handle_binding_query)
        if rendezvous is not None:
            rendezvous.register_propagate_listener(
                PROPAGATE_PROTOCOL, self._on_propagated
            )
        endpoint.node.on_crash(lambda _node: self._on_crash())

    # -- input side --------------------------------------------------------------------

    def create_input_pipe(self, advertisement: PipeAdvertisement) -> InputPipe:
        """Bind the receiving end of ``advertisement`` on this peer."""
        pipe = InputPipe(self, advertisement)
        self._input_pipes[advertisement.pipe_id] = pipe
        return pipe

    def open_propagate_pipe(self, advertisement: PipeAdvertisement) -> PropagatePipe:
        """Open (join) a one-to-many propagate pipe on this peer."""
        return PropagatePipe(self, advertisement)

    # -- output side -----------------------------------------------------------------------

    def bind_output_pipe(
        self, advertisement: PipeAdvertisement, timeout: float = 1.0
    ) -> Generator:
        """Resolve who binds the input pipe and return an :class:`OutputPipe`.

        A generator (``yield from``); raises :class:`PipeBindError` when no
        binder answers within ``timeout``.
        """
        answers: List[PeerId] = []
        done = self.env.event()

        def on_response(response) -> None:
            answers.append(response.payload)
            if not done.triggered:
                done.succeed()

        query_id = self.resolver.send_query(
            BINDING_HANDLER,
            advertisement.pipe_id,
            on_response=on_response,
            size_bytes=128,
        )
        try:
            yield Wait(self.env, done, timeout)
        finally:
            self.resolver.cancel_query(query_id)
        if not answers:
            raise PipeBindError(
                f"no peer binds pipe {advertisement.name!r} ({advertisement.pipe_id})"
            )
        return OutputPipe(self, advertisement, answers[0])

    # -- inbound -------------------------------------------------------------------------------

    def _on_message(self, message: EndpointMessage) -> None:
        datagram: _PipeDatagram = message.payload
        pipe = self._input_pipes.get(datagram.pipe_id)
        if pipe is not None and not pipe.closed:
            pipe.inbox.push(datagram)

    def _on_propagated(self, payload: Any, _origin: PeerId) -> None:
        datagram: _PipeDatagram = payload
        for pipe in self._propagate_pipes.get(datagram.pipe_id, []):
            if not pipe.closed:
                pipe.inbox.push(datagram)

    def _handle_binding_query(self, query: ResolverQuery) -> Optional[PeerId]:
        pipe_id: PipeId = query.payload
        if pipe_id in self._input_pipes:
            return self.endpoint.peer_id
        return None

    def _on_crash(self) -> None:
        self._input_pipes.clear()
        self._propagate_pipes.clear()
