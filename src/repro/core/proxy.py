"""The SWS-Proxy (§3.2).

"When a Web service receives a request it forwards it to the Semantic Web
Service proxy (SWS-proxy).  Proxies contact the JXTA infrastructure and
using the Discovery Service locate a semantic group of peers that can
satisfy the client's request."

The proxy's lifecycle per request:

1. **discover** — find a semantic advertisement matching the service's
   action/input/output annotations (local cache first, then a remote
   discovery query — the paper's ``findPeerGroupAdv``);
2. **bind** — resolve the group's current coordinator (a resolver query
   answered by group members) and keep the binding in the proxy's
   :class:`BindingTable`, which also holds the epoch fence on results;
3. **invoke** — send the request to the bound coordinator and wait;
4. **recover** — on timeout or a ``not-coordinator`` redirect, drop the
   binding (unless another request has re-bound since) and go back to step
   2, where one lookup per group serves every request waiting for it.
   Re-binding after a coordinator crash is the second component of the
   paper's multi-second worst-case RTT (§5).

The proxy also "translates the data received to a suitable format" (§4.2):
results are validated against the service's WSDL schema before being
handed back to the Web service.

One call path: ``invoke`` opens the request trace and ``_invoke`` is the
whole call — a single generator whose locals are the per-call state.  In
it: one give-up exit (attempt cap or deadline), one sticky rule
(``pinned``) and one ``switch_group`` behind both the shard ring and the
region ladder, ``enter_recovery``/``close_recovery`` around the recover
span.  ``_count`` bumps a ``ProxyStats`` field and its ``proxy.*`` metric
together.  What the call knows of a group beyond this one call — its
binding, the lookup in flight, the highest epoch delivered — it asks
``self.bindings``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from ..election.epoch import Epoch
from ..ontology.match import ConceptMatcher
from ..p2p.advertisement import SemanticAdvertisement
from ..p2p.endpoint import EndpointMessage, UnresolvablePeerError
from ..p2p.ids import PeerGroupId, PeerId
from ..p2p.peer import Peer
from ..qos.metrics import QosProfile
from ..qos.selection import QosSelector
from ..simnet.events import EXPIRED, Wait
from ..simnet.message import Address
from ..soap.fault import SoapFault
from ..wsdl.annotations import SemanticAnnotation
from ..wsdl.schema import SchemaError
from .bpeer import COORD_HANDLER, PROTO_EXEC, PROTO_EXEC_REPLY, ExecReply, ExecRequest
from .breaker import CircuitBreaker
from .config import ScenarioConfig
from .errors import (
    CircuitOpenError,
    InvocationFailedError,
    NoCoordinatorError,
    NoMatchingGroupError,
)
from .matching import GroupMatch, SemanticGroupMatcher
from .rescache import SemanticResultCache
from .result import InvokeOutcome, InvokeResult
from .retry import Deadline, RetryPolicy
from .sharding import ShardRouter, shard_key
from .sws import SemanticWebService

__all__ = ["SwsProxy", "ProxyStats", "BindingTable"]


@dataclass
class ProxyStats:
    """Operational counters for benchmark reporting."""

    invocations: int = 0
    successes: int = 0
    faults: int = 0
    timeouts: int = 0
    redirects: int = 0
    #: Bindings dropped or replaced by a different ``(coordinator, epoch)``.
    #: A *kept* binding — one a failed attempt found already replaced by
    #: another request's lookup or redirect — is not a rebind.
    rebinds: int = 0
    #: Binds that waited on another request's in-flight coordinator lookup
    #: instead of sending their own.
    shared_lookups: int = 0
    remote_discoveries: int = 0
    translation_failures: int = 0
    #: Redirects caused by the binding's epoch being stale (split-brain
    #: fencing), a subset of ``redirects``.
    stale_epoch_redirects: int = 0
    #: Result replies discarded because a newer epoch already delivered.
    stale_results_discarded: int = 0
    #: Invocations abandoned because the per-request deadline ran out.
    deadline_exhausted: int = 0
    #: ``busy`` replies received — the back-end shed load on us.
    shed: int = 0
    #: Results replayed from the dedup journal (a retry observed the
    #: original execution's value instead of re-executing).
    deduped: int = 0
    #: Sheds whose retry-after hint we slept on before retrying (the
    #: remainder arrived with the deadline already exhausted).
    retry_after_honored: int = 0
    #: Invocations routed by the consistent-hash shard ring (only
    #: sharded deployments increment this).
    shard_routed: int = 0
    #: Invocations rerouted to a ring successor after their home shard
    #: group stopped answering (reads and never-sent requests only —
    #: a sent mutating request stays pinned to its home group so dedup
    #: journals never need to span groups).
    shard_failovers: int = 0
    #: Bind choices where nearest-region preference narrowed the tie
    #: (multi-region topologies only).
    region_preferred: int = 0
    #: Invocations failed over to another region's group after the home
    #: region stopped answering (same sticky at-most-once rule as shard
    #: failovers: reads and never-sent requests only).
    region_failovers: int = 0
    #: Calls rejected locally by an open circuit breaker (no traffic).
    breaker_rejected: int = 0
    #: Read-only invocations served from the semantic result cache.
    cache_hits: int = 0
    #: Cache-eligible invocations that had to take the full path.
    cache_misses: int = 0
    #: Durations (seconds, start to completion) of invocations that
    #: needed recovery — i.e. the proxy's observed failover times.
    failover_durations: List[float] = field(default_factory=list)


@dataclass
class _Binding:
    group_id: PeerGroupId
    coordinator: PeerId
    address: Optional[Address]
    #: Coordinator epoch this binding was made under; stamped onto every
    #: request so b-peers can fence stale bindings.
    epoch: Epoch


def _shard_set_complete(matches: List[GroupMatch]) -> bool:
    """True when no advertised shard set in ``matches`` is missing members.

    Unsharded matches are trivially complete; a sharded advertisement
    declares how many siblings exist (``shard_count``), so completeness
    is checkable locally without a central shard map.
    """
    sets: Dict[Tuple[str, int], set] = {}
    for match in matches:
        advertisement = match.advertisement
        if advertisement.sharded:
            sets.setdefault(
                (advertisement.action, advertisement.shard_count), set()
            ).add(advertisement.name)
    return all(len(names) >= count for (_action, count), names in sets.items())


def _shard_threshold(matches: List[GroupMatch]) -> int:
    """Discovery threshold covering the largest known shard set (min 1)."""
    return max(
        (
            m.advertisement.shard_count
            for m in matches
            if m.advertisement.sharded
        ),
        default=1,
    )


class BindingTable:
    """One proxy's bindings and epoch fence, per group (DESIGN.md §6.21).

    It owns the installed ``(coordinator, epoch)`` per group, the one
    coordinator lookup in flight per group, the epoch witnessed to b-peers
    and the highest epoch a result was delivered under.  It reaches the
    network only through the callables it is handed — the resolver's
    ``send_query`` / ``cancel_query``, the endpoint's ``add_route`` and the
    proxy's counter — so a test can drive it with fakes.
    """

    def __init__(
        self,
        env,
        send_query: Callable[..., int],
        cancel_query: Callable[[int], None],
        add_route: Callable[[PeerId, Address], None],
        count: Callable[[str], None],
        on_fence_advance: Optional[Callable[[PeerGroupId, Epoch], Any]] = None,
    ):
        self.env = env
        #: Split-brain fencing on the proxy side: prefer the highest-epoch
        #: answer, discard stale results, gossip the highest witnessed term.
        #: Only the schedule checker's self-test seam clears it, to show
        #: the naive proxy unsafe.
        self.epoch_fencing = True
        self._send_query = send_query
        self._cancel_query = cancel_query
        self._add_route = add_route
        self._count = count
        #: Called with ``(group_id, epoch)`` when a delivered result raises
        #: the group's fence (the proxy's result cache drops what it fences).
        self._on_fence_advance = on_fence_advance
        #: Seconds one coordinator lookup waits for its first answer.
        self.coordinator_timeout = 1.0
        #: After the first resolver answer, wait this long for racing
        #: answers so a split-brain minority cannot win the bind simply by
        #: replying first — the highest epoch wins instead.
        self.resolve_grace = 0.02
        self.bound: Dict[PeerGroupId, _Binding] = {}
        #: Coordinator lookups in flight, one per group at most: the event
        #: fires with the binding the lookup installed, or ``None``.
        self.lookups: Dict[PeerGroupId, Any] = {}
        #: Highest epoch whose result was delivered to the client, per
        #: group — results below it are discarded (no-stale-result).
        self.delivered: Dict[PeerGroupId, Epoch] = {}
        #: Audit log of delivered ``(group_id, epoch)`` pairs, in delivery
        #: order; the checker audits it is monotone per group.
        self.result_epoch_log: Deque[Tuple[PeerGroupId, Epoch]] = deque(maxlen=8192)

    def resolve(self, group_id: PeerGroupId, deadline: Deadline) -> Generator:
        """Ask the group who currently coordinates it (``yield from``).

        Single-flight: at most one query per group is in flight.  The
        first caller asks; whoever needs the same answer meanwhile waits
        for that query's outcome — the binding it installs, or its
        ``NoCoordinatorError`` — under its own ``deadline`` and for no
        longer than its own lookup could have taken.  A grace window after
        the first answer collects racing ones: the highest epoch wins.
        """
        env = self.env
        flight = self.lookups.get(group_id)
        if flight is not None:
            self._count("shared_lookups")
            patience = deadline.clamp(
                env.now, self.coordinator_timeout + self.resolve_grace
            )
            binding = yield Wait(env, flight, patience)
            if binding is None or binding is EXPIRED:
                raise NoCoordinatorError(f"no coordinator response for {group_id}")
            return binding
        answers: List[Tuple] = []
        done = env.event()

        def on_response(response) -> None:
            answers.append(response.payload)
            if not done.triggered:
                done.succeed()

        timeout = deadline.clamp(env.now, self.coordinator_timeout)
        query_id = self._send_query(
            COORD_HANDLER, group_id, on_response=on_response, size_bytes=128
        )
        flight = self.lookups[group_id] = env.event()
        binding = None
        try:
            outcome = yield Wait(env, done, timeout)
            if outcome is not EXPIRED and self.epoch_fencing:
                grace = deadline.clamp(env.now, self.resolve_grace)
                if grace > 0.0:
                    yield env.timeout(grace)
            if not answers:
                raise NoCoordinatorError(f"no coordinator response for {group_id}")
        finally:
            # On every exit, an interrupt included (the caller's host
            # crashed mid-lookup): the answers in hand are installed,
            # listener and slot are released, and whoever joined learns
            # the outcome.
            if answers:
                # Unfenced, the first answer wins, even a deposed
                # coordinator's stale claim.
                claim = max(answers, key=itemgetter(2)) if self.epoch_fencing else answers[0]
                binding = self.install(group_id, *claim)
            self._cancel_query(query_id)
            del self.lookups[group_id]
            if flight.callbacks:
                flight.succeed(binding)
        return binding

    def install(
        self, group_id: PeerGroupId, coordinator: PeerId, address: Optional[Address], epoch: Epoch
    ) -> _Binding:
        """The single path that installs a binding: a lookup's answer or a
        redirect's forward pointer.  Replacing a live binding by a different
        ``(coordinator, epoch)`` is a failover and counts as a rebind."""
        previous = self.bound.get(group_id)
        if previous is not None and (
            previous.coordinator != coordinator or previous.epoch != epoch
        ):
            self._count("rebinds")
        binding = self.bound[group_id] = _Binding(group_id, coordinator, address, epoch)
        if address is not None:
            self._add_route(coordinator, address)
        return binding

    def drop(self, used: _Binding) -> None:
        """Compare-and-drop: forget the group's binding only if it is still
        the ``(coordinator, epoch)`` a failed attempt went out under.  One
        some other request installed since is newer evidence than the
        caller's failure, and stays (the caller retries on it at once)."""
        current = self.bound.get(used.group_id)
        if current is None or (current.coordinator, current.epoch) != (
            used.coordinator, used.epoch
        ):
            return
        del self.bound[used.group_id]
        self._count("rebinds")

    def witnessed(self, binding: _Binding) -> Optional[Epoch]:
        """The freshest term this proxy can vouch for, gossiped to b-peers."""
        if not self.epoch_fencing:
            return None
        last = self.delivered.get(binding.group_id)
        return binding.epoch if last is None else max(binding.epoch, last)

    def deliver(self, group_id: PeerGroupId, epoch: Epoch) -> bool:
        """Record a result about to be delivered under ``epoch``; ``False``
        (nothing recorded) when fencing is on and a newer term already
        delivered — a deposed coordinator's late answer."""
        last = self.delivered.get(group_id)
        if last is None or epoch > last:
            self.delivered[group_id] = epoch
            if self._on_fence_advance is not None:
                self._on_fence_advance(group_id, epoch)
        elif self.epoch_fencing and epoch < last:
            return False
        self.result_epoch_log.append((group_id, epoch))
        return True


class SwsProxy(Peer):
    """One Web service's proxy onto the P2P back-end."""

    def __init__(
        self,
        node,
        sws: SemanticWebService,
        matcher: ConceptMatcher,
        config: ScenarioConfig = ScenarioConfig(),
        home_region: Optional[str] = None,
        region_count: int = 1,
    ):
        super().__init__(node, name=f"proxy:{sws.name}")
        self.sws = sws
        #: Per operation, fixed at deploy time: the request-trace name and
        #: the output element ``_translate`` validates (DESIGN.md §6.18).
        self._per_operation: Dict[str, Tuple[str, Optional[str]]] = {}
        for name in sws.operations():
            parts = sws.operation(name).outputs
            element = parts[0].element.split(":", 1)[-1] if parts else None
            self._per_operation[name] = (f"{sws.name}.{name}", element)
        self.group_matcher = SemanticGroupMatcher(matcher)
        self.request_timeout = config.request_timeout
        self.max_attempts = config.max_attempts
        #: Seconds one remote discovery query waits.
        self.discovery_timeout = 1.0
        self.qos_selector = QosSelector()
        self.retry = RetryPolicy()
        #: Default per-request wall budget (simulated seconds); ``invoke``'s
        #: ``budget`` argument overrides it per call.
        self.deadline_budget = config.deadline_budget
        #: How long a non-answering shard group's ring segment is served
        #: by its clockwise successors before being retried.
        self.shard_suspect_interval = 10.0
        #: Region this proxy lives in (multi-region topologies): among
        #: equally good semantic matches it binds to a group advertised
        #: from its own region, and fails over to other regions' groups
        #: when the home region stops answering.  ``None`` (single-region
        #: deployments) disables both — behaviour identical to the seed.
        self.home_region = home_region
        #: How many regions replicate each group (region-replicated
        #: topologies): discovery keeps querying until it has seen one
        #: advertisement per region, so region preference and failover
        #: have the full candidate set to work with.
        self.region_count = max(1, region_count)
        #: Operations whose every implementation is side-effect free
        #: (wired at deploy time).  Reads may fail over to a ring
        #: successor even after a send; anything not listed here is
        #: treated as mutating and stays pinned once sent.
        self.read_only_operations: set = set()
        #: Circuit breakers, lazily built per chosen advertisement —
        #: i.e. per (service, shard) scope (``None`` spec disables).
        self._breaker_spec = config.circuit_breaker
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: Read-through semantic result cache (``None`` spec disables):
        #: read-only hits return before discovery even starts.
        self.result_cache: Optional[SemanticResultCache] = (
            SemanticResultCache(config.result_cache, metrics=node.network.obs.metrics)
            if config.result_cache is not None
            else None
        )
        #: Per-operation shard routers, built lazily from discovered
        #: shard-annotated advertisements (discovery *is* the shard map).
        self._routers: Dict[str, ShardRouter] = {}
        self.stats = ProxyStats()
        #: Network-wide observability: every invocation records a request
        #: trace with per-phase spans.
        self.obs = node.network.obs
        self._request_ids = itertools.count(1)
        #: Idempotency keys: one per *logical* call (minted in ``_invoke``,
        #: reused across every retry), unlike ``_request_ids`` which are
        #: per-attempt.
        self._invocation_ids = itertools.count(1)
        self._retry_rng = node.network.rng.stream(f"proxy-retry:{self.name}")
        self._pending: Dict[int, Any] = {}
        self._group_profiles: Dict[str, QosProfile] = {}
        cache = self.result_cache
        self.bindings = BindingTable(
            self.env, self.resolver.send_query,
            self.resolver.cancel_query, self.endpoint.add_route, self._count,
            on_fence_advance=cache.invalidate_epoch if cache is not None else None,
        )  # fmt: skip
        self.endpoint.register_listener(PROTO_EXEC_REPLY, self._on_reply)

    # -- discovery (the paper's findPeerGroupAdv) ------------------------------------------

    def find_peer_group_adv(
        self, annotation: SemanticAnnotation, deadline: Deadline
    ) -> Generator:
        """Locate semantic advertisements matching an operation's ``annotation``.

        Mirrors §3.2: local advertisements are scanned first; only if none
        match is a remote discovery query issued.  Returns the list of
        matches, best first (``yield from``).  The request's ``deadline``
        caps each remote query's timeout at its remaining budget.

        Shard awareness: an advertisement carrying ``shard_count`` means
        the keyspace is partitioned over that many sibling groups, so a
        match set that covers only part of a shard set re-queries with
        the full count as the threshold — the ring must see every shard
        group or keys would silently concentrate on the ones discovered.
        """
        def scan_local() -> List[GroupMatch]:
            local = self.discovery.get_local_advertisements(SemanticAdvertisement)
            return self.group_matcher.find_all(annotation, local)

        matches = scan_local()
        if matches and self._sets_complete(matches):
            return matches

        def query(**narrowing) -> Generator:
            """One remote query, capped at the request's remaining budget."""
            timeout = deadline.clamp(self.env.now, self.discovery_timeout)
            return self.discovery.get_remote_advertisements(
                SemanticAdvertisement, timeout=timeout, **narrowing
            )

        def query_action(known: List[GroupMatch]) -> Generator:
            # Fast path: query by the exact action concept (the rendezvous
            # answers with up to ``threshold`` matching SRDI documents in one
            # message — 1 suffices unless a known shard set or region
            # replica set needs more).
            return query(
                attribute="Action",
                value=annotation.action,
                threshold=self._discovery_threshold(known),
            )

        self._count("remote_discoveries")
        remote = yield from query_action(matches)
        # Remote results were published into the local cache; re-scan so
        # previously known and freshly discovered advertisements merge.
        matches = scan_local() if matches else self.group_matcher.find_all(
            annotation, remote
        )
        if matches:
            if self._sets_complete(matches):
                return matches
            # The first answer revealed a shard or region set we only
            # partially know: one directed re-query for the full set.
            yield from query_action(matches)
            return scan_local()
        # Slow path: groups advertising an *equivalent or related* action
        # concept carry a different Action attribute; fetch everything and
        # let the semantic matcher decide.
        remote = yield from query()
        return self.group_matcher.find_all(annotation, remote)

    def _sets_complete(self, matches: List[GroupMatch]) -> bool:
        """True once matches miss no shard sibling and cover every region's
        replica of the group.

        Single-region proxies (``region_count == 1``) are trivially
        complete on the region side, so discovery behaves exactly as
        before the multi-region extension.
        """
        if not _shard_set_complete(matches):
            return False
        if self.region_count <= 1:
            return True
        regions = {
            m.advertisement.region
            for m in matches
            if m.advertisement.region is not None
        }
        return len(regions) >= self.region_count

    def _discovery_threshold(self, matches: List[GroupMatch]) -> int:
        """Remote-query threshold covering shard and region sets (min 1)."""
        return max(_shard_threshold(matches), self.region_count)

    def _choose_group(self, matches: List[GroupMatch]) -> GroupMatch:
        """Among equally good semantic matches, prefer nearest region, then
        best QoS (§2.4)."""
        if len(matches) == 1:
            return matches[0]
        best_degree = matches[0].degree
        tied = [m for m in matches if m.degree == best_degree]
        if self.home_region is not None and len(tied) > 1:
            home = [
                m for m in tied if m.advertisement.region == self.home_region
            ]
            if home and len(home) < len(tied):
                self._count("region_preferred")
                tied = home
        if len(tied) == 1:
            return tied[0]
        candidates = {
            m.advertisement.key(): self._profile_for(m.advertisement.key()).snapshot()
            for m in tied
        }
        chosen_key = self.qos_selector.select(candidates)
        for match in tied:
            if match.advertisement.key() == chosen_key:
                return match
        return tied[0]

    def _profile_for(self, group_key: str) -> QosProfile:
        if group_key not in self._group_profiles:
            self._group_profiles[group_key] = QosProfile()
        return self._group_profiles[group_key]

    # -- invocation ----------------------------------------------------------------------------

    def invoke(
        self,
        operation: str,
        arguments: Dict[str, Any],
        timeout: Optional[float] = None,
        budget: Optional[float] = None,
        invocation_id: Optional[str] = None,
    ) -> Generator:
        """Execute ``operation`` on the b-peer back-end (``yield from``).

        Returns an :class:`~repro.core.result.InvokeResult` — the
        translated value plus how the call went (outcome, attempts,
        epoch, duration, trace id); raises
        :class:`~repro.soap.fault.SoapFault` for application errors
        (including ``Server.Busy`` when overload shedding outlasted the
        request's deadline), :class:`NoMatchingGroupError` /
        :class:`InvocationFailedError` for system-level failures the
        retries could not mask.

        ``timeout`` caps one send-and-wait attempt; ``budget`` (defaulting
        to ``deadline_budget``) caps the whole request including retries —
        the resulting deadline is propagated into every discovery, bind and
        invoke timeout, and retry backoff grows exponentially (seeded
        jitter) under it.

        Each invocation records a :class:`~repro.obs.span.RequestTrace`
        with ``discover`` / ``bind`` / ``invoke`` / ``recover`` phase
        spans, feeding the per-phase latency histograms that
        ``status_report()`` and the CLI expose.

        ``invocation_id`` overrides the proxy-minted idempotency key —
        the saga orchestrator uses this to pin a deterministic,
        write-ahead-logged key so a restarted orchestrator re-issues the
        *same* logical call and the b-peer journal deduplicates it.
        """
        self.stats.invocations += 1
        known = self._per_operation.get(operation)
        name = known[0] if known else f"{self.sws.name}.{operation}"
        rtrace = self.obs.request_trace(name, self.stats.invocations, self.env.now)
        try:
            result = yield from self._invoke(
                operation, arguments, timeout, budget, rtrace, invocation_id
            )
        except BaseException as error:
            self.obs.finish_request(rtrace, self.env.now, status=type(error).__name__)
            raise
        self.obs.finish_request(rtrace, self.env.now, status="ok")
        return result

    def _invoke(
        self,
        operation: str,
        arguments: Dict[str, Any],
        timeout: Optional[float],
        budget: Optional[float],
        rtrace,
        invocation_id: Optional[str],
    ) -> Generator:
        """One logical call from cache lookup to translated result.

        The prelude can answer without traffic (result cache, open
        breaker); otherwise it discovers, picks the group — shard ring,
        then region preference and QoS — and runs the bind/send/retry loop
        against it.  The loop's state is this generator's locals: the
        closures below count failures, back off, and move the call to the
        key's ring successor or the next region's group when that is safe.
        """
        started_at = self.env.now
        per_request_timeout = timeout if timeout is not None else self.request_timeout
        deadline = Deadline(
            at=started_at + (budget if budget is not None else self.deadline_budget)
        )
        # Idempotency key for the whole logical call: every retry/rebind
        # below re-sends under the same id, so the b-peer group can
        # deduplicate (journal replay) instead of re-executing.  A caller
        # may pin its own (durably logged) key; otherwise the proxy mints
        # one from its private counter.
        if invocation_id is None:
            invocation_id = f"{self.name}#{next(self._invocation_ids)}"

        # Read-through semantic result cache: a hit on a read-only
        # operation returns here — no discovery, no bind, no traffic.
        # The key is the semantic action concept + the canonicalized
        # argument map (shard_key's canonicalization), so syntactically
        # different but semantically identical calls share an entry.
        annotation = self.sws.annotation(operation)
        action = annotation.action
        mutating = operation not in self.read_only_operations
        cache_key: Optional[str] = None
        if self.result_cache is not None and not mutating:
            cache_key = shard_key(action, arguments)
            entry = self.result_cache.lookup(
                cache_key, self.env.now, fence_for=self.bindings.delivered.get
            )
            if entry is not None:
                self.stats.cache_hits += 1
                return InvokeResult(
                    value=entry.value,
                    outcome=InvokeOutcome.CACHED,
                    epoch=entry.epoch,
                    attempts=0,
                    duration=self.env.now - started_at,
                    trace_id=rtrace.request_id,
                    served_by="rescache",
                    invocation_id=invocation_id,
                )
            self.stats.cache_misses += 1

        discover_span = rtrace.begin("discover", self.env.now)
        matches = yield from self.find_peer_group_adv(annotation, deadline=deadline)
        discover_span.finish(self.env.now, matches=len(matches))
        if not matches:
            raise NoMatchingGroupError(
                f"no b-peer group matches {self.sws.name}.{operation}"
            )
        router = self._shard_router_for(operation, matches)
        if router is not None:
            match_by_name = {
                m.advertisement.name: m for m in matches if m.advertisement.sharded
            }
            routing_key = shard_key(action, arguments)
            owner = router.route(routing_key, self.env.now)
            match = match_by_name.get(owner) if owner is not None else None
            if match is None:
                match = self._choose_group(matches)
            self._count("shard_routed")
        else:
            match = self._choose_group(matches)
        region_alternates: List[GroupMatch] = []
        if self.home_region is not None and router is None:
            # Other regions' groups for the same semantics — the
            # cross-region failover ladder, in match order (best first,
            # which find_peer_group_adv already guarantees).
            region_alternates = [
                m
                for m in matches
                if m.advertisement.region is not None
                and m.advertisement.group_id != match.advertisement.group_id
            ]
        # Circuit breaker, scoped to the chosen advertisement (i.e. per
        # service + shard): an open circuit rejects locally with
        # CircuitOpenError.
        breaker = self._breaker_for(match.advertisement.name)
        if breaker is not None and not breaker.allow(self.env.now):
            breaker.reject(self.env.now)
            self.stats.breaker_rejected += 1
            raise CircuitOpenError(
                f"circuit open for {match.advertisement.name!r} "
                f"({self.sws.name}.{operation} rejected locally)"
            )
        advertisement = match.advertisement
        group_id = advertisement.group_id
        profile = self._profile_for(advertisement.key())
        bindings = self.bindings
        #: Whether any attempt has actually been handed to the network —
        #: the point past which a mutating request may have executed.
        sent = False
        # Opened on the first failure signal that needs recovery, closed
        # when the request completes: the span's duration is the observed
        # failover time (``None`` = the request never needed recovery).
        recover_span = None
        recover_reason: Optional[str] = None
        attempt = 0
        #: Retries (failed tries) so far — drives the backoff exponent.
        failures = 0
        #: ``busy`` replies absorbed so far, and whether the most recent
        #: failure signal was a shed (drives the terminal fault's shape).
        shed_retries = 0
        busy_was_last = False
        last_busy_hint: Optional[float] = None

        def enter_recovery(reason: str) -> None:
            """Count the failed try; the first one opens the recover span."""
            nonlocal failures, recover_span, recover_reason
            failures += 1
            if recover_span is None:
                recover_span = rtrace.begin("recover", self.env.now)
                recover_reason = reason

        def backoff() -> Generator:
            """Sleep the policy's (jittered, deadline-clamped) delay."""
            delay = self.retry.delay(failures - 1, self._retry_rng)
            delay = min(delay, deadline.remaining(self.env.now))
            if delay > 0.0:
                yield self.env.timeout(delay)

        def pinned() -> bool:
            """The sticky at-most-once rule, for ring and ladder alike: a
            mutating request that has been sent stays with its group (its
            invocation id may live in that journal), so a retried id never
            spans two groups and each group's dedup journal alone suffices
            for exactly-once; reads and never-sent requests may move."""
            return sent and mutating

        def switch_group(successor: GroupMatch) -> None:
            nonlocal advertisement, group_id, profile
            advertisement = successor.advertisement
            group_id = advertisement.group_id
            profile = self._profile_for(advertisement.key())

        def try_reroute() -> bool:
            """Fail the key over to its ring successor, if safe: suspects
            the current group either way (so *fresh* requests stop landing
            on it), moves this request only while it is not pinned."""
            if router is None:
                return False
            router.suspect(advertisement.name, self.env.now)
            if pinned():
                return False
            owner = router.route(routing_key, self.env.now)
            if owner is None or owner == advertisement.name:
                return False
            successor = match_by_name.get(owner)
            if successor is None:
                return False
            switch_group(successor)
            self._count("shard_failovers")
            return True

        def try_region_failover() -> bool:
            """Rebind to the next region's group, if safe (same sticky
            rule).  Epoch fencing continues per group — each region's
            group has its own election domain and binding."""
            if not region_alternates or pinned():
                return False
            switch_group(region_alternates.pop(0))
            self._count("region_failovers")
            return True

        def close_recovery() -> None:
            if recover_span is not None:
                recover_span.finish(
                    self.env.now, reason=recover_reason, attempts=attempt
                )

        try:
            while True:
                capped = attempt >= self.max_attempts
                if capped or deadline.expired(self.env.now):
                    # The one give-up exit: out of attempts, or out of time.
                    if not capped:
                        self._count("deadline_exhausted")
                    profile.record_failure()
                    close_recovery()
                    if busy_was_last:
                        why = (
                            f"{shed_retries} busy replies in {attempt} attempts"
                            if capped
                            else "deadline exhausted after "
                            f"{shed_retries} busy replies"
                        )
                        raise SoapFault.server_busy(
                            f"{self.sws.name}.{operation} shed by overload "
                            f"control ({why})",
                            retry_after=last_busy_hint,
                        )
                    why = (
                        f"failed after {self.max_attempts} attempts"
                        if capped
                        else f"deadline exhausted after "
                        f"{self.env.now - started_at:.3f}s ({attempt} attempts)"
                    )
                    raise InvocationFailedError(f"{self.sws.name}.{operation} {why}")
                attempt += 1
                busy_was_last = False
                binding = bindings.bound.get(group_id)
                if binding is None:
                    bind_span = rtrace.begin("bind", self.env.now)
                    try:
                        binding = yield from bindings.resolve(group_id, deadline)
                    except NoCoordinatorError:
                        bind_span.finish(self.env.now, outcome="no-coordinator")
                        self._breaker_feedback(advertisement.name, ok=False)
                        enter_recovery("no-coordinator")
                        # The ring successor or another region's group takes
                        # the call now; else the group may be mid-election:
                        # back off and retry.
                        if not (try_reroute() or try_region_failover()):
                            yield from backoff()
                        continue
                    bind_span.finish(self.env.now, outcome="ok")
                invoke_span = rtrace.begin("invoke", self.env.now)
                sent = True
                reply = yield from self._send_and_wait(
                    binding,
                    operation,
                    arguments,
                    deadline.clamp(self.env.now, per_request_timeout),
                    invocation_id,
                    attempt,
                )
                if reply is None:  # timeout — coordinator is likely dead
                    invoke_span.finish(self.env.now, outcome="timeout")
                    self._count("timeouts")
                    self._breaker_feedback(advertisement.name, ok=False)
                    profile.record_failure()
                    bindings.drop(binding)
                    enter_recovery("timeout")
                    if not try_reroute():
                        try_region_failover()
                    continue
                if reply.kind == "result":
                    if not (reply.deduped or bindings.deliver(group_id, reply.epoch)):
                        # A deposed coordinator answered after a takeover
                        # already delivered under a newer term: never hand the
                        # stale value to the client.
                        invoke_span.finish(self.env.now, outcome="stale-result")
                        self._count("stale_results_discarded")
                        bindings.drop(binding)
                        enter_recovery("stale-result")
                        yield from backoff()
                        continue
                    invoke_span.finish(self.env.now, outcome="ok")
                    self._count("successes")
                    self._breaker_feedback(advertisement.name, ok=True)
                    elapsed = self.env.now - started_at
                    self.obs.metrics.observe("proxy.rtt", elapsed)
                    profile.record_success(elapsed)
                    if reply.deduped:
                        # A journal replay settles under the *original*
                        # execution's term; it neither advances nor violates
                        # the monotone result-epoch audit.
                        self._count("deduped")
                    if recover_span is not None:
                        close_recovery()
                        self.stats.failover_durations.append(elapsed)
                        self.obs.metrics.observe("proxy.failover", elapsed)
                        outcome = InvokeOutcome.RECOVERED
                    elif shed_retries:
                        outcome = InvokeOutcome.RETRIED_AFTER_SHED
                    else:
                        outcome = InvokeOutcome.OK
                    result = InvokeResult(
                        value=self._translate(operation, reply.value),
                        outcome=outcome,
                        epoch=reply.epoch,
                        attempts=attempt,
                        duration=elapsed,
                        trace_id=rtrace.request_id,
                        served_by=reply.served_by,
                        shed_retries=shed_retries,
                        deduped=reply.deduped,
                        invocation_id=invocation_id,
                        group_id=group_id,
                    )
                    break
                if reply.kind == "busy":
                    # Overload shed: the coordinator is alive but refusing
                    # load, so keep the binding and retry *later* — the
                    # retry-after hint (when it fits the deadline) replaces
                    # the generic backoff.
                    invoke_span.finish(self.env.now, outcome="busy")
                    self._count("shed")
                    shed_retries += 1
                    failures += 1
                    busy_was_last = True
                    last_busy_hint = reply.retry_after
                    profile.record_failure()
                    remaining = deadline.remaining(self.env.now)
                    if reply.retry_after is not None and remaining > 0.0:
                        self._count("retry_after_honored")
                        delay = min(reply.retry_after, remaining)
                        if delay > 0.0:
                            yield self.env.timeout(delay)
                    else:
                        yield from backoff()
                    continue
                if reply.kind == "fault":
                    invoke_span.finish(self.env.now, outcome="fault")
                    self._count("faults")
                    raise SoapFault(reply.fault_code or "Server", str(reply.value))
                if reply.kind == "not-coordinator":
                    stale = reply.value == "stale-epoch"
                    reason = "stale-epoch" if stale else "redirect"
                    invoke_span.finish(self.env.now, outcome=reason)
                    self._count("redirects")
                    if stale:
                        self._count("stale_epoch_redirects")
                    enter_recovery(reason)
                    if reply.coordinator is not None:
                        bindings.install(group_id, *reply.coordinator)
                        # Fresh forward pointer: retry immediately, no backoff.
                    else:
                        bindings.drop(binding)
                        yield from backoff()
                    continue
                if reply.kind == "cannot-serve":
                    # Every replica's backend is down.  Another region's group
                    # has independent backends, so the failover ladder applies
                    # (reads only: the request was sent); otherwise it is
                    # a genuine application outage redundancy cannot mask.
                    invoke_span.finish(self.env.now, outcome="cannot-serve")
                    if try_region_failover():
                        enter_recovery("cannot-serve")
                        continue
                    self._count("faults")
                    self._breaker_feedback(advertisement.name, ok=False)
                    profile.record_failure()
                    raise SoapFault.server(
                        f"all b-peers of {advertisement.name!r} cannot serve"
                    )
        finally:
            # A mutating call may have executed even when it raised (a
            # sent request can land after our timeout), so any cached
            # read of this service could now be stale: flush.
            if mutating and self.result_cache is not None:
                self.result_cache.invalidate_all()
        if cache_key is not None:
            self.result_cache.store(
                cache_key,
                result.value,
                action=action,
                epoch=result.epoch,
                group_id=result.group_id,
                now=self.env.now,
            )
        return result

    def _shard_router_for(
        self, operation: str, matches: List[GroupMatch]
    ) -> Optional[ShardRouter]:
        """The operation's shard router, fed from discovered shard ads.

        Returns ``None`` for unsharded deployments (no match carries a
        shard annotation), leaving the single-group path untouched.  The
        router's ring is merged *additively* from whatever shard groups
        this discovery round surfaced — a partial view must never shrink
        the ring and misroute keys other rounds resolved correctly.
        """
        sharded = [m.advertisement.name for m in matches if m.advertisement.sharded]
        if not sharded:
            return None
        router = self._routers.get(operation)
        if router is None:
            router = ShardRouter(suspect_interval=self.shard_suspect_interval)
            self._routers[operation] = router
        router.update(sharded)
        return router

    def _count(self, event: str) -> None:
        """Count ``event`` in both places it is read from: ``stats.<event>``
        (benchmarks, tests) and the ``proxy.<event>`` metric (obs export)."""
        setattr(self.stats, event, getattr(self.stats, event) + 1)
        self.obs.metrics.inc(f"proxy.{event}")

    # -- circuit breakers ----------------------------------------------------------------

    def _breaker_for(self, scope: str) -> Optional[CircuitBreaker]:
        """The (service, shard)-scoped breaker, lazily built per scope."""
        if self._breaker_spec is None:
            return None
        breaker = self._breakers.get(scope)
        if breaker is None:
            breaker = CircuitBreaker(
                self._breaker_spec, scope=scope, metrics=self.obs.metrics
            )
            self._breakers[scope] = breaker
        return breaker

    def _breaker_feedback(self, scope: str, ok: bool) -> None:
        """Feed an attempt outcome to ``scope``'s breaker (if enabled).

        Failure = no-coordinator bind failures, attempt timeouts, and
        terminal cannot-serve — signals the group is *unreachable or
        unable*.  Overload sheds and application faults are deliberately
        not failures: a shedding or faulting service is alive.
        """
        breaker = self._breaker_for(scope)
        if breaker is None:
            return
        if ok:
            breaker.record_success(self.env.now)
        else:
            breaker.record_failure(self.env.now)

    def _send_and_wait(
        self,
        binding: _Binding,
        operation: str,
        arguments: Dict[str, Any],
        timeout: float,
        invocation_id: str,
        attempt: int = 1,
    ) -> Generator:
        request = ExecRequest(
            request_id=next(self._request_ids),
            group_id=binding.group_id,
            operation=operation,
            arguments=arguments,
            reply_to=self.peer_id,
            reply_addr=self.endpoint.address,
            epoch=binding.epoch,
            observed_epoch=self.bindings.witnessed(binding),
            invocation_id=invocation_id,
            attempt=attempt,
        )
        done = self.env.event()
        self._pending[request.request_id] = done
        try:
            try:
                self.endpoint.send(
                    binding.coordinator,
                    PROTO_EXEC,
                    request,
                    category="bpeer-request",
                    size_bytes=700,
                )
            except UnresolvablePeerError:
                return None
            outcome = yield Wait(self.env, done, timeout)
            return None if outcome is EXPIRED else outcome
        finally:
            self._pending.pop(request.request_id, None)

    def _on_reply(self, message: EndpointMessage) -> None:
        reply: ExecReply = message.payload
        done = self._pending.get(reply.request_id)
        if done is not None and not done.triggered:
            done.succeed(reply)

    # -- data translation (§4.2) ------------------------------------------------------------------

    def _translate(self, operation: str, value: Any) -> Any:
        """Validate/format the b-peer result against the WSDL schema."""
        element = self._per_operation[operation][1]
        schema = self.sws.definitions.schema
        if element is not None and element in schema.elements:
            try:
                schema.validate_element(element, value)
            except SchemaError:
                self.stats.translation_failures += 1
        return value
