"""The whole-system builder.

:class:`WhisperSystem` assembles a complete deployment — simulated LAN,
rendezvous, web servers with semantic Web services and SWS-proxies,
semantic b-peer groups with backends — exactly the architecture of the
paper's Figures 1–3.  Examples and benchmarks build on this facade.
``deploy_service`` decides per operation *what* to place (flat, sharded,
per-region or WAN-spanning) and one loop places it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from ..backend.datasets import student_database
from ..backend.services import (
    ServiceImplementation,
    student_enrollment,
    student_lookup_operational,
    student_lookup_warehouse,
)
from ..backend.warehouse import build_warehouse
from ..obs import Observability
from ..ontology.domains import b2b_ontology
from ..ontology.match import ConceptMatcher
from ..ontology.reasoner import Reasoner
from ..p2p.gossip import GossipService
from ..p2p.peer import Peer
from ..simnet.environment import Environment
from ..simnet.failure import FailureInjector
from ..simnet.latency import parse_latency_spec
from ..simnet.network import Network
from ..simnet.node import Node
from ..simnet.rng import RngRegistry
from ..simnet.trace import MessageTrace
from ..soap.client import SoapClient
from ..wsdl.definitions import Definitions
from ..wsdl.samples import student_admin_wsdl, student_management_wsdl
from .autoscale import AutoscalingGroup
from .bpeer_group import BPeerGroup, deploy_bpeer_group
from .config import ScenarioConfig
from .proxy import SwsProxy
from .topology import DEFAULT_WAN_BANDWIDTH_BPS, Topology
from .result import InvokeResult
from .sws import SemanticWebService
from .webservice import PlainWebService, WhisperWebService

__all__ = ["WhisperSystem", "DeployedService"]


@dataclass
class DeployedService:
    """One fully wired service: front-end, proxy, and back-end group(s).

    ``placed`` is the one stored map: per deployed operation, every b-peer
    group backing it, in placement order — one group on the flat LAN and
    for a WAN-spanning placement, the shard groups by shard index, or one
    group per region.  What callers read is derived from it and from the
    region each advertisement carries: ``shard_groups`` is an operation's
    groups in the proxy's home region (all of them unless the deployment
    is region-replicated), ``groups`` the first of those (shard 0 / the
    home region's group), ``group`` that of the first operation.
    """

    sws: SemanticWebService
    web_service: WhisperWebService
    proxy: SwsProxy
    placed: Dict[str, List[BPeerGroup]]
    #: Autoscaling controllers, one per operation group — empty unless
    #: the deployment was configured with ``ScenarioConfig(autoscale=...)``.
    autoscalers: List[AutoscalingGroup] = field(default_factory=list)

    @property
    def shard_groups(self) -> Dict[str, List[BPeerGroup]]:
        home = self.proxy.home_region
        return {
            operation: [g for g in groups if g.advertisement.region == home]
            for operation, groups in self.placed.items()
        }

    @property
    def groups(self) -> Dict[str, BPeerGroup]:
        return {op: groups[0] for op, groups in self.shard_groups.items()}

    @property
    def group(self) -> BPeerGroup:
        return next(iter(self.groups.values()))

    @property
    def region_groups(self) -> Optional[Dict[str, Dict[str, BPeerGroup]]]:
        """Per operation, the group serving each region; ``None`` unless
        the deployment is region-replicated."""
        if self.proxy.home_region is None:
            return None
        return {
            operation: {g.advertisement.region: g for g in groups}
            for operation, groups in self.placed.items()
        }

    @property
    def address(self):
        return self.web_service.address

    @property
    def path(self) -> str:
        return self.web_service.path

    def group_for(self, operation: str) -> BPeerGroup:
        return self.groups[operation]

    def shard_groups_for(self, operation: str) -> List[BPeerGroup]:
        return self.shard_groups[operation]

    def region_group_for(self, operation: str, region: str) -> BPeerGroup:
        by_region = (self.region_groups or {}).get(operation)
        if by_region is None:
            raise KeyError(f"{operation} has no per-region groups")
        return by_region[region]

    def all_groups(self) -> List[BPeerGroup]:
        """Every distinct b-peer group backing this service, home region's first."""
        seen: Dict[int, BPeerGroup] = {}
        for groups in (*self.shard_groups.values(), *self.placed.values()):
            for group in groups:
                seen.setdefault(id(group), group)
        return list(seen.values())

    def all_peers(self):
        """Every b-peer across every operation and shard group."""
        return [peer for group in self.all_groups() for peer in group.peers]

    def invoke(
        self,
        operation: str,
        arguments: Dict[str, Any],
        timeout: Optional[float] = None,
        budget: Optional[float] = None,
        invocation_id: Optional[str] = None,
    ) -> Generator[Any, Any, InvokeResult]:
        """Invoke through the SWS-proxy; returns a typed
        :class:`~repro.core.result.InvokeResult` (``.value`` holds the
        bare payload).  Convenience for tests/benchmarks that do not
        need the SOAP wire.  ``invocation_id`` pins the idempotency key
        (saga orchestration) instead of letting the proxy mint one."""
        result = yield from self.proxy.invoke(
            operation, arguments, timeout=timeout, budget=budget,
            invocation_id=invocation_id,
        )
        return result


def _shard_implementations(operation_impls, shards: int, operation: str, what: str = "shard"):
    """Normalise one operation's implementations into per-shard lists.

    Unsharded: a flat list becomes ``[list]``.  Sharded: accept a factory
    ``shard_index -> [implementations]`` or a list of ``shards`` lists;
    a flat list is rejected because shard groups must not share backend
    (and invocation-counter) instances.  Region-replicated deployments
    reuse the same normalisation with ``what="region"`` (one independent
    implementation list per region, factory index = region index).
    """
    if callable(operation_impls):
        per_shard = [list(operation_impls(index)) for index in range(shards)]
    else:
        impls = list(operation_impls)
        if shards == 1:
            per_shard = [impls]
        elif impls and all(
            isinstance(item, (list, tuple)) for item in impls
        ):
            if len(impls) != shards:
                raise ValueError(
                    f"{operation}: got {len(impls)} implementation lists "
                    f"for {shards} {what}s"
                )
            per_shard = [list(item) for item in impls]
        else:
            raise ValueError(
                f"{operation}: a {what}ed deploy ({shards} {what}s) needs one "
                f"implementation list per {what} — pass a factory "
                f"{what}_index -> [implementations] or a list of lists"
            )
    for index, shard_impls in enumerate(per_shard):
        if not shard_impls:
            raise ValueError(f"{operation}: {what} {index} has no implementations")
    return per_shard


class WhisperSystem:
    """A complete Whisper deployment on one simulated LAN."""

    def __init__(self, config: Optional[ScenarioConfig] = None):
        """Build a deployment from one :class:`ScenarioConfig`."""
        self.config = config if config is not None else ScenarioConfig()
        #: The declarative network shape.  ``config.topology=None`` means
        #: the paper's flat single LAN (the seed, byte-identical).
        self.topology = self.config.topology or Topology.single_region()
        self.env = Environment()
        self.trace = MessageTrace(record_details=self.config.record_trace_details)
        #: Request-scoped tracing + metrics (§5's per-phase attribution).
        #: Purely in-process: it sends no message, so the Figure-4 counts
        #: do not depend on it.
        self.obs = Observability()
        self.trace.metrics = self.obs.metrics
        self.network = Network(
            self.env,
            trace=self.trace,
            rng=RngRegistry(self.config.seed),
            obs=self.obs,
        )
        self.failures = FailureInjector(self.network)
        self.ontology = b2b_ontology()
        self.reasoner = Reasoner(self.ontology)
        self.matcher = ConceptMatcher(self.reasoner)
        self.services: Dict[str, DeployedService] = {}
        #: Per-region rendezvous peers and gossip services (multi-region
        #: topologies only; both empty on the flat LAN).
        self.rendezvous_peers: Dict[str, Peer] = {}
        self.gossip: Dict[str, GossipService] = {}

        if self.topology.multi_region:
            self._build_regions()
            self.rendezvous = self.rendezvous_peers[self.topology.home]
        else:
            rdv_node = self.network.add_host("rdv0")
            self.rendezvous = Peer(rdv_node, is_rendezvous=True)
            self.rendezvous.publish_self(remote=False)

    def _build_regions(self) -> None:
        """Wire regions, WAN links, per-region rendezvous, and federation."""
        topology = self.topology
        for spec in topology.regions:
            self.network.add_region(spec.name)
        for link in topology.wan_links_effective():
            self.network.connect_regions(
                link.a,
                link.b,
                latency=parse_latency_spec(link.latency),
                latency_back=(
                    parse_latency_spec(link.latency_back)
                    if link.latency_back is not None
                    else None
                ),
                bandwidth_bps=DEFAULT_WAN_BANDWIDTH_BPS,
            )
        gossip_spec = topology.gossip
        for spec in topology.regions:
            node = self.network.add_host("rdv0", region=spec.name)
            peer = Peer(node, is_rendezvous=True)
            peer.publish_self(remote=False)
            self.rendezvous_peers[spec.name] = peer
            self.gossip[spec.name] = GossipService(
                peer,
                spec.name,
                rng=self.network.rng.stream(f"gossip:{spec.name}"),
                fanout=gossip_spec.fanout,
                interval=gossip_spec.interval,
                mode=gossip_spec.mode,
            )
        # Federate along the WAN links (the default mesh federates every
        # pair): propagated queries keep flooding across the WAN, while
        # advertisement state travels by gossip.
        for link in topology.wan_links_effective():
            peer_a = self.rendezvous_peers[link.a]
            peer_b = self.rendezvous_peers[link.b]
            peer_a.rendezvous.federate_with(
                peer_b.endpoint.peer_id, peer_b.endpoint.address
            )
            peer_b.rendezvous.federate_with(
                peer_a.endpoint.peer_id, peer_a.endpoint.address
            )
            self.gossip[link.a].add_peer(peer_b.endpoint.peer_id, link.b)
            self.gossip[link.b].add_peer(peer_a.endpoint.peer_id, link.a)

    # -- deployment ------------------------------------------------------------------

    def deploy_service(
        self,
        definitions: Definitions,
        implementations,
        web_host: Optional[str] = None,
        group_name: Optional[str] = None,
        config: Optional[ScenarioConfig] = None,
        replica_factory: Optional[Callable[[int], ServiceImplementation]] = None,
    ) -> DeployedService:
        """Deploy one semantic Web service backed by b-peer group(s).

        ``implementations`` is either a sequence of
        :class:`~repro.backend.services.ServiceImplementation` (all backing
        the service's *first* operation — the common case) or a mapping
        ``{operation_name: [implementations]}`` for multi-operation
        services, which get one b-peer group per operation.

        With ``config.shards > 1`` each operation is deployed as N
        federated shard groups (named ``<group>-s<i>``), each with its
        own replication/election/journal; the implementations must then
        come as one list *per shard* — either a factory
        ``shard_index -> [implementations]`` or a list of ``shards``
        lists — because shard groups may not share backend instances.

        ``config`` overrides the system-wide scenario for this service
        (dispatch policy, queue bound, proxy budgets, ...).

        With ``config.autoscale`` set, ``replica_factory`` (replica index
        → fresh :class:`ServiceImplementation`) is required: the
        autoscaling controller mints scale-up replicas from it exactly
        the way the initial deployment built its members.
        """
        scenario = config if config is not None else self.config
        topology = self.topology
        scenario.check_supported(topology)
        if scenario.autoscale is not None and replica_factory is None:
            raise ValueError(
                "ScenarioConfig(autoscale=...) needs a replica_factory "
                "(replica index -> ServiceImplementation) so the "
                "controller can mint scale-up replicas"
            )
        replicate_regions = topology.multi_region and topology.placement == "replicate"
        sws = SemanticWebService(definitions, self.ontology)
        if isinstance(implementations, dict):
            per_operation = dict(implementations)
            unknown = set(per_operation) - set(sws.operations())
            if unknown:
                raise ValueError(f"implementations for unknown operations: {unknown}")
        else:
            per_operation = {sws.operations()[0]: implementations}

        placed: Dict[str, List[BPeerGroup]] = {}
        read_only: List[str] = []
        region_names = topology.region_names()
        what = "region" if replicate_regions else "shard"
        for operation, operation_impls in per_operation.items():
            base_name = group_name or f"grp-{sws.name}"
            name = base_name if len(per_operation) == 1 else f"{base_name}-{operation}"
            # What to place: (group name, placement keywords) per group.
            if replicate_regions:
                # One independent group per region: its own replicas,
                # election, and journal, advertised with a home region so
                # proxies can prefer (and fail over across) regions.
                placements = [
                    (f"{name}@{region}", {"region": region}) for region in region_names
                ]
            elif topology.multi_region:
                # "span": one group (one election domain) whose replicas
                # straddle the WAN, each attached to its region's
                # rendezvous.  The advertisement carries no home region.
                placements = [(name, {"host_regions": region_names})]
            elif scenario.shards == 1:
                placements = [(name, {})]
            else:
                count = scenario.shards
                placements = [
                    (f"{name}-s{index}", {"shard_index": index, "shard_count": count})
                    for index in range(count)
                ]
            per_group = _shard_implementations(
                operation_impls, len(placements), operation, what
            )
            placed[operation] = [
                deploy_bpeer_group(
                    self.network,
                    self.rendezvous,
                    group_name=placed_name,
                    implementations=group_impls,
                    rendezvous_by_region=self.rendezvous_peers,
                    annotation=sws.annotation(operation),
                    ontology_uri=self.ontology.uri,
                    config=scenario,
                    **keywords,
                )
                for (placed_name, keywords), group_impls in zip(placements, per_group)
            ]
            if all(not impl.mutating for impls in per_group for impl in impls):
                read_only.append(operation)

        web_node = self.network.add_host(
            web_host or f"web-{sws.name}",
            region=topology.home if topology.multi_region else None,
        )
        proxy = SwsProxy(
            web_node,
            sws,
            self.matcher,
            config=scenario,
            home_region=topology.home if replicate_regions else None,
            region_count=len(region_names) if replicate_regions else 1,
        )
        proxy.read_only_operations.update(read_only)
        proxy.attach_to(self.rendezvous)
        proxy.publish_self(remote=False)
        web_service = WhisperWebService(web_node, sws, proxy)
        deployed = DeployedService(sws, web_service, proxy, placed)
        if scenario.autoscale is not None:
            # Unsharded, single-region: one group per operation.
            for (group,) in placed.values():
                controller = AutoscalingGroup(
                    self.network, self.rendezvous, group, replica_factory, scenario
                )
                controller.start()
                deployed.autoscalers.append(controller)
        self.services[sws.name] = deployed
        return deployed

    def deploy_plain_service(
        self, service_name: str, implementation: ServiceImplementation
    ) -> PlainWebService:
        """Deploy the no-Whisper baseline (implementation on the web host)."""
        node = self.network.add_host(f"web-{service_name}")
        return PlainWebService(node, service_name, implementation)

    def add_client(self, name: str = "client0", timeout: float = 5.0):
        """Add a client host; returns ``(node, soap_client)``.

        In multi-region topologies the client lands in the home region.
        """
        region = self.topology.home if self.topology.multi_region else None
        node = self.network.add_host(name, region=region)
        return node, SoapClient(node, default_timeout=timeout)

    # -- canonical scenario (§3's student management service) ----------------------------

    def deploy_student_service(
        self,
        config: Optional[ScenarioConfig] = None,
    ) -> DeployedService:
        """The paper's running example, with alternating backend flavours.

        Even-indexed replicas read the operational database; every
        ``warehouse_every``-th replica reads the data warehouse instead, so
        the §4.1 DB→warehouse failover is exercised out of the box.
        Replicas get independent copies of the operational store so a
        backend failure can be injected per-replica (lazily independent:
        a member costs the rows it touches, whatever ``students`` is).

        Sizing and budgets come from the :class:`ScenarioConfig`
        (``replicas`` / ``students`` / ``warehouse_every`` plus the proxy
        budgets).
        """
        scenario = config if config is not None else self.config
        if scenario.replicas < 1:
            raise ValueError("need at least one replica")

        def group_implementations(_index: int) -> List[ServiceImplementation]:
            """One shard's (or region's) members over their own stores."""
            implementations: List[ServiceImplementation] = []
            master = student_database(scenario.students)
            warehouse = build_warehouse(master)
            for index in range(scenario.replicas):
                if scenario.warehouse_every and index % scenario.warehouse_every == 1:
                    implementations.append(student_lookup_warehouse(warehouse))
                else:
                    replica_db = student_database(scenario.students)
                    implementations.append(student_lookup_operational(replica_db))
            return implementations

        return self.deploy_service(
            student_management_wsdl(),
            group_implementations,
            web_host="web0",
            config=scenario,
            # Scale-up replicas read a fresh copy of the operational
            # store, like the even-indexed members of the initial deploy.
            replica_factory=lambda _index: student_lookup_operational(
                student_database(scenario.students)
            ),
        )

    def deploy_enrollment_service(
        self, web_host: Optional[str] = "web0"
    ) -> DeployedService:
        """The write twin of :meth:`deploy_student_service`: §3's mutating
        ``sm:EnrollStudent``, every replica (of every shard) over its own
        operational store, so an audit can attribute each application of
        an effect to the member that made it.  Sized by the system's
        :class:`ScenarioConfig`."""
        scenario = self.config

        def replica(_index: int) -> ServiceImplementation:
            return student_enrollment(student_database(scenario.students))

        def group_implementations(_index: int) -> List[ServiceImplementation]:
            return [replica(index) for index in range(scenario.replicas)]

        return self.deploy_service(
            student_admin_wsdl(),
            {"EnrollStudent": group_implementations},
            web_host=web_host,
            config=scenario,
            replica_factory=replica,
        )

    # -- simulation control ---------------------------------------------------------------

    def settle(self, duration: float = 6.0) -> None:
        """Let leases, joins, SRDI pushes, and the first election finish."""
        self.env.run(until=self.env.now + duration)

    def run_until(self, time: float) -> None:
        self.env.run(until=time)

    def run_process(self, generator, node: Optional[Node] = None):
        """Spawn and run a process to completion; returns its value."""
        owner = node if node is not None else self.rendezvous.node
        process = owner.spawn(generator)
        return self.env.run(until=process)

    def reset_counters(self) -> None:
        """Zero the message trace (e.g. after warm-up, before measuring).

        RTT stamps for requests still in flight survive the reset (see
        :meth:`~repro.simnet.trace.MessageTrace.reset`).  The obs registry
        keeps its lifetime totals.
        """
        self.trace.reset()

    # -- health reporting --------------------------------------------------------------

    def status_report(self) -> Dict[str, Any]:
        """A structured health snapshot of the whole deployment.

        Covers what an operator would check: host liveness, per-service
        group membership and coordination state, proxy statistics,
        headline network counters, and the per-phase latency breakdown —
        discover / bind / invoke / recover / elect / execute — that
        attributes slow requests to their cause.
        """
        hosts_up = sum(1 for node in self.network.hosts.values() if node.up)
        services = {}
        for name, deployed in self.services.items():
            groups = {}
            for operation, shard_list in deployed.shard_groups.items():
                sharded = len(shard_list) > 1
                for shard_index, group in enumerate(shard_list):
                    coordinator = group.coordinator_peer()
                    replicas_qos = {
                        peer.name: {
                            "executed": peer.requests_executed,
                            "mean_time": peer.qos_profile.snapshot().time,
                            "reliability": peer.qos_profile.empirical_reliability,
                        }
                        for peer in group.peers
                    }
                    label = (
                        f"{operation}[shard {shard_index}]" if sharded else operation
                    )
                    groups[label] = {
                        "group": group.name,
                        "replicas": len(group.peers),
                        "alive": len(group.alive_peers()),
                        "coordinator": coordinator.name if coordinator else None,
                        "requests_executed": group.total_requests_executed(),
                        "requests_shed": group.total_requests_shed(),
                        "replica_qos": replicas_qos,
                    }
            stats = deployed.proxy.stats
            services[name] = {
                "address": deployed.address,
                "groups": groups,
                "proxy": {
                    "invocations": stats.invocations,
                    "successes": stats.successes,
                    "faults": stats.faults,
                    "timeouts": stats.timeouts,
                    "rebinds": stats.rebinds,
                    "shared_lookups": stats.shared_lookups,
                    "shed": stats.shed,
                    "retry_after_honored": stats.retry_after_honored,
                    "shard_routed": stats.shard_routed,
                    "shard_failovers": stats.shard_failovers,
                    "region_preferred": stats.region_preferred,
                    "region_failovers": stats.region_failovers,
                },
            }
            if deployed.region_groups:
                services[name]["regions"] = {
                    operation: {
                        region: group.name
                        for region, group in by_region.items()
                    }
                    for operation, by_region in deployed.region_groups.items()
                }
        report = {
            "time": self.env.now,
            "hosts": {"total": len(self.network.hosts), "up": hosts_up},
            "network": self.trace.snapshot(),
            "services": services,
            "phases": self.obs.phase_summary(),
        }
        if self.topology.multi_region:
            report["topology"] = {
                "regions": list(self.topology.region_names()),
                "home": self.topology.home,
                "placement": self.topology.placement,
                "gossip": {
                    region: {
                        "mode": service.mode,
                        "entries": len(service.entries),
                        "rumors_sent": service.stats.rumors_sent,
                        "digests_sent": service.stats.digests_sent,
                        "deltas_sent": service.stats.deltas_sent,
                        "floods_sent": service.stats.floods_sent,
                        "entries_applied": service.stats.entries_applied,
                        "refreshes_suppressed": service.stats.refreshes_suppressed,
                    }
                    for region, service in self.gossip.items()
                },
            }
        return report
