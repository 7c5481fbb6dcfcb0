"""The simulated network: hosts, links, routing, regions, partitions.

The default topology models the paper's testbed: a set of identical machines
on a switched 100 Mbit/s Ethernet LAN.  Message delay is *propagation*
(drawn from the link's latency model) plus *transmission* (size divided by
link bandwidth).  Hosts that are down, partitioned apart, or unlucky with
the loss rate never receive the message — the trace records the drop.

Multi-region topologies add a second tier: hosts may be placed in a named
:class:`Region` (each region is its own switched LAN), and regions are
joined by *directed* WAN links so up/down latency can be asymmetric.
Region-placed hosts live under a qualified name (``"<region>/<host>"``);
bare names still resolve when unambiguous, and resolve to an
:class:`UnknownHostError` naming both candidates when two regions contain
the same host name.  A single-region (or region-free) network behaves
byte-for-byte like the flat LAN the paper measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..obs import Observability
from .environment import Environment
from .events import Event, Timeout
from .latency import LatencyModel, lan_latency
from .message import Message
from .node import Node
from .rng import RngRegistry
from .trace import MessageTrace
from .transport import Transport

__all__ = ["Link", "Region", "Network", "UnknownHostError"]

#: 100 Mbit/s, the paper's Ethernet LAN.
DEFAULT_BANDWIDTH_BPS = 100e6


class UnknownHostError(Exception):
    """Raised when sending to or looking up a host that was never added."""


@dataclass
class Link:
    """Per-host-pair overrides of the default LAN characteristics."""

    latency: LatencyModel
    bandwidth_bps: float
    loss_rate: float = 0.0


@dataclass
class Region:
    """One switched LAN segment of a multi-region topology."""

    name: str
    link: Link
    hosts: Set[str] = field(default_factory=set)


class Network:
    """A set of hosts joined by (by default) one switched LAN."""

    def __init__(
        self,
        env: Environment,
        trace: Optional[MessageTrace] = None,
        rng: Optional[RngRegistry] = None,
        default_latency: Optional[LatencyModel] = None,
        default_bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        obs: Optional[Observability] = None,
    ):
        self.env = env
        self.trace = trace if trace is not None else MessageTrace()
        #: Request-scoped observability; disabled unless a caller (e.g.
        #: WhisperSystem) supplies an enabled instance, so bare networks
        #: pay nothing for the instrumentation hooks.
        self.obs = obs if obs is not None else Observability(enabled=False)
        self.rng = rng if rng is not None else RngRegistry(0)
        self.default_latency = default_latency or lan_latency()
        self.default_bandwidth_bps = default_bandwidth_bps
        self.loss_rate = 0.0
        #: The flat-LAN route every send without an override or region
        #: takes.  Latency and bandwidth only: ``loss_rate`` is assigned
        #: mid-run, so :meth:`send` and :meth:`link_between` read it live.
        self._default_link = Link(self.default_latency, default_bandwidth_bps)
        self.hosts: Dict[str, Node] = {}
        self._links: Dict[FrozenSet[str], Link] = {}
        self.regions: Dict[str, Region] = {}
        #: Directed WAN links, ``(src_region, dst_region) -> Link`` — two
        #: entries per region pair so up/down latency can differ.
        self._wan_links: Dict[Tuple[str, str], Link] = {}
        self._host_region: Dict[str, str] = {}
        self._partitions: List[Tuple[Set[str], Set[str]]] = []
        self._rng_stream = self.rng.stream("network")
        #: Per-host NIC egress availability: a host transmits one frame at
        #: a time, so back-to-back sends serialise on the wire.
        self._egress_busy_until: Dict[str, float] = {}
        #: Decision-point hooks, fired at ``pre-send`` (a message is about
        #: to enter the wire) and ``pre-deliver`` (it is about to reach the
        #: destination transport).  A hook may mutate the world (crash a
        #: host, cut a partition) and/or return ``"drop"`` to discard the
        #: message.  Empty by default — the schedule-exploration checker
        #: (:mod:`repro.check`) injects faults here, at protocol decision
        #: points rather than wall-clock instants.
        self.hooks: List[Callable[[str, Message], Optional[str]]] = []

    def add_hook(self, hook: Callable[[str, "Message"], Optional[str]]) -> None:
        """Register a decision-point hook (see :attr:`hooks`)."""
        self.hooks.append(hook)

    def remove_hook(self, hook: Callable[[str, "Message"], Optional[str]]) -> None:
        if hook in self.hooks:
            self.hooks.remove(hook)

    def _fire_hooks(self, point: str, message: "Message") -> Optional[str]:
        verdict: Optional[str] = None
        for hook in list(self.hooks):
            if hook(point, message) == "drop":
                verdict = "drop"
        return verdict

    # -- topology ---------------------------------------------------------------

    def add_region(
        self,
        name: str,
        latency: Optional[LatencyModel] = None,
        bandwidth_bps: Optional[float] = None,
        loss_rate: float = 0.0,
    ) -> Region:
        """Declare a named LAN segment; hosts join it via ``add_host(region=)``."""
        if name in self.regions:
            raise ValueError(f"region {name!r} already exists")
        if "/" in name:
            raise ValueError(f"region name {name!r} must not contain '/'")
        region = Region(
            name=name,
            link=Link(
                latency=latency or self.default_latency,
                bandwidth_bps=bandwidth_bps or self.default_bandwidth_bps,
                loss_rate=loss_rate,
            ),
        )
        self.regions[name] = region
        return region

    def connect_regions(
        self,
        a: str,
        b: str,
        latency: Optional[LatencyModel] = None,
        latency_back: Optional[LatencyModel] = None,
        bandwidth_bps: Optional[float] = None,
        loss_rate: float = 0.0,
    ) -> Link:
        """Join two regions with a WAN link (asymmetric if ``latency_back``).

        ``latency`` shapes the ``a -> b`` direction, ``latency_back`` the
        return path (defaults to symmetric).  Cross-region traffic between
        unconnected regions is dropped with reason ``no-wan-route``.
        """
        for region in (a, b):
            if region not in self.regions:
                raise ValueError(f"unknown region {region!r}")
        if a == b:
            raise ValueError("a WAN link needs two distinct regions")
        forward = Link(
            latency=latency or self.default_latency,
            bandwidth_bps=bandwidth_bps or self.default_bandwidth_bps,
            loss_rate=loss_rate,
        )
        backward = Link(
            latency=latency_back or forward.latency,
            bandwidth_bps=forward.bandwidth_bps,
            loss_rate=loss_rate,
        )
        self._wan_links[(a, b)] = forward
        self._wan_links[(b, a)] = backward
        return forward

    def qualified_host(self, name: str, region: Optional[str]) -> str:
        """The key a host is stored under: ``"<region>/<name>"`` when placed."""
        if region is None or name.startswith(f"{region}/"):
            return name
        return f"{region}/{name}"

    def add_host(self, name: str, region: Optional[str] = None) -> Node:
        """Add a machine to the LAN (or to ``region``'s segment)."""
        if region is not None and region not in self.regions:
            raise ValueError(f"unknown region {region!r}")
        key = self.qualified_host(name, region)
        if key in self.hosts:
            raise ValueError(f"host {key!r} already exists")
        node = Node(self, key)
        node.transport = Transport(node)
        self.hosts[key] = node
        if region is not None:
            self._host_region[key] = region
            self.regions[region].hosts.add(key)
        return node

    def add_hosts(self, names: Iterable[str], region: Optional[str] = None) -> List[Node]:
        return [self.add_host(name, region=region) for name in names]

    def resolve_host_name(self, name: str) -> str:
        """Resolve a possibly-bare host name to its stored key.

        Exact keys win; a bare name resolves iff exactly one region-placed
        host carries it.  Two regions holding the same bare name raise an
        :class:`UnknownHostError` naming both candidates — the flat-namespace
        assumption partitions and sends used to make is a bug once regions
        can reuse host names.
        """
        if name in self.hosts:
            return name
        if self._host_region and "/" not in name:
            suffix = f"/{name}"
            candidates = [key for key in self.hosts if key.endswith(suffix)]
            if len(candidates) == 1:
                return candidates[0]
            if len(candidates) > 1:
                raise UnknownHostError(
                    f"{name!r} is ambiguous across regions: "
                    f"{sorted(candidates)}; use a qualified '<region>/{name}'"
                )
        raise UnknownHostError(name)

    def host(self, name: str) -> Node:
        return self.hosts[self.resolve_host_name(name)]

    def region_of(self, name: str) -> Optional[str]:
        """The region a host was placed in (``None`` for flat LAN hosts)."""
        return self._host_region.get(self.resolve_host_name(name))

    def region_hosts(self, region: str) -> Set[str]:
        if region not in self.regions:
            raise ValueError(f"unknown region {region!r}")
        return set(self.regions[region].hosts)

    def connect(
        self,
        a: str,
        b: str,
        latency: Optional[LatencyModel] = None,
        bandwidth_bps: Optional[float] = None,
        loss_rate: float = 0.0,
    ) -> Link:
        """Override the default LAN characteristics for one host pair."""
        a, b = self.resolve_host_name(a), self.resolve_host_name(b)
        link = Link(
            latency=latency or self.default_latency,
            bandwidth_bps=bandwidth_bps or self.default_bandwidth_bps,
            loss_rate=loss_rate,
        )
        self._links[frozenset((a, b))] = link
        return link

    def _route(self, src: str, dst: str) -> Optional[Link]:
        """The directed effective link, or ``None`` when no WAN route exists.

        Per-pair overrides win; then same-region traffic uses the region's
        LAN link, cross-region traffic the directed WAN link (``None`` if
        the regions were never connected), and everything else the default
        flat LAN — exactly the seed's behaviour when no regions exist.
        """
        if self._links:
            override = self._links.get(frozenset((src, dst)))
            if override is not None:
                return override
        if self._host_region:
            region_a = self._host_region.get(src)
            region_b = self._host_region.get(dst)
            if region_a is not None and region_b is not None:
                if region_a == region_b:
                    return self.regions[region_a].link
                return self._wan_links.get((region_a, region_b))
        return self._default_link

    def link_between(self, a: str, b: str) -> Link:
        """The effective ``a -> b`` link (override, region, WAN, or default)."""
        a, b = self.resolve_host_name(a), self.resolve_host_name(b)
        link = self._route(a, b)
        if link is not None and link is not self._default_link:
            return link
        return Link(
            latency=self.default_latency,
            bandwidth_bps=self.default_bandwidth_bps,
            loss_rate=self.loss_rate,
        )

    # -- partitions ----------------------------------------------------------------

    def partition(
        self, side_a: Iterable[str], side_b: Iterable[str]
    ) -> Tuple[Set[str], Set[str]]:
        """Block all traffic between the two host groups.

        Returns a handle identifying *this* partition; pass it to
        :meth:`heal_partition` to remove only this split.  Overlapping
        partitions with different lifetimes stay independent that way —
        healing one must not heal the others.  Bare host names are
        resolved against the region namespace, so an ambiguous name (same
        host name in two regions) raises instead of silently matching
        neither key.
        """
        handle = (
            {self.resolve_host_name(name) for name in side_a},
            {self.resolve_host_name(name) for name in side_b},
        )
        self._partitions.append(handle)
        return handle

    def partition_regions(
        self, region_a: str, region_b: str
    ) -> Tuple[Set[str], Set[str]]:
        """Cut the WAN between two regions (all hosts of one vs. the other)."""
        return self.partition(self.region_hosts(region_a), self.region_hosts(region_b))

    def isolate_region(self, region: str) -> Tuple[Set[str], Set[str]]:
        """Partition one region away from every other host."""
        inside = self.region_hosts(region)
        outside = {name for name in self.hosts if name not in inside}
        return self.partition(inside, outside)

    def heal_partition(self, handle: Tuple[Set[str], Set[str]]) -> bool:
        """Remove one partition (by handle identity); True if it was active."""
        for index, active in enumerate(self._partitions):
            if active is handle:
                del self._partitions[index]
                return True
        return False

    def heal_partitions(self) -> None:
        """Remove every active partition."""
        self._partitions.clear()

    def partitioned(self, a: str, b: str) -> bool:
        """True if hosts ``a`` and ``b`` cannot currently communicate."""
        for side_a, side_b in self._partitions:
            if (a in side_a and b in side_b) or (a in side_b and b in side_a):
                return True
        return False

    # -- delivery -----------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Inject ``message``; it arrives (or is dropped) after the link delay."""
        src_name, dst_name = message.src[0], message.dst[0]
        if dst_name not in self.hosts:
            raise UnknownHostError(dst_name)
        if src_name not in self.hosts:
            # Symmetric with the destination check: a spoofed/typo'd source
            # is a caller bug, not a droppable network condition.
            raise UnknownHostError(src_name)
        now = self.env.now
        message.sent_at = now
        self.trace.on_send(now, message)

        if self.hooks and self._fire_hooks("pre-send", message) == "drop":
            self.trace.on_drop(now, message, reason="fault-injected")
            return
        if not self.hosts[src_name].up:
            self.trace.on_drop(now, message, reason="src-down")
            return
        if self._partitions and self.partitioned(src_name, dst_name):
            self.trace.on_drop(now, message, reason="partition")
            return

        link = self._route(src_name, dst_name)
        if link is None:
            # Distinct regions with no WAN link between them.
            self.trace.on_drop(now, message, reason="no-wan-route")
            return
        loss = max(link.loss_rate, self.loss_rate)
        if loss > 0 and self._rng_stream.random() < loss:
            self.trace.on_drop(now, message, reason="loss")
            return

        if src_name == dst_name:
            # Loopback: negligible but non-zero delay keeps causality.
            delay = 1e-6
        else:
            propagation = link.latency(self._rng_stream)
            transmission = (message.size_bytes * 8) / link.bandwidth_bps
            # NIC egress serialisation: the sender's interface puts one
            # frame on the wire at a time, so a burst of sends queues.
            egress_start = max(now, self._egress_busy_until.get(src_name, now))
            egress_done = egress_start + transmission
            self._egress_busy_until[src_name] = egress_done
            delay = (egress_done - now) + propagation

        # The arrival event carries the message as its value.
        Timeout(self.env, delay, message).callbacks.append(self._deliver)

    def _deliver(self, arrival: Event) -> None:
        message: Message = arrival._value
        dst_node = self.hosts[message.dst[0]]
        message.hops += 1
        if self.hooks and self._fire_hooks("pre-deliver", message) == "drop":
            self.trace.on_drop(self.env.now, message, reason="fault-injected")
            return
        if not dst_node.up or (
            self._partitions and self.partitioned(message.src[0], message.dst[0])
        ):
            self.trace.on_drop(self.env.now, message, reason="dst-down")
            return
        if dst_node.transport.deliver(message):
            self.trace.on_deliver(self.env.now, message)
        else:
            self.trace.on_drop(self.env.now, message, reason="no-socket")


def lan(
    env: Environment,
    host_names: Iterable[str],
    seed: int = 0,
    trace: Optional[MessageTrace] = None,
) -> Network:
    """Build the paper's testbed: identical hosts on a 100 Mbit/s LAN."""
    network = Network(env, trace=trace, rng=RngRegistry(seed))
    network.add_hosts(host_names)
    return network
