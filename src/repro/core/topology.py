"""Declarative deployment topologies: regions, WAN links, gossip tuning.

The paper's testbed is one switched LAN; ROADMAP item 3 federates it
across regions.  Instead of growing ``WhisperSystem`` / ``deploy_service``
more flat keyword arguments, the whole network shape is one frozen value —
a :class:`Topology` of :class:`RegionSpec` segments joined by
:class:`WanLinkSpec` links — carried on
:class:`~repro.core.config.ScenarioConfig` as the single ``topology``
field.  Latency everywhere is a *spec string* (see
:func:`repro.simnet.latency.parse_latency_spec`) so the CLI, the benches
and tests all construct models through one grammar.

``Topology.single_region()`` (or leaving ``ScenarioConfig.topology`` as
``None``) reproduces the paper's flat LAN byte-for-byte: no region
qualification, no gossip services, identical message counts.
``Topology.mesh(names)`` is the symmetric full mesh; anything else is
spelled with the dataclasses themselves::

    topology = Topology(
        regions=(RegionSpec("eu"), RegionSpec("us"), RegionSpec("ap")),
        wan_links=(
            WanLinkSpec("eu", "us", latency="lognormal:40ms±15ms"),
            WanLinkSpec("eu", "ap", latency="lognormal:120ms±30ms",
                        latency_back="lognormal:140ms±30ms"),
            WanLinkSpec("us", "ap", latency="lognormal:90ms±20ms"),
        ),
        gossip=GossipSpec(fanout=2, interval=0.5),
    )
    system = WhisperSystem(ScenarioConfig(topology=topology))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..simnet.latency import parse_latency_spec

__all__ = [
    "RegionSpec",
    "WanLinkSpec",
    "GossipSpec",
    "Topology",
    "DEFAULT_WAN_LATENCY",
    "DEFAULT_WAN_BANDWIDTH_BPS",
]

#: A mid-continental WAN hop: median 40 ms one way with heavy-tailed jitter.
DEFAULT_WAN_LATENCY = "lognormal:40ms±15ms"
#: 20 Mbit/s of provisioned inter-region capacity.
DEFAULT_WAN_BANDWIDTH_BPS = 20e6


@dataclass(frozen=True)
class RegionSpec:
    """One region: a switched LAN segment with its own characteristics."""

    name: str
    #: Latency spec string (or LatencyModel) for intra-region links.
    latency: str = "lan"
    bandwidth_bps: float = 100e6
    loss_rate: float = 0.0

    def __post_init__(self):
        if not self.name or "/" in self.name:
            raise ValueError(f"invalid region name {self.name!r}")
        parse_latency_spec(self.latency)  # fail fast on typos
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"region {self.name}: loss_rate out of range")


@dataclass(frozen=True)
class WanLinkSpec:
    """A WAN link between two regions, optionally asymmetric."""

    a: str
    b: str
    latency: str = DEFAULT_WAN_LATENCY
    #: Return-path latency; ``None`` means symmetric.
    latency_back: Optional[str] = None
    bandwidth_bps: float = DEFAULT_WAN_BANDWIDTH_BPS
    loss_rate: float = 0.0

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"WAN link needs two distinct regions, got {self.a!r}")
        parse_latency_spec(self.latency)
        if self.latency_back is not None:
            parse_latency_spec(self.latency_back)
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"WAN {self.a}-{self.b}: loss_rate out of range")


@dataclass(frozen=True)
class GossipSpec:
    """Tuning for the cross-region gossip discovery layer."""

    #: Rumor fanout: peers contacted per gossip round.
    fanout: int = 2
    #: Seconds between rumor rounds.
    interval: float = 0.5
    #: Seconds between anti-entropy digest exchanges.
    anti_entropy_interval: float = 5.0
    #: Rounds a rumor stays hot (re-forwarded) after first sight.
    rumor_rounds: int = 2
    #: ``"gossip"`` (rumor + anti-entropy) or ``"flood"`` (the baseline:
    #: every SRDI push is forwarded to every federated rendezvous).
    mode: str = "gossip"

    def __post_init__(self):
        if self.fanout < 1:
            raise ValueError("gossip fanout must be >= 1")
        if self.interval <= 0 or self.anti_entropy_interval <= 0:
            raise ValueError("gossip intervals must be positive")
        if self.rumor_rounds < 1:
            raise ValueError("rumor_rounds must be >= 1")
        if self.mode not in ("gossip", "flood"):
            raise ValueError(f"unknown gossip mode {self.mode!r}")


@dataclass(frozen=True)
class Topology:
    """The complete network shape of one deployment scenario."""

    regions: Tuple[RegionSpec, ...] = (RegionSpec("lan0"),)
    #: Declared WAN links; empty with >1 region means a full symmetric
    #: mesh at the default WAN characteristics (see :meth:`wan_links_effective`).
    wan_links: Tuple[WanLinkSpec, ...] = ()
    gossip: GossipSpec = field(default_factory=GossipSpec)
    #: Service placement across regions: ``"replicate"`` deploys one
    #: b-peer group per region (nearest-region binding + failover),
    #: ``"span"`` stretches a single group's replicas round-robin over
    #: the regions (one election domain across the WAN).
    placement: str = "replicate"
    #: The region clients/proxies call home; defaults to the first.
    home_region: Optional[str] = None

    def __post_init__(self):
        if not self.regions:
            raise ValueError("a topology needs at least one region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names: {names}")
        for link in self.wan_links:
            for end in (link.a, link.b):
                if end not in names:
                    raise ValueError(f"WAN link references unknown region {end!r}")
        if self.placement not in ("replicate", "span"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.home_region is not None and self.home_region not in names:
            raise ValueError(f"home_region {self.home_region!r} is not a region")

    # -- accessors ----------------------------------------------------------------

    @property
    def multi_region(self) -> bool:
        return len(self.regions) > 1

    @property
    def home(self) -> str:
        return self.home_region or self.regions[0].name

    def region_names(self) -> List[str]:
        return [region.name for region in self.regions]

    def region(self, name: str) -> RegionSpec:
        for spec in self.regions:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def wan_links_effective(self) -> Tuple[WanLinkSpec, ...]:
        """Declared links, or the implicit full mesh when none are given."""
        if self.wan_links or not self.multi_region:
            return self.wan_links
        names = self.region_names()
        return tuple(
            WanLinkSpec(a, b)
            for index, a in enumerate(names)
            for b in names[index + 1 :]
        )

    def replace(self, **changes) -> "Topology":
        return replace(self, **changes)

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def single_region(name: str = "lan0", latency: str = "lan") -> "Topology":
        """The paper's testbed: one switched LAN, no WAN, no gossip."""
        return Topology(regions=(RegionSpec(name, latency=latency),))

    @staticmethod
    def mesh(
        region_names,
        lan_latency: str = "lan",
        wan_latency: str = DEFAULT_WAN_LATENCY,
        gossip: Optional[GossipSpec] = None,
        placement: str = "replicate",
    ) -> "Topology":
        """A full symmetric mesh over ``region_names`` — the bench workhorse."""
        names = list(region_names)
        return Topology(
            regions=tuple(RegionSpec(name, latency=lan_latency) for name in names),
            wan_links=tuple(
                WanLinkSpec(a, b, latency=wan_latency)
                for index, a in enumerate(names)
                for b in names[index + 1 :]
            ),
            gossip=gossip if gossip is not None else GossipSpec(),
            placement=placement,
        )
