"""WAN bench: gossip discovery across multi-region topologies.

Four questions about the cross-region discovery layer, answered on the
same simulated testbed as the paper's §5 experiments:

* **Convergence** — after a region-replicated deployment publishes its
  advertisements, how many rumor rounds until every region's rendezvous
  holds every advertisement?  The epidemic claim is O(log R) rounds at
  fanout >= 2; the sweep measures the worst per-advertisement spread
  delay across region counts and checks it against a logarithmic bound.
* **Staleness vs fanout** — the mean spread delay as the rumor fanout
  grows.  Fanout 1 leans on anti-entropy repair and converges slowly;
  every extra unit of fanout buys a sharply shorter tail.
* **Message economy** — steady-state cross-region advertisement traffic,
  gossip vs the flood-federation baseline (``GossipSpec(mode="flood")``),
  over an identical quiet window.  The flood forwards every periodic
  SRDI republication to every region forever; gossip recognises
  unchanged content and sends only periodic digests.
* **Nearest-region latency** — client RTT when the proxy binds its home
  region's group, vs the same client's RTT after the home region's group
  crashes and invocations fail over across the WAN.

The record also carries a **Figure-4 guard**: a single-region topology
expressed through the new API must produce byte-identical message counts
to the seed's flat-LAN path (``topology=None``), proving the WAN layer
costs nothing until a second region exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..core.config import ScenarioConfig
from ..core.system import WhisperSystem
from ..core.topology import GossipSpec, Topology
from .harness import Progress, bench_record, fig4_counts, format_assertions, quiet
from .stats import percentile

__all__ = [
    "ConvergencePoint",
    "build_wan_system",
    "format_record",
    "run_convergence",
    "run_latency",
    "run_message_economy",
    "run_staleness",
    "run_wan",
]

#: Advertisement categories that cross the WAN in each mode.
GOSSIP_CATEGORIES = ("gossip-rumor", "gossip-digest", "gossip-delta")
FLOOD_CATEGORIES = ("gossip-flood",)


def _region_names(count: int) -> List[str]:
    return [f"r{index}" for index in range(count)]


def build_wan_system(
    regions: int,
    seed: int = 42,
    replicas: int = 1,
    fanout: int = 2,
    mode: str = "gossip",
    interval: float = 0.5,
    anti_entropy_interval: float = 5.0,
):
    """A region-replicated student service over a full WAN mesh."""
    topology = Topology.mesh(
        _region_names(regions),
        gossip=GossipSpec(
            fanout=fanout,
            interval=interval,
            anti_entropy_interval=anti_entropy_interval,
            mode=mode,
        ),
    )
    system = WhisperSystem(
        ScenarioConfig(seed=seed, replicas=replicas, topology=topology)
    )
    service = system.deploy_student_service()
    return system, service


def _spread_delays(system: WhisperSystem) -> Dict[str, Any]:
    """Per-advertisement spread delay across every region's rendezvous.

    An advertisement's delay is the gap between the first region learning
    it (its origin's SRDI push) and the last region applying it.  Only
    fully spread advertisements have a delay; the count of partially
    spread ones is the non-convergence signal.
    """
    services = list(system.gossip.values())
    union: set = set()
    common: Optional[set] = None
    for gossip in services:
        keys = set(gossip.seen_at)
        union |= keys
        common = keys if common is None else (common & keys)
    common = common or set()
    delays = [
        max(g.seen_at[key] for g in services)
        - min(g.seen_at[key] for g in services)
        for key in sorted(common)
    ]
    return {
        "keys_total": len(union),
        "keys_converged": len(common),
        "max_delay": max(delays) if delays else 0.0,
        "mean_delay": (sum(delays) / len(delays)) if delays else 0.0,
    }


@dataclass
class ConvergencePoint:
    """One region count's spread measurement under a fixed fanout."""

    regions: int
    fanout: int
    interval: float
    keys_total: int
    keys_converged: int
    max_delay: float
    mean_delay: float
    #: Worst spread delay expressed in rumor rounds.
    rounds: float
    #: The O(log R) acceptance bound, in rounds (generous constants, so
    #: only asymptotic misbehaviour — e.g. linear spreading — trips it).
    round_bound: float

    @property
    def converged(self) -> bool:
        return self.keys_total > 0 and self.keys_converged == self.keys_total

    @property
    def within_bound(self) -> bool:
        return self.converged and self.rounds <= self.round_bound

    def to_dict(self) -> Dict[str, Any]:
        return {
            "regions": self.regions,
            "fanout": self.fanout,
            "interval": self.interval,
            "keys_total": self.keys_total,
            "keys_converged": self.keys_converged,
            "max_delay_s": self.max_delay,
            "mean_delay_s": self.mean_delay,
            "rounds": self.rounds,
            "round_bound": self.round_bound,
            "converged": self.converged,
            "within_bound": self.within_bound,
        }


def _round_bound(regions: int) -> float:
    """Rounds allowed for full spread: ``2*log2(R) + 3``.

    One extra round of slack absorbs rumor-loop phase offsets and WAN
    propagation; the doubling absorbs unlucky fanout draws.  Linear
    growth (the flood baseline's worst case under loss) still exceeds it
    from ~8 regions on.
    """
    return 2.0 * math.log2(max(2, regions)) + 3.0


def _spread_point(
    regions: int, fanout: int, seed: int, interval: float, settle: float
) -> ConvergencePoint:
    """Deploy, let the rumors run for ``settle``, measure the spread."""
    system, _service = build_wan_system(
        regions, seed=seed, fanout=fanout, interval=interval
    )
    system.settle(settle)
    spread = _spread_delays(system)
    return ConvergencePoint(
        regions=regions,
        fanout=fanout,
        interval=interval,
        rounds=spread["max_delay"] / interval,
        round_bound=_round_bound(regions),
        **spread,
    )


def run_convergence(
    region_counts: Sequence[int] = (2, 3, 4, 6, 8),
    fanout: int = 2,
    seed: int = 42,
    interval: float = 0.5,
    settle: float = 20.0,
) -> List[ConvergencePoint]:
    """Spread delay vs region count at a fixed fanout."""
    return [
        _spread_point(regions, fanout, seed, interval, settle)
        for regions in region_counts
    ]


def run_staleness(
    fanouts: Sequence[int] = (1, 2, 3, 4),
    regions: int = 4,
    seed: int = 42,
    interval: float = 0.5,
    settle: float = 30.0,
) -> List[ConvergencePoint]:
    """Spread delay vs fanout at a fixed region count.

    ``settle`` must exceed the anti-entropy interval so the fanout-1
    point (which leans on digest repair) still fully converges — its
    *delay* is the staleness being measured.
    """
    return [
        _spread_point(regions, fanout, seed, interval, settle)
        for fanout in fanouts
    ]


def run_message_economy(
    regions: int = 3,
    seed: int = 42,
    settle: float = 20.0,
    window: float = 30.0,
) -> Dict[str, Any]:
    """Steady-state cross-region advertisement traffic, gossip vs flood.

    Both deployments settle to full convergence first; the counted window
    then contains only keep-alive traffic — periodic SRDI republications,
    which the flood forwards to every region and gossip suppresses down
    to digests.  Two replicas per region make the asymmetry visible:
    flood traffic grows with the number of publishing replicas, digest
    traffic does not.
    """
    counts: Dict[str, Dict[str, Any]] = {}
    for mode, categories in (
        ("gossip", GOSSIP_CATEGORIES),
        ("flood", FLOOD_CATEGORIES),
    ):
        system, _service = build_wan_system(
            regions, seed=seed, replicas=2, mode=mode
        )
        system.settle(settle)
        spread = _spread_delays(system)
        system.reset_counters()
        system.run_until(system.env.now + window)
        by_category = {
            category: system.trace.sent_by_category.get(category, 0)
            for category in categories
        }
        counts[mode] = {
            "messages": sum(by_category.values()),
            "by_category": by_category,
            "converged": spread["keys_converged"] == spread["keys_total"],
            "keys": spread["keys_total"],
        }
    return {
        "regions": regions,
        "window_s": window,
        "gossip": counts["gossip"],
        "flood": counts["flood"],
        "gossip_beats_flood": (
            counts["gossip"]["messages"] < counts["flood"]["messages"]
        ),
    }


def run_latency(
    regions: int = 3,
    seed: int = 42,
    samples: int = 30,
    settle: float = 20.0,
) -> Dict[str, Any]:
    """Client RTT binding the home region vs failing over across the WAN."""
    system, service = build_wan_system(regions, seed=seed, replicas=2)
    system.settle(settle)
    node, _soap = system.add_client("wan-client")
    home: List[float] = []
    remote: List[float] = []

    def drive(latencies: List[float], offset: int):
        for index in range(samples):
            started = system.env.now
            yield from service.invoke(
                "StudentInformation",
                {"ID": f"S{(offset + index) % 200 + 1:05d}"},
                budget=30.0,
            )
            latencies.append(system.env.now - started)
            yield system.env.timeout(0.05)

    system.run_process(drive(home, 0), node=node)
    operation = service.sws.operations()[0]
    home_region = system.topology.home
    for peer in service.region_group_for(operation, home_region).peers:
        peer.node.crash()
    system.run_process(drive(remote, samples), node=node)

    def p50(values: List[float]) -> float:
        return percentile(values, 50) if values else 0.0

    return {
        "regions": regions,
        "samples": samples,
        "home_p50_ms": p50(home) * 1000,
        "home_mean_ms": (sum(home) / len(home)) * 1000 if home else 0.0,
        "failover_p50_ms": p50(remote) * 1000,
        "failover_mean_ms": (sum(remote) / len(remote)) * 1000 if remote else 0.0,
        "region_preferred": service.proxy.stats.region_preferred,
        "region_failovers": service.proxy.stats.region_failovers,
        "nearest_region_faster": bool(remote) and p50(home) < p50(remote),
    }


def run_fig4_guard(seed: int = 42, settle: float = 10.0) -> Dict[str, Any]:
    """Byte-identity: explicit single-region topology vs the seed path."""
    config = ScenarioConfig(seed=seed, replicas=3)
    seed_path = fig4_counts(config, settle)
    single = fig4_counts(config.replace(topology=Topology.single_region()), settle)
    return {
        "seed_sent": seed_path[0],
        "single_region_sent": single[0],
        "identical": seed_path == single,
    }


def run_wan(
    scale: str = "full",
    seed: int = 42,
    progress: Progress = quiet,
) -> Dict[str, Any]:
    """The full WAN measurement; returns the BENCH_wan record dict."""
    if scale == "smoke":
        region_counts: Sequence[int] = (2, 3)
        fanouts: Sequence[int] = (1, 2)
        economy_window, latency_samples = 15.0, 10
    else:
        region_counts = (2, 3, 4, 6, 8)
        fanouts = (1, 2, 3, 4)
        economy_window, latency_samples = 30.0, 30

    progress("convergence sweep ...")
    convergence = run_convergence(region_counts, seed=seed)
    progress("staleness-vs-fanout sweep ...")
    staleness = run_staleness(fanouts, seed=seed)
    progress("message economy (gossip vs flood) ...")
    economy = run_message_economy(seed=seed, window=economy_window)
    progress("nearest-region latency ...")
    latency = run_latency(seed=seed, samples=latency_samples)
    progress("figure-4 byte-identity guard ...")
    fig4 = run_fig4_guard(seed=seed)

    log_rounds = all(
        point.within_bound for point in convergence if point.fanout >= 2
    )
    assertions = {
        "gossip_converges_in_log_rounds": log_rounds,
        "all_points_converged": all(p.converged for p in convergence)
        and all(p.converged for p in staleness),
        "gossip_beats_flood": economy["gossip_beats_flood"],
        "nearest_region_faster": latency["nearest_region_faster"],
        "fig4_byte_identical": fig4["identical"],
    }
    body = {
        "scale": scale,
        "seed": seed,
        "convergence": [point.to_dict() for point in convergence],
        "staleness": [point.to_dict() for point in staleness],
        "economy": economy,
        "latency": latency,
        "fig4_guard": fig4,
    }
    return bench_record("wan", body, assertions)


def format_record(record: Dict[str, Any]) -> str:
    """Human-readable tables for one BENCH_wan record."""
    lines: List[str] = []
    lines.append(
        f"== convergence (fanout {record['convergence'][0]['fanout']}) =="
        if record["convergence"]
        else "== convergence =="
    )
    lines.append(
        f"{'regions':>8} {'ads':>5} {'spread':>7} {'max delay':>10} "
        f"{'rounds':>7} {'bound':>6} {'ok':>3}"
    )
    for point in record["convergence"]:
        lines.append(
            f"{point['regions']:>8} {point['keys_total']:>5} "
            f"{point['keys_converged']:>7} {point['max_delay_s']*1000:>8.0f}ms "
            f"{point['rounds']:>7.1f} {point['round_bound']:>6.1f} "
            f"{'y' if point['within_bound'] else 'N':>3}"
        )
    lines.append("")
    lines.append(f"== staleness vs fanout ({record['staleness'][0]['regions']} regions) ==")
    lines.append(f"{'fanout':>7} {'mean delay':>11} {'max delay':>10} {'spread':>7}")
    for point in record["staleness"]:
        lines.append(
            f"{point['fanout']:>7} {point['mean_delay_s']*1000:>9.0f}ms "
            f"{point['max_delay_s']*1000:>8.0f}ms "
            f"{point['keys_converged']:>3}/{point['keys_total']}"
        )
    economy = record["economy"]
    lines.append("")
    lines.append(
        f"== cross-region advertisement messages "
        f"({economy['regions']} regions, {economy['window_s']:.0f}s steady) =="
    )
    lines.append(f"gossip: {economy['gossip']['messages']:>6}  {economy['gossip']['by_category']}")
    lines.append(f"flood:  {economy['flood']['messages']:>6}  {economy['flood']['by_category']}")
    lines.append(
        "gossip beats flood: "
        + ("YES" if economy["gossip_beats_flood"] else "NO")
    )
    latency = record["latency"]
    lines.append("")
    lines.append(f"== nearest-region client latency ({latency['regions']} regions) ==")
    lines.append(
        f"home-region bind p50: {latency['home_p50_ms']:.1f} ms "
        f"(region_preferred={latency['region_preferred']})"
    )
    lines.append(
        f"cross-region failover p50: {latency['failover_p50_ms']:.1f} ms "
        f"(region_failovers={latency['region_failovers']})"
    )
    fig4 = record["fig4_guard"]
    lines.append("")
    lines.append(
        f"figure-4 guard: seed {fig4['seed_sent']} msgs vs "
        f"single-region topology {fig4['single_region_sent']} msgs — "
        + ("IDENTICAL" if fig4["identical"] else "DIVERGED")
    )
    lines.append("")
    lines.append(format_assertions(record))
    return "\n".join(lines)
