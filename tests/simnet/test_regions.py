"""Region-aware networking: qualified names, WAN routing, region faults.

The regression this file guards: the seed assumed a *flat* host
namespace, so partitions and sends addressed hosts by bare name.  Once
two regions may both contain a host called ``web0``, a bare name must
resolve only when unambiguous — and raise, never silently match neither
key, when it is not.
"""

import pytest

from repro.simnet import Environment, MessageTrace, Network, RngRegistry
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import UnknownHostError


def _network(seed=12345):
    env = Environment()
    return env, Network(
        env,
        trace=MessageTrace(),
        rng=RngRegistry(seed),
        default_latency=ConstantLatency(0.001),
    )


def _ping(env, network, src, dst):
    """Send one datagram src -> dst; return the delivered payload (or None)."""
    inbox = []
    dst_node = network.host(dst)
    socket = dst_node.transport.bind(7)

    def receiver():
        message = yield socket.recv()
        inbox.append(message.payload)

    dst_node.spawn(receiver())
    out = network.host(src).transport.bind()
    out.send((dst, 7), payload="ping", size_bytes=64)
    env.run(until=env.now + 5.0)
    out.close()
    socket.close()
    return inbox[0] if inbox else None


class TestQualifiedNames:
    def test_region_hosts_live_under_qualified_keys(self):
        _env, network = _network()
        network.add_region("eu")
        node = network.add_host("web0", region="eu")
        assert node.name == "eu/web0"
        assert network.region_of("eu/web0") == "eu"

    def test_bare_name_resolves_when_unique(self):
        _env, network = _network()
        network.add_region("eu")
        network.add_host("web0", region="eu")
        assert network.resolve_host_name("web0") == "eu/web0"
        assert network.host("web0").name == "eu/web0"

    def test_same_name_in_two_regions_is_ambiguous(self):
        _env, network = _network()
        network.add_region("eu")
        network.add_region("us")
        network.add_host("web0", region="eu")
        network.add_host("web0", region="us")
        with pytest.raises(UnknownHostError, match="ambiguous"):
            network.resolve_host_name("web0")
        # Qualified names still resolve each host exactly.
        assert network.host("eu/web0").name == "eu/web0"
        assert network.host("us/web0").name == "us/web0"

    def test_partition_rejects_ambiguous_bare_names(self):
        _env, network = _network()
        network.add_region("eu")
        network.add_region("us")
        network.add_host("web0", region="eu")
        network.add_host("web0", region="us")
        network.add_host("other", region="eu")
        with pytest.raises(UnknownHostError, match="ambiguous"):
            network.partition({"web0"}, {"other"})

    def test_unknown_region_rejected(self):
        _env, network = _network()
        with pytest.raises(ValueError):
            network.add_host("web0", region="nowhere")

    def test_duplicate_region_rejected(self):
        _env, network = _network()
        network.add_region("eu")
        with pytest.raises(ValueError):
            network.add_region("eu")


class TestWanRouting:
    def test_cross_region_without_wan_link_drops(self):
        env, network = _network()
        network.add_region("eu")
        network.add_region("us")
        network.add_host("a", region="eu")
        network.add_host("b", region="us")
        assert _ping(env, network, "eu/a", "us/b") is None
        assert network.trace.dropped_total >= 1

    def test_cross_region_with_wan_link_delivers(self):
        env, network = _network()
        network.add_region("eu")
        network.add_region("us")
        network.connect_regions("eu", "us", latency=ConstantLatency(0.050))
        network.add_host("a", region="eu")
        network.add_host("b", region="us")
        assert _ping(env, network, "eu/a", "us/b") == "ping"

    def test_asymmetric_wan_latency(self):
        _env, network = _network()
        network.add_region("eu")
        network.add_region("us")
        network.connect_regions(
            "eu",
            "us",
            latency=ConstantLatency(0.040),
            latency_back=ConstantLatency(0.120),
        )
        up = network._wan_links[("eu", "us")].latency(None)
        down = network._wan_links[("us", "eu")].latency(None)
        assert up == pytest.approx(0.040)
        assert down == pytest.approx(0.120)

    def test_intra_region_uses_region_link(self):
        env, network = _network()
        network.add_region("eu")
        network.add_host("a", region="eu")
        network.add_host("b", region="eu")
        assert _ping(env, network, "eu/a", "eu/b") == "ping"

    def test_flat_hosts_keep_the_seed_default_link(self):
        env, network = _network()
        network.add_host("a")
        network.add_host("b")
        assert _ping(env, network, "a", "b") == "ping"


class TestRegionFaults:
    def test_isolate_region_cuts_and_heals(self):
        env, network = _network()
        network.add_region("eu")
        network.add_region("us")
        network.connect_regions("eu", "us", latency=ConstantLatency(0.040))
        network.add_host("a", region="eu")
        network.add_host("b", region="us")
        handle = network.isolate_region("eu")
        assert _ping(env, network, "eu/a", "us/b") is None
        assert network.heal_partition(handle)
        assert _ping(env, network, "eu/a", "us/b") == "ping"

    def test_partition_regions_is_pairwise(self):
        env, network = _network()
        for name in ("eu", "us", "ap"):
            network.add_region(name)
        network.connect_regions("eu", "us", latency=ConstantLatency(0.040))
        network.connect_regions("eu", "ap", latency=ConstantLatency(0.040))
        network.add_host("a", region="eu")
        network.add_host("b", region="us")
        network.add_host("c", region="ap")
        network.partition(network.region_hosts("eu"), network.region_hosts("us"))
        assert _ping(env, network, "eu/a", "us/b") is None
        # The eu<->ap path is untouched by the eu|us cut.
        assert _ping(env, network, "eu/a", "ap/c") == "ping"
