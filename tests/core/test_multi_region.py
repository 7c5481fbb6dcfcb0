"""Multi-region deployments end to end: placement, preference, failover.

Covers the Topology-driven deploy paths of :class:`WhisperSystem`:
region-replicated groups with nearest-region binding and cross-region
failover, span placement with one election domain over the WAN, and the
byte-identity guarantee that an explicit single-region topology changes
nothing against the seed.
"""

import pytest

from repro.bench.wan import build_wan_system
from repro.core import ScenarioConfig, UnsupportedScenarioError, WhisperSystem
from repro.core.topology import Topology


def _invoke(system, service, operation="StudentInformation", arguments=None):
    outcome = {}

    def caller():
        result = yield from service.invoke(
            operation, arguments or {"ID": "S00007"}, timeout=8.0, budget=30.0
        )
        outcome["result"] = result

    system.env.run(until=service.proxy.node.spawn(caller()))
    return outcome["result"]


class TestReplicatePlacement:
    def test_one_group_per_region(self):
        system, service = build_wan_system(regions=3, replicas=2)
        system.settle(10.0)
        regions = system.topology.region_names()
        groups = service.all_groups()
        assert len(groups) == 3
        names = sorted(group.name for group in groups)
        assert all("@" in name for name in names)
        for region in regions:
            group = service.region_group_for("StudentInformation", region)
            assert group.advertisement.region == region
            assert len(group.peers) == 2
            assert group.coordinator_peer() is not None

    def test_home_region_binding_is_preferred(self):
        system, service = build_wan_system(regions=3, replicas=1)
        system.settle(10.0)
        result = _invoke(system, service)
        assert result.value["studentId"] == "S00007"
        assert service.proxy.stats.region_preferred > 0

    def test_cross_region_failover_after_home_region_loss(self):
        system, service = build_wan_system(regions=3, replicas=1)
        system.settle(10.0)
        home = system.topology.home
        group = service.region_group_for("StudentInformation", home)
        for peer in group.peers:
            system.failures.crash_at(system.env.now, peer.node.name)
        system.run_until(system.env.now + 3.0)
        result = _invoke(system, service)
        assert result.value["studentId"] == "S00007"
        assert service.proxy.stats.region_failovers > 0

    def test_status_report_has_topology_section(self):
        system, service = build_wan_system(regions=2, replicas=1)
        system.settle(10.0)
        report = system.status_report()
        topo = report["topology"]
        assert topo["regions"] == system.topology.region_names()
        assert topo["home"] == system.topology.home
        assert topo["placement"] == "replicate"
        for region in system.topology.region_names():
            assert topo["gossip"][region]["mode"] == "gossip"
            assert topo["gossip"][region]["entries"] > 0


class TestSpanPlacement:
    def test_one_election_domain_across_regions(self):
        topology = Topology.mesh(["r0", "r1", "r2"], placement="span")
        system = WhisperSystem(
            ScenarioConfig(seed=42, replicas=3, topology=topology)
        )
        service = system.deploy_student_service()
        system.settle(10.0)
        groups = {
            id(group): group
            for group in service.all_groups()
        }
        assert len(groups) == 1
        (group,) = groups.values()
        peer_regions = {system.network.region_of(p.node.name) for p in group.peers}
        assert peer_regions == {"r0", "r1", "r2"}
        coordinators = [
            p for p in group.peers if p.coordinator_mgr.is_coordinator
        ]
        assert len(coordinators) == 1
        result = _invoke(system, service)
        assert result.value["studentId"] == "S00007"


class TestGuards:
    def test_sharding_and_regions_do_not_compose_yet(self):
        topology = Topology.mesh(["r0", "r1"])
        system = WhisperSystem(
            ScenarioConfig(seed=1, shards=2, replicas=2, topology=topology)
        )
        with pytest.raises(UnsupportedScenarioError):
            system.deploy_student_service()

    def test_client_defaults_to_home_region(self):
        system, _service = build_wan_system(regions=2, replicas=1)
        node, _soap = system.add_client("cli0")
        assert system.network.region_of(node.name) == system.topology.home
