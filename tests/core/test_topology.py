"""The declarative Topology API: specs, validation, defaults."""

import pytest

from repro.core.topology import (
    DEFAULT_WAN_LATENCY,
    GossipSpec,
    RegionSpec,
    Topology,
    WanLinkSpec,
)


class TestSpecs:
    def test_region_rejects_slash_and_empty_names(self):
        with pytest.raises(ValueError):
            RegionSpec("eu/west")
        with pytest.raises(ValueError):
            RegionSpec("")

    def test_wan_link_needs_two_distinct_regions(self):
        with pytest.raises(ValueError):
            WanLinkSpec("eu", "eu")

    def test_wan_link_validates_both_directions(self):
        with pytest.raises(ValueError):
            WanLinkSpec("eu", "us", latency_back="nope:1ms")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fanout": 0},
            {"interval": 0.0},
            {"interval": -1.0},
            {"mode": "broadcast"},
        ],
    )
    def test_gossip_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            GossipSpec(**kwargs)


class TestTopology:
    def test_single_region_is_the_paper_testbed(self):
        topology = Topology.single_region()
        assert not topology.multi_region
        assert topology.home == "lan0"
        assert topology.wan_links_effective() == ()

    def test_duplicate_region_names_rejected(self):
        with pytest.raises(ValueError):
            Topology(regions=(RegionSpec("eu"), RegionSpec("eu")))

    def test_link_must_reference_known_regions(self):
        with pytest.raises(ValueError):
            Topology(
                regions=(RegionSpec("eu"), RegionSpec("us")),
                wan_links=(WanLinkSpec("eu", "ap"),),
            )

    def test_home_region_must_exist(self):
        with pytest.raises(ValueError):
            Topology(regions=(RegionSpec("eu"),), home_region="us")

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            Topology(regions=(RegionSpec("eu"),), placement="anycast")

    def test_implicit_full_mesh_when_no_links_declared(self):
        topology = Topology(
            regions=(RegionSpec("eu"), RegionSpec("us"), RegionSpec("ap"))
        )
        links = topology.wan_links_effective()
        pairs = {(link.a, link.b) for link in links}
        assert pairs == {("eu", "us"), ("eu", "ap"), ("us", "ap")}
        assert all(link.latency == DEFAULT_WAN_LATENCY for link in links)

    def test_mesh_constructor(self):
        topology = Topology.mesh(["r0", "r1", "r2"], placement="span")
        assert topology.region_names() == ["r0", "r1", "r2"]
        assert len(topology.wan_links) == 3
        assert topology.placement == "span"
        assert topology.home == "r0"

    def test_replace_returns_modified_copy(self):
        topology = Topology.mesh(["r0", "r1"])
        moved = topology.replace(home_region="r1")
        assert moved.home == "r1"
        assert topology.home == "r0"
