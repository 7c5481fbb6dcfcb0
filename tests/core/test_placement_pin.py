"""What ``deploy_service`` places, pinned as literals.

Written against the tree before the deployer fold (PR 24) and passing
unedited after it: host names in creation order, group names, each
advertisement's ``(shard_index, shard_count, region)``, each group's
member hosts, and what ``DeployedService.group`` / ``groups`` /
``shard_groups`` / ``region_groups`` hold — for the sharded, the
region-replicated, the WAN-spanning and the autoscaled deployment.
"""

import pytest

from repro.core import ScenarioConfig, WhisperSystem
from repro.core.autoscale import AutoscaleSpec
from repro.core.topology import Topology


def _snapshot(system, service):
    return {
        "hosts": list(system.network.hosts),
        "placed": [
            (
                group.name,
                group.advertisement.shard_index,
                group.advertisement.shard_count,
                group.advertisement.region,
                [peer.node.name for peer in group.peers],
            )
            for group in service.all_groups()
        ],
        "group": service.group.name,
        "groups": {op: group.name for op, group in service.groups.items()},
        "shard_groups": {
            op: [group.name for group in groups]
            for op, groups in service.shard_groups.items()
        },
        "region_groups": service.region_groups
        and {
            op: {region: group.name for region, group in by_region.items()}
            for op, by_region in service.region_groups.items()
        },
    }


def _sharded():
    system = WhisperSystem(ScenarioConfig(seed=1, shards=4, replicas=2))
    return system, system.deploy_student_service()


def _mesh(placement):
    # Home is the *second* region, so "the home region's group" and "the
    # first group placed" are different groups.
    topology = Topology.mesh(["r0", "r1"], placement=placement).replace(
        home_region="r1"
    )
    system = WhisperSystem(ScenarioConfig(seed=1, replicas=2, topology=topology))
    return system, system.deploy_student_service()


def _autoscaled():
    system = WhisperSystem(
        ScenarioConfig(seed=1, replicas=2, autoscale=AutoscaleSpec())
    )
    service = system.deploy_student_service()
    assert service.autoscalers[0].force_scale_up()
    return system, service


OP = "StudentInformation"
GRP = "grp-StudentManagement"


def _flat_maps(first, shard_names):
    return {
        "group": first,
        "groups": {OP: first},
        "shard_groups": {OP: shard_names},
        "region_groups": None,
    }


EXPECTED = {
    "sharded": (
        _sharded,
        {
            "hosts": ["rdv0"]
            + [f"bpeer-{GRP}-s{s}-{i}" for s in range(4) for i in range(2)]
            + ["web0"],
            "placed": [
                (f"{GRP}-s{s}", s, 4, None, [f"bpeer-{GRP}-s{s}-{i}" for i in range(2)])
                for s in range(4)
            ],
            **_flat_maps(f"{GRP}-s0", [f"{GRP}-s{s}" for s in range(4)]),
        },
    ),
    "replicate": (
        lambda: _mesh("replicate"),
        {
            "hosts": [
                "r0/rdv0",
                "r1/rdv0",
                f"r0/bpeer-{GRP}@r0-0",
                f"r0/bpeer-{GRP}@r0-1",
                f"r1/bpeer-{GRP}@r1-0",
                f"r1/bpeer-{GRP}@r1-1",
                "r1/web0",
            ],
            # all_groups(): the home region's group first.
            "placed": [
                (f"{GRP}@r1", None, None, "r1", [f"r1/bpeer-{GRP}@r1-{i}" for i in range(2)]),
                (f"{GRP}@r0", None, None, "r0", [f"r0/bpeer-{GRP}@r0-{i}" for i in range(2)]),
            ],
            "group": f"{GRP}@r1",
            "groups": {OP: f"{GRP}@r1"},
            "shard_groups": {OP: [f"{GRP}@r1"]},
            "region_groups": {OP: {"r0": f"{GRP}@r0", "r1": f"{GRP}@r1"}},
        },
    ),
    "span": (
        lambda: _mesh("span"),
        {
            "hosts": [
                "r0/rdv0",
                "r1/rdv0",
                f"r0/bpeer-{GRP}-0",
                f"r1/bpeer-{GRP}-1",
                "r1/web0",
            ],
            "placed": [
                (GRP, None, None, None, [f"r0/bpeer-{GRP}-0", f"r1/bpeer-{GRP}-1"])
            ],
            **_flat_maps(GRP, [GRP]),
        },
    ),
    "autoscaled": (
        _autoscaled,
        {
            "hosts": [
                "rdv0",
                f"bpeer-{GRP}-0",
                f"bpeer-{GRP}-1",
                "web0",
                f"autoscale-{GRP}",
                f"bpeer-{GRP}-2",
            ],
            "placed": [
                (GRP, None, None, None, [f"bpeer-{GRP}-{i}" for i in range(3)])
            ],
            **_flat_maps(GRP, [GRP]),
        },
    ),
}


@pytest.mark.parametrize("shape", sorted(EXPECTED))
def test_placement_is_pinned(shape):
    build, expected = EXPECTED[shape]
    assert _snapshot(*build()) == expected

