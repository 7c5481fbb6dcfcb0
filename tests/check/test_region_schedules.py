"""Region-aware schedule exploration: sampling, injection, WAN-heal audit.

The directed scenario at the bottom is the ISSUE's WAN-heal check: a span
deployment split across two regions loses its WAN link mid-workload, and
after the link heals both election safety (no two peers ever announce the
same epoch, no stale re-announcements) and exactly-once application must
hold.
"""

import random

import pytest

from repro.backend.datasets import student_database
from repro.backend.services import student_enrollment
from repro.check import (
    CheckScenario,
    FaultOp,
    Schedule,
    load_repro,
    replay_repro,
    run_schedule,
)
from repro.check.explorer import save_repro
from repro.check.invariants import (
    announced_epoch_violations,
    convergence_violations,
    exactly_once_violations,
)
from repro.check.schedule import random_schedule
from repro.core import ScenarioConfig, WhisperSystem
from repro.core.topology import Topology
from repro.wsdl.samples import student_admin_wsdl


class TestRegionSampling:
    def test_partition_region_targets_a_region(self):
        rng = random.Random(5)
        actions = set()
        for _ in range(200):
            schedule = random_schedule(
                rng, ["h0", "h1"], decision_horizon=200, regions=["r0", "r1"]
            )
            for op in schedule.ops:
                actions.add(op.action)
                if op.action == "partition-region":
                    assert op.target in ("r0", "r1")
        assert "partition-region" in actions

    def test_single_region_sampling_is_unchanged(self):
        """regions=() must reproduce the exact pre-region sampling
        sequence, so existing seeds and repro files keep their meaning."""
        ops_with = [
            random_schedule(random.Random(9), ["h0"], 100).to_dict(),
            random_schedule(random.Random(10), ["h0"], 100).to_dict(),
        ]
        ops_again = [
            random_schedule(random.Random(9), ["h0"], 100, regions=()).to_dict(),
            random_schedule(random.Random(10), ["h0"], 100, regions=()).to_dict(),
        ]
        assert ops_with == ops_again
        for schedule in ops_with:
            assert all(
                op["action"] != "partition-region" for op in schedule["ops"]
            )

    def test_partition_region_op_round_trips(self):
        op = FaultOp(at_decision=7, action="partition-region", target="r1")
        assert "partition-region(r1" in op.describe()
        schedule = Schedule(ops=(op,), label="wan-split")
        restored = Schedule.from_dict(schedule.to_dict())
        assert restored == schedule

    def test_scenario_rejects_shards_and_regions_together(self):
        scenario = CheckScenario(shards=2, regions=2)
        with pytest.raises(ValueError, match="shards and regions"):
            run_schedule(scenario, Schedule(label="invalid"))


class TestRegionInjection:
    @pytest.fixture(scope="class")
    def region_baseline(self):
        return run_schedule(
            CheckScenario(regions=2), Schedule(label="region-baseline")
        )

    def test_region_baseline_is_clean(self, region_baseline):
        assert region_baseline.violations == []
        assert region_baseline.probes_ok > 0

    def test_partition_region_fires_and_recovers(self, region_baseline):
        schedule = Schedule(
            ops=(
                FaultOp(
                    at_decision=region_baseline.decisions // 4,
                    action="partition-region",
                    target="r1",
                    duration=3.0,
                ),
            ),
            label="region-split",
        )
        result = run_schedule(CheckScenario(regions=2), schedule)
        assert len(result.fired) == 1
        assert result.fired[0]["victim"] == "region:r1"
        assert result.violations == []

    def test_region_repro_round_trip(self, tmp_path, region_baseline):
        scenario = CheckScenario(regions=2)
        schedule = Schedule(
            ops=(
                FaultOp(
                    at_decision=region_baseline.decisions // 3,
                    action="partition-region",
                    target="r0",
                    duration=2.5,
                ),
            ),
            label="region-repro",
        )
        result = run_schedule(scenario, schedule)
        path = str(tmp_path / "region-repro.json")
        save_repro(path, scenario, schedule, result)
        loaded_scenario, loaded_schedule, payload = load_repro(path)
        assert loaded_scenario.regions == 2
        assert loaded_schedule == schedule
        matched, replayed, expected = replay_repro(path)
        assert matched, (replayed.digest(), expected["digest"])


class TestWanHeal:
    def test_election_safety_and_exactly_once_after_wan_heal(self):
        """Split a 2-region span deployment at the WAN, keep the mutating
        workload flowing, heal, and audit the protocol's promises."""
        topology = Topology.mesh(["r0", "r1"], placement="span")
        system = WhisperSystem(
            ScenarioConfig(
                seed=13, replicas=3, topology=topology,
                request_timeout=3.0, deadline_budget=12.0,
            )
        )
        service = system.deploy_service(
            student_admin_wsdl(),
            {
                "EnrollStudent": [
                    student_enrollment(student_database(40)) for _ in range(3)
                ]
            },
        )
        system.settle(8.0)

        node, _soap = system.add_client("wan-heal-client")
        outcomes = {"ok": 0, "failed": 0}

        def probe(sequence):
            try:
                yield from service.invoke(
                    "EnrollStudent",
                    {"ID": f"S{sequence % 40 + 1:05d}", "course": f"C{sequence:04d}"},
                )
            except Exception:
                outcomes["failed"] += 1
            else:
                outcomes["ok"] += 1

        def driver():
            for sequence in range(30):
                node.spawn(probe(sequence))
                yield system.env.timeout(1.0)

        node.spawn(driver())
        # Cut the WAN a few seconds in; heal it while probes still flow.
        network = system.network
        system.failures.partition_at(
            system.env.now + 4.0,
            network.region_hosts("r0"),
            network.region_hosts("r1"),
            duration=8.0,
        )
        system.run_until(system.env.now + 30.0 + 20.0)  # workload + cooldown

        peers = service.all_peers()
        assert announced_epoch_violations(peers) == []
        assert exactly_once_violations(peers) == []
        assert convergence_violations(peers) == []
        assert outcomes["ok"] > 0
        # The healed group serves from one coordinator again.
        (group,) = service.all_groups()
        assert group.coordinator_peer() is not None
