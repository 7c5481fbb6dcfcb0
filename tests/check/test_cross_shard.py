"""Cross-shard schedules: the checker against a federated deployment.

The scenario here deploys the mutating EnrollStudent workload across two
federated shard groups (each its own replica set, election, journal) and
drives the same probe workload through the shard-aware proxy.  The
directed schedule crashes one *whole* shard group mid-workload — the
ring-handoff case the sharding design must survive — and every safety
invariant (election safety per group, epoch monotonicity, exactly-once
across all shard journals, stale-result ordering) is audited slice by
slice exactly as in the single-group runs.
"""

import pytest

from repro.check import CheckScenario, FaultOp, Schedule, run_schedule
from repro.check.explorer import REPLICAS, replay_repro, save_repro

SHARDED = CheckScenario(shards=2)


@pytest.fixture(scope="module")
def sharded_baseline():
    """One shared clean cross-shard baseline run (module-scoped: pure)."""
    return run_schedule(SHARDED, Schedule(label="sharded-baseline"))


def _shard_hosts(baseline, shard_index):
    hosts = sorted(h for h in baseline.hosts if f"-s{shard_index}-" in h)
    assert hosts, baseline.hosts
    return hosts


class TestShardedBaseline:
    def test_clean_and_watches_every_shard_group(self, sharded_baseline):
        assert sharded_baseline.violations == []
        assert sharded_baseline.probes_ok > 0
        assert sharded_baseline.effects_applied > 0
        # The decision space spans both shard groups' replicas.
        assert len(_shard_hosts(sharded_baseline, 0)) == REPLICAS
        assert len(_shard_hosts(sharded_baseline, 1)) == REPLICAS

    def test_sharded_runs_are_deterministic(self, sharded_baseline):
        again = run_schedule(SHARDED, Schedule(label="sharded-baseline"))
        assert again.digest() == sharded_baseline.digest()

    def test_scenario_roundtrip_defaults_old_files_to_one_shard(self):
        assert CheckScenario.from_dict(SHARDED.to_dict()) == SHARDED
        legacy = CheckScenario().to_dict()
        legacy.pop("shards")
        assert CheckScenario.from_dict(legacy).shards == 1


class TestShardGroupFailover:
    def _group_crash_schedule(self, baseline, shard_index=0, duration=4.0):
        """Crash every replica of one shard group at one protocol step."""
        at = max(1, baseline.decisions // 3)
        return Schedule(
            ops=tuple(
                FaultOp(at_decision=at, action="crash", target=host,
                        duration=duration)
                for host in _shard_hosts(baseline, shard_index)
            ),
            label="crash-shard-group",
        )

    def test_invariants_survive_whole_shard_group_crash(self, sharded_baseline):
        """Exactly-once and election safety hold across the ring handoff:
        losing shard group 0 mid-workload reroutes its segment without a
        single double-applied invocation or cross-epoch violation."""
        schedule = self._group_crash_schedule(sharded_baseline)
        result = run_schedule(SHARDED, schedule)
        assert result.violations == [], result.violations
        assert len(result.fired) == REPLICAS  # whole group went down
        victims = {f["victim"] for f in result.fired}
        assert victims == set(_shard_hosts(sharded_baseline, 0))
        # The surviving shard group kept the workload alive.
        assert result.probes_ok > 0

    def test_cross_shard_counterexamples_replay_byte_identically(
        self, tmp_path, sharded_baseline
    ):
        """Repro files carry the shards field and replay deterministically,
        so a cross-shard counterexample is as durable as a single-group one."""
        schedule = self._group_crash_schedule(sharded_baseline)
        result = run_schedule(SHARDED, schedule)
        path = str(tmp_path / "cross-shard-repro.json")
        save_repro(path, SHARDED, schedule, result)
        ok, replayed, expected = replay_repro(path)
        assert ok
        assert expected["scenario"]["shards"] == 2
        assert replayed.digest() == result.digest()
