"""Unit tests for the failure injector."""

import pytest

from repro.simnet import FailureInjector


@pytest.fixture
def injector(network):
    return FailureInjector(network)


class TestCrashRestart:
    def test_crash_at(self, env, network, injector):
        host = network.add_host("h")
        injector.crash_at(5.0, "h")
        env.run(until=4.9)
        assert host.up
        env.run(until=5.1)
        assert not host.up

    def test_restart_at(self, env, network, injector):
        host = network.add_host("h")
        injector.crash_at(1.0, "h")
        injector.restart_at(3.0, "h")
        env.run(until=2.0)
        assert not host.up
        env.run(until=3.5)
        assert host.up

    def test_crash_for(self, env, network, injector):
        host = network.add_host("h")
        injector.crash_for(1.0, "h", downtime=2.0)
        env.run(until=2.0)
        assert not host.up
        env.run(until=3.5)
        assert host.up
        assert host.crash_count == 1

    def test_past_schedule_rejected(self, env, network, injector):
        network.add_host("h")
        env.timeout(10.0)
        env.run(until=5.0)
        with pytest.raises(ValueError):
            injector.crash_at(1.0, "h")

    def test_log_records_events(self, env, network, injector):
        network.add_host("h")
        injector.crash_for(1.0, "h", downtime=1.0)
        env.run(until=5.0)
        kinds = [event.kind for event in injector.log]
        assert kinds == ["crash", "restart"]
        assert [(e.time, e.target) for e in injector.log if e.kind == "crash"] == [
            (1.0, "h")
        ]

    def test_crash_already_down_host_not_logged_twice(self, env, network, injector):
        network.add_host("h")
        injector.crash_at(1.0, "h")
        injector.crash_at(2.0, "h")
        env.run(until=3.0)
        assert [e.kind for e in injector.log].count("crash") == 1


class TestPartitions:
    def test_partition_with_duration_heals(self, env, network, injector):
        network.add_host("a")
        network.add_host("b")
        injector.partition_at(1.0, ["a"], ["b"], duration=2.0)
        env.run(until=1.5)
        assert network.partitioned("a", "b")
        env.run(until=3.5)
        assert not network.partitioned("a", "b")

    def test_partition_without_duration_persists(self, env, network, injector):
        network.add_host("a")
        network.add_host("b")
        injector.partition_at(1.0, ["a"], ["b"])
        env.run(until=100.0)
        assert network.partitioned("a", "b")

    def test_overlapping_partitions_heal_independently(
        self, env, network, injector
    ):
        """Regression: each timed partition heals only *itself*.  The old
        timer called heal-everything, so the first expiry ended every
        overlapping split early."""
        for name in ("a", "b", "c"):
            network.add_host(name)
        injector.partition_at(1.0, ["a"], ["b"], duration=2.0)
        injector.partition_at(1.5, ["a"], ["c"], duration=10.0)
        env.run(until=4.0)  # first split healed at t=3
        assert not network.partitioned("a", "b")
        assert network.partitioned("a", "c")  # must survive the first heal
        env.run(until=12.0)
        assert not network.partitioned("a", "c")
        heals = [event for event in injector.log if event.kind == "heal"]
        assert len(heals) == 2
        assert "'b'" in heals[0].target and "'c'" in heals[1].target


class TestChurn:
    def test_churn_generates_crashes_and_recoveries(self, env, network, injector):
        for index in range(3):
            network.add_host(f"h{index}")
        injector.churn(["h0", "h1", "h2"], mtbf=5.0, mttr=1.0, until=60.0)
        env.run(until=60.0)
        crashes = [e for e in injector.log if e.kind == "crash"]
        restarts = [e for e in injector.log if e.kind == "restart"]
        assert len(crashes) > 5
        # Every host that crashed eventually restarts within the window.
        assert len(restarts) >= len(crashes) - 3

    def test_churn_is_deterministic_per_seed(self, env):
        from repro.simnet import Environment, Network, RngRegistry

        def run_once():
            env = Environment()
            network = Network(env, rng=RngRegistry(99))
            injector = FailureInjector(network)
            network.add_host("h0")
            injector.churn(["h0"], mtbf=3.0, mttr=0.5, until=30.0)
            env.run(until=30.0)
            return [(round(e.time, 9), e.kind) for e in injector.log]

        assert run_once() == run_once()

    def test_churn_never_schedules_past_until(self, env, network, injector):
        network.add_host("h0")
        injector.churn(["h0"], mtbf=1.0, mttr=0.5, until=20.0)
        env.run()
        assert all(event.time <= 20.0 + 1e-9 for event in injector.log)

    def test_churn_schedule_pairs_never_overlap(self, env, network, injector):
        """Regression: the next crash must be sampled from the *repair*
        time.  The old scheduler sampled it from the crash time, so with
        MTTR >> MTBF a host was routinely re-crashed while still down and
        an earlier pending restart truncated the later outage."""
        network.add_host("h0")
        schedule = injector.churn(["h0"], mtbf=2.0, mttr=10.0, until=200.0)
        assert schedule  # harsh regime still produces outages
        previous_restart = None
        for crash, restart, host in schedule:
            assert host == "h0"
            assert crash < restart
            if previous_restart is not None:
                assert crash > previous_restart  # next outage starts after repair
            previous_restart = restart

    def test_churn_log_strictly_alternates_per_host(self, env, network, injector):
        """Each host's injected events go crash, restart, crash, restart…
        — the observable symptom of the old overlap bug was a crash
        logged while the host was already down (or silently dropped)."""
        for index in range(3):
            network.add_host(f"h{index}")
        injector.churn(["h0", "h1", "h2"], mtbf=2.0, mttr=6.0, until=120.0)
        env.run()
        assert injector.alternation_violations() == []
        for host in ("h0", "h1", "h2"):
            kinds = [
                e.kind for e in injector.log
                if e.target == host and e.kind in ("crash", "restart")
            ]
            assert kinds, f"{host} never crashed under harsh churn"
            expected = ["crash", "restart"] * (len(kinds) // 2 + 1)
            assert kinds == expected[: len(kinds)]

    def test_churn_delivers_nominal_downtime(self, env, network, injector):
        """Regression (behavioral): with MTTR >> MTBF the host should be
        down ~MTTR/(MTBF+MTTR) of the time (~0.83 here).  The old
        scheduler's overlapping outages were truncated by earlier pending
        restarts, delivering only ~0.45."""
        host = network.add_host("h0")
        observer = network.add_host("observer")  # never crashed, keeps sampling
        until = 200.0
        injector.churn(["h0"], mtbf=2.0, mttr=10.0, until=until)
        samples = []

        def sampler():
            while env.now < until:
                samples.append(host.up)
                yield env.timeout(0.1)

        observer.spawn(sampler())
        env.run(until=until)
        down_fraction = samples.count(False) / len(samples)
        assert down_fraction > 0.65

    def test_alternation_violations_flags_double_crash(
        self, env, network, injector
    ):
        from repro.simnet.failure import FailureEvent

        injector.log.append(FailureEvent(1.0, "crash", "h"))
        injector.log.append(FailureEvent(2.0, "crash", "h"))
        violations = injector.alternation_violations()
        assert len(violations) == 1
        assert "h" in violations[0] and "crash" in violations[0]
