"""Integration tests: the observability layer threaded through the system."""

import json

import pytest

from repro.core import ScenarioConfig, WhisperSystem
from repro.obs import NULL_TRACE, Observability


def _run_requests(system, service, count, host="obs-client"):
    node, soap = system.add_client(host)

    def loop():
        for index in range(count):
            yield from soap.call(
                service.address, service.path, "StudentInformation",
                {"ID": f"S{(index % 200) + 1:05d}"}, timeout=60.0,
            )
            yield system.env.timeout(0.05)

    system.env.run(until=node.spawn(loop()))


class TestObservabilityFacade:
    def test_disabled_returns_null_trace_and_retains_nothing(self):
        obs = Observability(enabled=False)
        trace = obs.request_trace("Svc.Op", 1, 0.0)
        assert trace is NULL_TRACE
        obs.finish_request(trace, 1.0)
        obs.observe_phase("elect", 0.5)
        assert len(obs.traces) == 0
        assert obs.metrics.histograms == {}

    def test_finish_request_feeds_phase_histograms(self):
        obs = Observability()
        trace = obs.request_trace("Svc.Op", 1, 0.0)
        trace.begin("discover", 0.0).finish(0.1)
        trace.begin("invoke", 0.1).finish(0.4)
        obs.finish_request(trace, 0.4)
        summary = obs.phase_summary()
        assert summary["discover"]["count"] == 1
        assert summary["invoke"]["count"] == 1
        assert summary["invoke"]["max"] == pytest.approx(0.3)
        assert obs.metrics.counters["requests.ok"].value == 1

    def test_phase_summary_always_has_canonical_phases(self):
        summary = Observability().phase_summary()
        for phase in ("discover", "bind", "invoke", "recover", "elect", "execute"):
            assert summary[phase]["count"] == 0

    def test_trace_ring_is_bounded(self):
        obs = Observability(max_traces=3)
        for index in range(10):
            obs.request_trace("Svc.Op", index, float(index))
        assert len(obs.traces) == 3
        assert obs.traces[0].request_id == 7

    def test_sampling_traces_every_nth_request_exactly(self):
        obs = Observability(sample_rate=0.25)
        sampled = 0
        for index in range(40):
            trace = obs.request_trace("Svc.Op", index, float(index))
            if trace is not NULL_TRACE:
                sampled += 1
            obs.finish_request(trace, float(index) + 0.1)
        # Systematic sampling: the accumulator is primed so the first
        # request is always traced, then exactly every 1/rate-th after.
        assert sampled == 11
        assert len(obs.traces) == 11

    def test_unsampled_requests_still_counted(self):
        obs = Observability(sample_rate=0.1)
        for index in range(20):
            trace = obs.request_trace("Svc.Op", index, 0.0)
            obs.finish_request(trace, 0.5, status="ok" if index % 2 else "failed")
        assert obs.metrics.counters["requests.total"].value == 20
        assert obs.metrics.counters["requests.ok"].value == 10
        assert obs.metrics.counters["requests.failed"].value == 10

    def test_sample_rate_one_traces_everything(self):
        obs = Observability(sample_rate=1.0)
        traces = [obs.request_trace("Svc.Op", i, 0.0) for i in range(5)]
        assert all(trace is not NULL_TRACE for trace in traces)

    def test_sample_rate_zero_traces_nothing(self):
        obs = Observability(sample_rate=0.0)
        traces = [obs.request_trace("Svc.Op", i, 0.0) for i in range(5)]
        assert all(trace is NULL_TRACE for trace in traces)

    def test_sample_rate_validated(self):
        with pytest.raises(ValueError):
            Observability(sample_rate=1.5)
        with pytest.raises(ValueError):
            Observability(sample_rate=-0.1)

    def test_sampled_durations_land_in_recent_ring(self):
        obs = Observability()
        trace = obs.request_trace("Svc.Op", 1, 0.0)
        obs.finish_request(trace, 0.25)
        ring = obs.metrics.ring("request.duration.recent")
        assert ring.window() == [pytest.approx(0.25)]

    def test_reset_drops_cached_phase_histogram_handles(self):
        # Regression: reset() clears the registry's histograms; stale
        # cached handles would keep folding into orphaned objects.
        obs = Observability()
        trace = obs.request_trace("Svc.Op", 1, 0.0)
        trace.begin("invoke", 0.0).finish(0.2)
        obs.finish_request(trace, 0.2)
        obs.reset()
        trace = obs.request_trace("Svc.Op", 2, 1.0)
        trace.begin("invoke", 1.0).finish(1.3)
        obs.finish_request(trace, 1.3)
        assert obs.phase_summary()["invoke"]["count"] == 1
        assert obs.metrics.histograms["phase.invoke"].count == 1

    def test_config_sample_rate_reaches_system_observability(self):
        system = WhisperSystem(ScenarioConfig(seed=1, obs_sample_rate=0.5))
        assert system.obs.sample_rate == 0.5

    def test_exports_parse(self):
        obs = Observability()
        trace = obs.request_trace("Svc.Op", 1, 0.0)
        trace.begin("invoke", 0.0).finish(0.2)
        obs.finish_request(trace, 0.2)
        assert json.loads(obs.traces_to_json())[0]["operation"] == "Svc.Op"
        assert json.loads(obs.to_json())["phases"]["invoke"]["count"] == 1
        assert obs.phases_to_csv().splitlines()[0].startswith("phase,count")


class TestSystemIntegration:
    def test_failure_free_requests_record_phase_spans(self):
        system = WhisperSystem(ScenarioConfig(seed=11))
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        _run_requests(system, service, 4)
        report = system.status_report()
        phases = report["phases"]
        assert report["observability"]["enabled"] is True
        assert phases["discover"]["count"] == 4
        assert phases["invoke"]["count"] == 4
        assert phases["execute"]["count"] == 4
        assert phases["bind"]["count"] == 1   # bound once, then cached
        assert phases["recover"]["count"] == 0
        assert phases["elect"]["count"] >= 1  # the bootstrap election
        trace = system.obs.traces[-1]
        assert trace.status == "ok"
        assert [span.name for span in trace.spans()] == ["discover", "invoke"]

    def test_coordinator_crash_shows_up_as_recover_phase(self):
        system = WhisperSystem(ScenarioConfig(seed=13))
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        victim = service.group.coordinator_peer()
        system.failures.crash_at(system.env.now + 0.3, victim.node.name)
        node, soap = system.add_client("crash-client")

        def loop():
            for index in range(4):
                yield from soap.call(
                    service.address, service.path, "StudentInformation",
                    {"ID": f"S{index + 1:05d}"}, timeout=120.0,
                )
                yield system.env.timeout(0.5)

        system.env.run(until=node.spawn(loop()))
        phases = system.status_report()["phases"]
        assert phases["recover"]["count"] >= 1
        # Recovery (detection + re-bind) dominates the failure story,
        # exactly the paper's multi-second worst case.
        assert phases["recover"]["max"] > phases["execute"]["max"]
        recovered = [
            trace for trace in system.obs.traces
            if "recover" in trace.phase_durations()
        ]
        assert recovered
        assert any(
            span.name == "invoke" and span.tags.get("outcome") == "timeout"
            for span in recovered[0].spans()
        )

    def test_message_trace_mirrors_into_metrics(self):
        system = WhisperSystem(ScenarioConfig(seed=17))
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        _run_requests(system, service, 2)
        counters = system.obs.metrics.counters
        assert counters["net.sent"].value == system.trace.sent_total
        assert counters["net.delivered"].value == system.trace.delivered_total

    def test_all_four_net_counters_track_the_trace(self):
        """The trace increments counter handles bound at wiring time
        (PR 15), not names: all four still equal the trace's own totals,
        drops included (a crashed coordinator makes some)."""
        system = WhisperSystem(ScenarioConfig(seed=17))
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        _run_requests(system, service, 3)
        service.group.crash_coordinator()
        _run_requests(system, service, 3, host="obs-client-2")
        trace, counters = system.trace, system.obs.metrics.counters
        assert trace.dropped_total > 0
        assert counters["net.sent"].value == trace.sent_total
        assert counters["net.bytes"].value == trace.bytes_total
        assert counters["net.delivered"].value == trace.delivered_total
        assert counters["net.dropped"].value == trace.dropped_total

    def test_trace_reset_leaves_the_registry_mirror_running(self):
        """MessageTrace.reset() zeroes the trace only; the registry keeps
        its lifetime totals, as before the handles were bound."""
        system = WhisperSystem(ScenarioConfig(seed=17))
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        before = system.trace.sent_total
        system.reset_counters()
        _run_requests(system, service, 2)
        counters = system.obs.metrics.counters
        assert system.trace.sent_total > 0
        assert counters["net.sent"].value == before + system.trace.sent_total

    def test_registry_reset_rebinds_the_mirror(self):
        """obs.reset() drops the registry's counters, orphaning the bound
        handles; reset_counters() re-wires them so the mirror survives."""
        system = WhisperSystem(ScenarioConfig(seed=17))
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        system.reset_counters(include_observability=True)
        _run_requests(system, service, 2)
        counters = system.obs.metrics.counters
        assert system.trace.sent_total > 0
        assert counters["net.sent"].value == system.trace.sent_total
        assert counters["net.bytes"].value == system.trace.bytes_total
        assert counters["net.delivered"].value == system.trace.delivered_total

    def test_disabled_observability_is_inert_and_equivalent(self):
        reports = {}
        for enabled in (True, False):
            system = WhisperSystem(ScenarioConfig(seed=23, observability=enabled))
            service = system.deploy_student_service(system.config.replace(replicas=3))
            system.settle(6.0)
            _run_requests(system, service, 3)
            reports[enabled] = (system.trace.snapshot(), system)
        disabled_system = reports[False][1]
        assert len(disabled_system.obs.traces) == 0
        assert disabled_system.obs.metrics.histograms == {}
        phases = disabled_system.status_report()["phases"]
        assert all(stats["count"] == 0 for stats in phases.values())
        # Same seed, same workload: the message flow must be identical
        # whether or not the instrumentation records it.
        assert reports[True][0] == reports[False][0]

    def test_reset_counters_can_include_observability(self):
        system = WhisperSystem(ScenarioConfig(seed=29))
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        _run_requests(system, service, 2)
        system.reset_counters()
        assert len(system.obs.traces) > 0  # default: obs preserved
        system.reset_counters(include_observability=True)
        assert len(system.obs.traces) == 0
        assert system.status_report()["phases"]["invoke"]["count"] == 0
