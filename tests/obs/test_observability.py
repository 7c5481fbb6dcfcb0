"""Integration tests: the observability layer threaded through the system."""

import json

import pytest

from repro.core import (
    NoMatchingGroupError,
    ScenarioConfig,
    SemanticWebService,
    SwsProxy,
    WhisperSystem,
)
from repro.obs import MAX_TRACES, Observability, RequestTrace
from repro.ontology import ConceptMatcher, Reasoner, b2b_ontology
from repro.simnet import Environment, Network
from repro.wsdl.samples import student_management_wsdl


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
        obs = Observability()
        for index in range(MAX_TRACES + 10):
            obs.request_trace("Svc.Op", index, float(index))
        assert len(obs.traces) == MAX_TRACES
        assert obs.traces[0].request_id == 10

    def test_requests_counted_by_status(self):
        obs = Observability()
        for index in range(20):
            trace = obs.request_trace("Svc.Op", index, 0.0)
            obs.finish_request(trace, 0.5, status="ok" if index % 2 else "failed")
        assert obs.metrics.counters["requests.total"].value == 20
        assert obs.metrics.counters["requests.ok"].value == 10
        assert obs.metrics.counters["requests.failed"].value == 10
        assert obs.metrics.histograms["request.duration"].count == 20

    def test_recent_traces_limit_counts_from_the_newest(self):
        obs = Observability()
        for index in range(5):
            obs.request_trace("Svc.Op", index, float(index))
        assert obs.recent_traces(0) == []
        assert json.loads(obs.traces_to_json(limit=0)) == []
        assert [t.request_id for t in obs.recent_traces(2)] == [3, 4]
        assert [t.request_id for t in obs.recent_traces(10)] == [0, 1, 2, 3, 4]
        assert len(obs.recent_traces()) == 5
        with pytest.raises(ValueError, match=">= 0"):
            obs.recent_traces(-1)

    def test_trace_last_rejects_a_negative_count_before_running(self, capsys):
        from repro import cli

        assert cli.main(["trace", "--last", "-1"]) == 2
        assert "--last: must be >= 0" in capsys.readouterr().err

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


class TestOnAndBoundedEverywhere:
    def test_bare_network_proxy_records_a_request_trace(self):
        """A network built without ``obs=`` still traces: there is no
        disabled facade to fall back to."""
        env = Environment()
        network = Network(env)
        ontology = b2b_ontology()
        proxy = SwsProxy(
            network.add_host("web"),
            SemanticWebService(student_management_wsdl(), ontology),
            ConceptMatcher(Reasoner(ontology)),
        )
        proxy.discovery_timeout = 0.1

        def call():
            try:
                yield from proxy.invoke("StudentInformation", {"ID": "S00001"}, budget=1.0)
            except NoMatchingGroupError:
                pass

        env.run(until=proxy.node.spawn(call()))
        (trace,) = network.obs.traces
        assert isinstance(trace, RequestTrace)
        assert trace.operation.endswith(".StudentInformation")
        assert trace.status == "NoMatchingGroupError"
        assert [span.name for span in trace.spans()] == ["discover"]

    def test_retention_is_bounded_by_construction(self):
        """2 000 served reads keep MAX_TRACES traces, and the registry has
        the same counter and histogram names as after the first 200."""
        system = WhisperSystem(ScenarioConfig(seed=42))
        service = system.deploy_student_service()
        system.settle()
        node = system.network.add_host("bounded-client")

        def reads(start, count):
            for index in range(start, start + count):
                yield from service.invoke(
                    "StudentInformation", {"ID": f"S{index % 200 + 1:05d}"}
                )
                yield system.env.timeout(0.005)

        def names():
            metrics = system.obs.metrics
            return set(metrics.counters), set(metrics.histograms)

        system.run_process(reads(0, 200), node=node)
        early = names()
        system.run_process(reads(200, 1800), node=node)
        assert system.obs.metrics.counters["requests.ok"].value == 2000
        assert len(system.obs.traces) == MAX_TRACES
        assert names() == early
