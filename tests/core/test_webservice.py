"""Unit tests for the client-facing Web services."""

import pytest

from repro.backend import student_database, student_lookup_operational
from repro.core import PlainWebService, ScenarioConfig, WhisperSystem
from repro.soap import HttpRequest, RequestTimeout, SoapFault, http_request


@pytest.fixture
def system():
    return WhisperSystem(ScenarioConfig(seed=71))


class TestWhisperWebService:
    def test_unknown_path_404(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        node = system.network.add_host("nf-client")
        got = {}

        def fetch():
            got["response"] = yield from http_request(
                node, service.address, HttpRequest("GET", "/nothing"), timeout=2.0
            )

        system.env.run(until=node.spawn(fetch()))
        assert got["response"].status == 404

    def test_dispatch_rejects_unknown_operation(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        node, client = system.add_client("op-client")
        got = {}

        def caller():
            try:
                yield from client.call(service.address, service.path, "Nope", {})
            except SoapFault as fault:
                got["fault"] = fault

        system.env.run(until=node.spawn(caller()))
        assert got["fault"].faultcode == "Client"
        # The proxy was never bothered.
        assert service.proxy.stats.invocations == 0


class TestPlainWebService:
    @pytest.fixture
    def plain(self, system):
        implementation = student_lookup_operational(student_database())
        service = system.deploy_plain_service("Students", implementation)
        system.settle(1.0)
        return service

    def test_serves_requests(self, system, plain):
        node, client = system.add_client("plain-client")
        got = {}

        def caller():
            got["value"] = yield from client.call(
                plain.address, plain.path, "StudentInformation", {"ID": "S00001"}
            )

        system.env.run(until=node.spawn(caller()))
        assert got["value"]["studentId"] == "S00001"

    def test_host_crash_means_silence(self, system, plain):
        plain.node.crash()
        node, client = system.add_client("plain-client-2")
        got = {}

        def caller():
            try:
                yield from client.call(
                    plain.address, plain.path, "StudentInformation",
                    {"ID": "S00001"}, timeout=0.5,
                )
            except RequestTimeout as error:
                got["timeout"] = error

        system.env.run(until=node.spawn(caller()))
        assert "timeout" in got

    def test_backend_error_is_fault(self, system, plain):
        plain.implementation.backend.fail()
        node, client = system.add_client("plain-client-3")
        got = {}

        def caller():
            try:
                yield from client.call(
                    plain.address, plain.path, "StudentInformation", {"ID": "S00001"}
                )
            except SoapFault as fault:
                got["fault"] = fault

        system.env.run(until=node.spawn(caller()))
        assert got["fault"].faultcode == "Server"
