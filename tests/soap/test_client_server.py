"""Integration tests: SoapClient against SoapServer."""

import pytest

from repro.soap import (
    Envelope,
    HttpRequest,
    HttpResponse,
    RequestTimeout,
    SoapClient,
    SoapFault,
    SoapServer,
    http_request,
)


@pytest.fixture
def deployment(env, network, two_hosts):
    server_node, client_node = two_hosts
    server = SoapServer(server_node, port=80)

    def dispatcher(operation, arguments, headers):
        if operation == "add":
            return arguments["a"] + arguments["b"]
        if operation == "echo-headers":
            return dict(headers)
        if operation == "slow":
            yield env.timeout(float(arguments["delay"]))
            return "done"
        if operation == "fail-client":
            raise SoapFault.client("bad arguments", detail={"why": "test"})
        raise RuntimeError("unexpected operation")

    server.mount("/svc", dispatcher)
    client = SoapClient(client_node, default_timeout=2.0)
    return server, client, server_node, client_node


def _call(env, node, client, *args, **kwargs):
    outcome = {}

    def caller():
        try:
            outcome["value"] = yield from client.call(*args, **kwargs)
        except (SoapFault, RequestTimeout) as error:
            outcome["error"] = error

    env.run(until=node.spawn(caller()))
    return outcome


class TestCalls:
    def test_successful_call(self, env, deployment):
        server, client, _s, client_node = deployment
        outcome = _call(env, client_node, client, ("a", 80), "/svc", "add", {"a": 2, "b": 3})
        assert outcome["value"] == 5
        assert client.calls_sent == 1
        assert server.calls_handled == 1

    def test_headers_reach_dispatcher(self, env, deployment):
        _server, client, _s, client_node = deployment
        outcome = _call(
            env, client_node, client, ("a", 80), "/svc", "echo-headers", {},
            headers={"tenant": "acme"},
        )
        assert outcome["value"]["tenant"] == "acme"

    def test_generator_dispatcher(self, env, deployment):
        _server, client, _s, client_node = deployment
        outcome = _call(
            env, client_node, client, ("a", 80), "/svc", "slow", {"delay": "0.1"}
        )
        assert outcome["value"] == "done"
        assert env.now >= 0.1

    def test_rtt_recorded_on_trace(self, env, network, deployment):
        _server, client, _s, client_node = deployment
        _call(env, client_node, client, ("a", 80), "/svc", "add", {"a": 1, "b": 1})
        rtts = network.trace.rtts()
        assert len(rtts) == 1
        assert 0 < rtts[0] < 0.01


class TestFaults:
    def test_explicit_fault_propagates(self, env, deployment):
        server, client, _s, client_node = deployment
        outcome = _call(env, client_node, client, ("a", 80), "/svc", "fail-client", {})
        fault = outcome["error"]
        assert isinstance(fault, SoapFault)
        assert fault.faultcode == "Client"
        assert fault.detail == {"why": "test"}
        assert client.faults_received == 1
        assert server.faults_returned == 1

    def test_dispatcher_bug_becomes_server_fault(self, env, deployment):
        _server, client, _s, client_node = deployment
        outcome = _call(env, client_node, client, ("a", 80), "/svc", "unknown-op", {})
        assert outcome["error"].faultcode == "Server"
        assert "RuntimeError" in outcome["error"].faultstring


class TestSystemFailures:
    def test_crashed_server_is_silent_not_faulting(self, env, deployment):
        """§1: system failures produce no <soap:fault> — only a timeout."""
        _server, client, server_node, client_node = deployment
        server_node.crash()
        outcome = _call(
            env, client_node, client, ("a", 80), "/svc", "add", {"a": 1, "b": 1},
            timeout=0.5,
        )
        assert isinstance(outcome["error"], RequestTimeout)
        assert client.timeouts == 1

    def test_crash_mid_request_is_silent(self, env, deployment):
        _server, client, server_node, client_node = deployment

        def crasher():
            yield env.timeout(0.05)
            server_node.crash()

        client_node.spawn(crasher())
        outcome = _call(
            env, client_node, client, ("a", 80), "/svc", "slow", {"delay": "0.2"},
            timeout=0.5,
        )
        assert isinstance(outcome["error"], RequestTimeout)


#: Payloads the reader must refuse: each decoded into an ``EncodingError``
#: that escaped ``Envelope.from_xml`` (and ``SoapServer.handle``) before PR 17,
#: and the last into a ``RecursionError``.
MALFORMED_VALUES = {
    "bad int payload": '<{tag} type="int"{name}>x</{tag}>',
    "unknown type": '<{tag} type="quaternion"{name} />',
    "nameless struct member": '<{tag} type="struct"{name}><member type="int">1</member></{tag}>',
    "3000-deep list": '<{tag} type="list"{name}>' + '<item type="list">' * 3000
    + "</item>" * 3000 + "</{tag}>",
}  # fmt: skip


class TestMalformedPayloads:
    """A payload that does not decode is a SOAP ``Client`` fault on the way in
    and a ``Server`` fault ("unparseable response") on the way out — never an
    HTTP 500 text body, never an exception in the caller."""

    @pytest.mark.parametrize("value", MALFORMED_VALUES.values(), ids=MALFORMED_VALUES.keys())
    def test_request_is_answered_with_a_client_fault(self, env, deployment, value):
        server, _client, _s, client_node = deployment
        argument = value.format(tag="argument", name=' name="a"')
        body = Envelope.call("add", {"a": "@"}).to_xml().replace(
            '<argument type="string" name="a">@</argument>', argument
        )
        assert argument in body
        outcome = {}

        def caller():
            request = HttpRequest("POST", "/svc", body=body)
            outcome["response"] = yield from http_request(client_node, ("a", 80), request)

        env.run(until=client_node.spawn(caller()))
        response = outcome["response"]
        assert response.status == 500
        fault = Envelope.from_xml(response.body).fault  # an envelope, not a text body
        assert fault.faultcode == "Client"
        assert "unparseable envelope" in fault.faultstring
        assert server.faults_returned == 1
        assert server.calls_handled == 0

    @pytest.mark.parametrize("value", MALFORMED_VALUES.values(), ids=MALFORMED_VALUES.keys())
    def test_response_becomes_a_server_fault_at_the_client(self, env, deployment, value):
        server, client, _s, client_node = deployment
        body = Envelope.result("add", "@").to_xml().replace(
            '<return type="string">@</return>', value.format(tag="return", name="")
        )
        assert "@" not in body
        server.http.route("/raw", lambda request: HttpResponse(200, body=body))
        outcome = _call(env, client_node, client, ("a", 80), "/raw", "add", {"a": 1})
        fault = outcome["error"]
        assert isinstance(fault, SoapFault)
        assert fault.faultcode == "Server"
        assert "unparseable response" in fault.faultstring
