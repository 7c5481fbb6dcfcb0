"""Unit tests for the endpoint service (peer-ID messaging, the rendezvous
relay hop and crash recovery)."""

import pytest

from repro.p2p import (
    EndpointMessage,
    EndpointService,
    Peer,
    PeerId,
    RendezvousService,
    UnresolvablePeerError,
)
from repro.simnet import Message


def _endpoint(network, host_name):
    node = network.add_host(host_name)
    return EndpointService(node, PeerId.from_name(host_name))


class TestDirectMessaging:
    def test_send_by_peer_id(self, env, network):
        a = _endpoint(network, "a")
        b = _endpoint(network, "b")
        a.add_route(b.peer_id, b.address)
        got = []
        b.register_listener("test", lambda msg: got.append(msg.payload))
        a.send(b.peer_id, "test", {"hello": 1})
        env.run(until=0.1)
        assert got == [{"hello": 1}]
        assert a.messages_out == 1
        assert b.messages_in == 1

    def test_unknown_peer_raises(self, env, network):
        a = _endpoint(network, "a")
        with pytest.raises(UnresolvablePeerError):
            a.send(PeerId.from_name("ghost"), "test", None)

    def test_listener_dispatch_by_protocol(self, env, network):
        a = _endpoint(network, "a")
        b = _endpoint(network, "b")
        a.add_route(b.peer_id, b.address)
        got = {"x": [], "y": []}
        b.register_listener("x", lambda m: got["x"].append(m.payload))
        b.register_listener("y", lambda m: got["y"].append(m.payload))
        a.send(b.peer_id, "x", 1)
        a.send(b.peer_id, "y", 2)
        a.send(b.peer_id, "unregistered", 3)
        env.run(until=0.1)
        assert got == {"x": [1], "y": [2]}

    def test_message_category_recorded(self, env, network):
        a = _endpoint(network, "a")
        b = _endpoint(network, "b")
        a.add_route(b.peer_id, b.address)
        a.send(b.peer_id, "proto", None, category="custom-cat")
        env.run(until=0.1)
        assert network.trace.sent_by_category["custom-cat"] == 1


class TestRelay:
    def test_send_via_intermediate(self, env, network):
        a = _endpoint(network, "a")
        relay = _endpoint(network, "r")
        b = _endpoint(network, "b")
        a.add_route(relay.peer_id, relay.address)
        relay.add_route(b.peer_id, b.address)
        got = []
        b.register_listener("x", lambda m: got.append((m.payload, m.src_peer)))
        a.send_via(relay.peer_id, b.peer_id, "x", "through-relay")
        env.run(until=0.1)
        assert got == [("through-relay", a.peer_id)]
        assert relay.messages_in == 0  # forwarded, not delivered to the relay


def _drop_reasons(network, monkeypatch):
    reasons = []
    on_drop = network.trace.on_drop

    def recording(time, message, reason=""):
        reasons.append(reason)
        on_drop(time, message, reason)

    monkeypatch.setattr(network.trace, "on_drop", recording)
    return reasons


class TestCrashRecovery:
    @pytest.mark.parametrize("path", ["send", "send_via", "relay_forward", "federated_relay"])
    def test_send_from_crashed_host_is_dropped_src_down(self, env, network, monkeypatch, path):
        """A crashed host's endpoint sends like any down host: the network
        records the datagram and drops it ``src-down`` — nothing raises."""
        a = _endpoint(network, "a")
        b = _endpoint(network, "b")
        a.add_route(b.peer_id, b.address)
        got = []
        b.register_listener("x", lambda m: got.append(m.payload))
        envelope = EndpointMessage(PeerId.from_name("c"), b.peer_id, "x", "lost")
        if path == "federated_relay":
            RendezvousService(a, is_rendezvous=True).federate_with(b.peer_id, b.address)
            envelope.dst_peer = PeerId.from_name("leased-elsewhere")
        a.node.crash()
        reasons = _drop_reasons(network, monkeypatch)
        dropped, sent = network.trace.dropped_total, network.trace.sent_total
        if path == "send":
            a.send(b.peer_id, "x", "lost")
        elif path == "send_via":
            a.send_via(b.peer_id, b.peer_id, "x", "lost")
        else:  # forwarding a relayed envelope: by route, or to a federated region
            message = Message(("c", 9701), a.address, envelope)
            a._relay_forward(envelope, message)
        env.run(until=0.1)
        assert got == []
        assert network.trace.sent_total == sent + 1
        assert network.trace.dropped_total == dropped + 1
        assert reasons == ["src-down"]

    def test_endpoint_rebinds_after_restart(self, env, network):
        a = _endpoint(network, "a")
        b = _endpoint(network, "b")
        a.add_route(b.peer_id, b.address)
        b.node.crash()
        b.node.restart()
        got = []
        b.register_listener("x", lambda m: got.append(m.payload))
        a.send(b.peer_id, "x", "after-restart")
        env.run(until=0.1)
        assert got == ["after-restart"]
