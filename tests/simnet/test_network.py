"""Unit tests for the network layer: delivery, partitions, loss, links."""

import pytest

from repro.simnet import (
    ConstantLatency,
    Environment,
    Message,
    Network,
    UnknownHostError,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def network(env):
    return Network(env)


def _exchange(env, network, count=1, size_bytes=512):
    """Send ``count`` messages a->b, return arrival payloads and times."""
    a = network.host("a") if "a" in network.hosts else network.add_host("a")
    b = network.host("b") if "b" in network.hosts else network.add_host("b")
    sa = a.transport.bind()
    sb = b.transport.bind(700)
    arrivals = []

    def receiver():
        for _ in range(count):
            message = yield sb.recv()
            arrivals.append((env.now, message.payload))

    process = b.spawn(receiver())
    for index in range(count):
        sa.send(("b", 700), payload=index, size_bytes=size_bytes)
    env.run(until=min(env.peek() + 10.0, 10.0))
    return arrivals


class TestDelivery:
    def test_message_arrives_with_positive_delay(self, env, network):
        arrivals = _exchange(env, network)
        assert len(arrivals) == 1
        assert arrivals[0][0] > 0

    def test_lan_latency_sub_millisecond(self, env, network):
        """The paper's LAN shows ~0.5 ms RTTs; one-way must be well under 1 ms."""
        arrivals = _exchange(env, network, count=20)
        assert len(arrivals) == 20
        assert all(time < 0.002 for time, _payload in arrivals)

    def test_transmission_delay_scales_with_size(self, env):
        network = Network(env, default_latency=ConstantLatency(0.0))
        a, b = network.add_host("a"), network.add_host("b")
        sa = a.transport.bind()
        sb = b.transport.bind(700)
        times = []

        def receiver():
            for _ in range(2):
                yield sb.recv()
                times.append(env.now)

        b.spawn(receiver())
        sa.send(("b", 700), payload="small", size_bytes=125)  # 1000 bits
        env.run(until=1.0)
        start = env.now
        sa.send(("b", 700), payload="big", size_bytes=125000)  # 1e6 bits
        env.run(until=2.0)
        small_delay = times[0]
        big_delay = times[1] - start
        assert big_delay == pytest.approx(small_delay * 1000, rel=0.01)

    def test_egress_serialisation_same_host(self, env):
        """Back-to-back sends from one host serialise on its NIC."""
        network = Network(env, default_latency=ConstantLatency(0.0))
        a, b = network.add_host("a"), network.add_host("b")
        sa = a.transport.bind()
        sb = b.transport.bind(700)
        times = []

        def receiver():
            for _ in range(2):
                yield sb.recv()
                times.append(env.now)

        b.spawn(receiver())
        # 1 Mbit each at 100 Mbit/s => 10 ms transmission per message.
        sa.send(("b", 700), payload="first", size_bytes=125000)
        sa.send(("b", 700), payload="second", size_bytes=125000)
        env.run()
        assert times[0] == pytest.approx(0.01, rel=0.01)
        assert times[1] == pytest.approx(0.02, rel=0.01)

    def test_no_serialisation_across_hosts(self, env):
        """Different hosts' NICs transmit concurrently."""
        network = Network(env, default_latency=ConstantLatency(0.0))
        a, b, c = network.add_host("a"), network.add_host("b"), network.add_host("c")
        sa, sc = a.transport.bind(), c.transport.bind()
        sb = b.transport.bind(700)
        times = []

        def receiver():
            for _ in range(2):
                yield sb.recv()
                times.append(env.now)

        b.spawn(receiver())
        sa.send(("b", 700), payload="from-a", size_bytes=125000)
        sc.send(("b", 700), payload="from-c", size_bytes=125000)
        env.run()
        assert times[0] == pytest.approx(0.01, rel=0.01)
        assert times[1] == pytest.approx(0.01, rel=0.01)

    def test_loopback_delivery(self, env, network):
        a = network.add_host("a")
        sender = a.transport.bind()
        receiver_socket = a.transport.bind(700)
        got = []

        def receiver():
            message = yield receiver_socket.recv()
            got.append(message.payload)

        a.spawn(receiver())
        sender.send(("a", 700), payload="self")
        env.run()
        assert got == ["self"]

    def test_unknown_destination_raises(self, env, network):
        a = network.add_host("a")
        socket = a.transport.bind()
        with pytest.raises(UnknownHostError):
            socket.send(("ghost", 1), payload="x")

    def test_unknown_source_raises(self, env, network):
        network.add_host("b")
        with pytest.raises(UnknownHostError) as excinfo:
            network.send(Message(src=("ghost", 1), dst=("b", 700), payload="x"))
        assert "ghost" in str(excinfo.value)

    @pytest.mark.parametrize(
        "src, dst", [(("a", 1), ("ghost", 700)), (("ghost", 1), ("a", 700))]
    )
    def test_rejected_send_is_not_counted(self, env, src, dst):
        """A message that raises ``UnknownHostError`` never entered the wire."""
        from repro.obs.metrics import MetricsRegistry
        from repro.simnet import MessageTrace

        registry = MetricsRegistry()
        trace = MessageTrace(record_details=True)
        trace.metrics = registry
        network = Network(env, trace=trace)
        a, b = network.add_host("a"), network.add_host("b")
        b.transport.bind(700)
        a.transport.bind().send(("b", 700), payload="counted", size_bytes=100)
        env.run()

        def totals():
            return (
                trace.snapshot(),
                dict(trace.sent_by_category),
                dict(trace.sent_by_host),
                len(trace.records),
                {
                    name: registry.counter(name).value
                    for name in ("net.sent", "net.bytes", "net.delivered", "net.dropped")
                },
            )

        before = totals()
        assert before[0]["sent"] == before[0]["delivered"] == 1
        with pytest.raises(UnknownHostError):
            network.send(Message(src=src, dst=dst, payload="x", size_bytes=64))
        env.run()
        assert totals() == before

    def test_duplicate_host_rejected(self, network):
        network.add_host("dup")
        with pytest.raises(ValueError):
            network.add_host("dup")


class TestFailureModes:
    def test_down_destination_drops(self, env, network):
        a, b = network.add_host("a"), network.add_host("b")
        sa = a.transport.bind()
        b.transport.bind(700)
        b.crash()
        sa.send(("b", 700), payload="x")
        env.run()
        assert network.trace.dropped_total == 1
        assert network.trace.delivered_total == 0

    def test_down_source_drops(self, env, network):
        a, b = network.add_host("a"), network.add_host("b")
        sa = a.transport.bind()
        b.transport.bind(700)
        a.up = False  # direct flag, bypassing crash() socket teardown
        sa.send(("b", 700), payload="x")
        env.run()
        assert network.trace.dropped_total == 1

    def test_unbound_port_drops(self, env, network):
        a, b = network.add_host("a"), network.add_host("b")
        sa = a.transport.bind()
        sa.send(("b", 999), payload="x")
        env.run()
        assert network.trace.dropped_total == 1

    def test_partition_blocks_both_directions(self, env, network):
        a, b = network.add_host("a"), network.add_host("b")
        sa, sb = a.transport.bind(), b.transport.bind(700)
        sa2 = a.transport.bind(700)
        network.partition(["a"], ["b"])
        sa.send(("b", 700), payload="x")
        sb.send(("a", 700), payload="y")
        env.run()
        assert network.trace.dropped_total == 2
        assert network.partitioned("a", "b")
        assert network.partitioned("b", "a")

    def test_heal_partitions_restores_traffic(self, env, network):
        a, b = network.add_host("a"), network.add_host("b")
        sa = a.transport.bind()
        sb = b.transport.bind(700)
        network.partition(["a"], ["b"])
        network.heal_partitions()
        got = []

        def receiver():
            message = yield sb.recv()
            got.append(message.payload)

        b.spawn(receiver())
        sa.send(("b", 700), payload="after-heal")
        env.run()
        assert got == ["after-heal"]

    def test_heal_partition_removes_only_that_split(self, env, network):
        for name in ("a", "b", "c"):
            network.add_host(name)
        first = network.partition(["a"], ["b"])
        second = network.partition(["a"], ["c"])
        assert network.heal_partition(first)
        assert not network.partitioned("a", "b")
        assert network.partitioned("a", "c")  # overlapping split still active
        assert network.heal_partition(second)
        assert not network.heal_partition(second)  # already healed

    def test_message_in_flight_to_crashing_host_dropped(self, env, network):
        a, b = network.add_host("a"), network.add_host("b")
        sa = a.transport.bind()
        b.transport.bind(700)
        sa.send(("b", 700), payload="x")
        b.crash()  # crashes before the (delayed) delivery
        env.run()
        assert network.trace.dropped_total == 1

    def test_full_loss_rate_drops_everything(self, env, network):
        network.loss_rate = 1.0
        a, b = network.add_host("a"), network.add_host("b")
        sa = a.transport.bind()
        b.transport.bind(700)
        for _ in range(10):
            sa.send(("b", 700), payload="x")
        env.run()
        assert network.trace.dropped_total == 10


    def test_loss_rate_set_after_traffic_drops_the_next_message(self, env, network):
        """``loss_rate`` is assigned mid-run; no route may hold an old value."""
        arrivals = _exchange(env, network, count=3)
        assert len(arrivals) == 3 and network.trace.dropped_total == 0
        network.loss_rate = 1.0
        assert network.link_between("a", "b").loss_rate == 1.0
        network.host("a").transport.bind().send(("b", 700), payload="lost")
        env.run()
        assert network.trace.dropped_total == 1
        assert network.trace.delivered_total == 3
        network.loss_rate = 0.0
        assert network.link_between("a", "b").loss_rate == 0.0


class TestLinks:
    def test_link_override_changes_latency(self, env, network):
        a, b = network.add_host("a"), network.add_host("b")
        network.connect("a", "b", latency=ConstantLatency(0.5))
        sa = a.transport.bind()
        sb = b.transport.bind(700)
        times = []

        def receiver():
            yield sb.recv()
            times.append(env.now)

        b.spawn(receiver())
        sa.send(("b", 700), payload="x", size_bytes=0)
        env.run()
        assert times[0] == pytest.approx(0.5, abs=1e-6)

    def test_link_between_defaults_without_override(self, network):
        network.add_host("a")
        network.add_host("b")
        link = network.link_between("a", "b")
        assert link.bandwidth_bps == network.default_bandwidth_bps

    def test_connect_unknown_host_rejected(self, network):
        network.add_host("a")
        with pytest.raises(UnknownHostError):
            network.connect("a", "ghost")


class TestMessageObject:
    def test_reply_to_swaps_addresses(self):
        message = Message(src=("a", 1), dst=("b", 2), payload="req")
        reply = message.reply_to("resp")
        assert reply.src == ("b", 2)
        assert reply.dst == ("a", 1)
        assert reply.correlation_id == message.msg_id

    def test_message_ids_unique(self):
        first = Message(src=("a", 1), dst=("b", 2), payload=None)
        second = Message(src=("a", 1), dst=("b", 2), payload=None)
        assert first.msg_id != second.msg_id

    def test_reply_to_propagates_headers_copy(self):
        # Regression: piggybacked metadata (epoch gossip, journal hints)
        # used to be silently dropped from every reply.
        message = Message(
            src=("a", 1), dst=("b", 2), payload="req",
            headers={"epoch": 7, "hint": "retry-after"},
        )
        reply = message.reply_to("resp")
        assert reply.headers == {"epoch": 7, "hint": "retry-after"}
        # A *copy*: mutating the reply's headers must not alias back.
        reply.headers["epoch"] = 8
        assert message.headers["epoch"] == 7

    def test_reply_to_explicit_headers_override(self):
        message = Message(
            src=("a", 1), dst=("b", 2), payload="req", headers={"epoch": 7}
        )
        reply = message.reply_to("resp", headers={"fresh": True})
        assert reply.headers == {"fresh": True}

    def test_message_is_slotted(self):
        message = Message(src=("a", 1), dst=("b", 2), payload=None)
        assert not hasattr(message, "__dict__")
        with pytest.raises(AttributeError):
            message.unexpected_attribute = 1
