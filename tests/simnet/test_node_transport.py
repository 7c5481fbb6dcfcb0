"""Unit tests for hosts and the datagram transport."""

import pytest

from repro.simnet import Interrupt, PortInUseError


class TestNode:
    def test_spawn_process_dies_on_crash(self, env, network):
        host = network.add_host("h")
        log = []

        def looper():
            try:
                while True:
                    yield env.timeout(1.0)
                    log.append(env.now)
            except Interrupt as interrupt:
                log.append(("killed", interrupt.cause))

        host.spawn(looper())

        def killer():
            yield env.timeout(2.5)
            host.crash()

        env.process(killer())
        env.run(until=10.0)
        assert log == [1.0, 2.0, ("killed", "crash")]

    def test_long_lived_host_forgets_finished_processes(self, env, network):
        host = network.add_host("h")
        killed = []

        def server(index):
            try:
                yield env.event()  # parked until the crash
            except Interrupt:
                killed.append(index)

        def request():
            yield env.timeout(0.001)

        def traffic():
            for index in range(10_000):
                if index % 2_500 == 0:
                    host.spawn(server(index))
                host.spawn(request())
                yield env.timeout(0.002)
                # At most five alive at once: twice that plus the slack.
                assert len(host._processes) <= 2 * 5 + 16

        env.run(until=env.process(traffic()))
        host.crash()  # 10 000 requests served and gone, four servers alive
        assert len(host._processes) == 4
        assert all(process.is_alive for process in host._processes)
        env.run()
        assert killed == [0, 2_500, 5_000, 7_500]  # spawn order

    def test_crash_is_idempotent(self, network):
        host = network.add_host("h")
        host.crash()
        host.crash()
        assert host.crash_count == 1

    def test_restart_runs_hooks(self, network):
        host = network.add_host("h")
        events = []
        host.on_crash(lambda node: events.append("crash"))
        host.on_restart(lambda node: events.append("restart"))
        host.crash()
        host.restart()
        assert events == ["crash", "restart"]

    def test_restart_without_crash_is_noop(self, network):
        host = network.add_host("h")
        events = []
        host.on_restart(lambda node: events.append("restart"))
        host.restart()
        assert events == []


class TestTransport:
    def test_bind_specific_port(self, network):
        host = network.add_host("h")
        socket = host.transport.bind(8080)
        assert socket.address == ("h", 8080)

    def test_bind_duplicate_port_rejected(self, network):
        host = network.add_host("h")
        host.transport.bind(8080)
        with pytest.raises(PortInUseError):
            host.transport.bind(8080)

    def test_ephemeral_ports_are_distinct(self, network):
        host = network.add_host("h")
        first = host.transport.bind()
        second = host.transport.bind()
        assert first.port != second.port
        assert first.port >= 49152

    def test_ephemeral_ports_wrap_inside_the_dynamic_range(self, network):
        transport = network.add_host("h").transport
        held = transport.bind()  # stays bound while the range wraps past it
        ports = set()
        for _ in range(20_000):
            socket = transport.bind()
            assert 49152 <= socket.port <= 65535 and socket.port != held.port
            ports.add(socket.port)
            socket.close()
        assert len(ports) == 65535 - 49152  # every port but the held one
        first, second = transport.bind(), transport.bind()
        assert len({held.port, first.port, second.port}) == 3

    def test_ephemeral_range_exhausted_is_a_typed_error(self, network):
        transport = network.add_host("h").transport
        for _ in range(49152, 65536):
            transport.bind()
        with pytest.raises(PortInUseError):
            transport.bind()

    def test_rebind_after_close(self, network):
        host = network.add_host("h")
        socket = host.transport.bind(8080)
        socket.close()
        host.transport.bind(8080)  # must not raise

    def test_crash_flushes_queued_inbound(self, env, network):
        a, b = network.add_host("a"), network.add_host("b")
        sa = a.transport.bind()
        sb = b.transport.bind(700)
        sa.send(("b", 700), payload="x")
        env.run()  # message sits in b's inbox, nobody reading
        assert len(sb.inbox) == 1
        b.crash()
        assert len(sb.inbox) == 0

    def test_closed_socket_drops_traffic(self, env, network):
        a, b = network.add_host("a"), network.add_host("b")
        sa = a.transport.bind()
        sb = b.transport.bind(700)
        sb.close()
        sa.send(("b", 700), payload="x")
        env.run()
        assert network.trace.dropped_total == 1
