"""Unit tests for the rendezvous service and resolver."""

import pytest

from repro.p2p import Peer, PeerAdvertisement, PipeAdvertisement, PipeId
from repro.simnet import Interrupt


class TestLeases:
    def test_edges_obtain_leases(self, env, p2p):
        rendezvous, edges = p2p
        assert len(rendezvous.rendezvous.clients) == 4
        for edge in edges:
            assert edge.rendezvous.has_lease

    def test_leases_renew_over_time(self, env, p2p):
        rendezvous, edges = p2p
        lease_duration = edges[0].rendezvous.lease_duration
        env.run(until=env.now + lease_duration * 2)
        for edge in edges:
            assert edge.rendezvous.has_lease

    def test_crashed_edge_expires_from_client_list(self, env, p2p):
        rendezvous, edges = p2p
        edges[0].node.crash()
        lease_duration = edges[0].rendezvous.lease_duration
        env.run(until=env.now + lease_duration * 1.5)
        rendezvous.rendezvous._expire_clients()
        assert edges[0].peer_id not in rendezvous.rendezvous.clients


class TestPropagation:
    def test_propagate_reaches_all_edges(self, env, p2p):
        rendezvous, edges = p2p
        got = []
        for edge in edges:
            edge.rendezvous.register_propagate_listener(
                "app", lambda payload, origin, name=edge.name: got.append((name, payload))
            )
        edges[0].rendezvous.propagate("app", "broadcast")
        env.run(until=env.now + 0.2)
        receivers = sorted(name for name, _payload in got)
        assert receivers == ["edge0", "edge1", "edge2", "edge3"]

    def test_origin_gets_local_loopback_only_once(self, env, p2p):
        _rendezvous, edges = p2p
        got = []
        edges[0].rendezvous.register_propagate_listener(
            "app", lambda payload, origin: got.append(payload)
        )
        edges[0].rendezvous.propagate("app", "x")
        env.run(until=env.now + 0.2)
        assert got == ["x"]

    def test_rendezvous_can_propagate_too(self, env, p2p):
        rendezvous, edges = p2p
        got = []
        edges[1].rendezvous.register_propagate_listener(
            "app", lambda payload, origin: got.append(payload)
        )
        rendezvous.rendezvous.propagate("app", "from-rdv")
        env.run(until=env.now + 0.2)
        assert got == ["from-rdv"]


class TestSrdi:
    def test_publish_remote_lands_in_srdi(self, env, p2p):
        rendezvous, edges = p2p
        assert len(rendezvous.rendezvous.srdi) >= 4  # one peer adv per edge

    def test_srdi_lookup_filters(self, env, p2p):
        rendezvous, _edges = p2p
        matches = rendezvous.rendezvous.srdi_lookup(
            lambda adv: isinstance(adv, PeerAdvertisement) and adv.name == "edge2"
        )
        assert [adv.name for adv in matches] == ["edge2"]

    def test_crashed_edge_srdi_entries_dropped(self, env, p2p):
        rendezvous, edges = p2p
        edges[0].node.crash()
        lease = edges[0].rendezvous.lease_duration
        env.run(until=env.now + lease * 1.5)
        rendezvous.rendezvous._expire_clients()
        remaining = rendezvous.rendezvous.srdi_lookup(
            lambda adv: isinstance(adv, PeerAdvertisement) and adv.name == "edge0"
        )
        assert remaining == []


class TestResolver:
    def test_directed_query_and_response(self, env, p2p):
        _rendezvous, edges = p2p
        edges[1].resolver.register_handler("math", lambda q: q.payload * 2)
        answers = []
        edges[0].resolver.send_query(
            "math", 21, on_response=lambda r: answers.append(r.payload),
            dst_peer=edges[1].peer_id,
        )
        env.run(until=env.now + 0.2)
        assert answers == [42]

    def test_propagated_query_collects_multiple_answers(self, env, p2p):
        _rendezvous, edges = p2p
        for index, edge in enumerate(edges[1:], start=1):
            edge.resolver.register_handler("who", lambda q, i=index: f"edge{i}")
        answers = []
        edges[0].resolver.send_query(
            "who", None, on_response=lambda r: answers.append(r.payload)
        )
        env.run(until=env.now + 0.3)
        assert sorted(answers) == ["edge1", "edge2", "edge3"]

    def test_handler_returning_none_sends_nothing(self, env, p2p):
        _rendezvous, edges = p2p
        edges[1].resolver.register_handler("quiet", lambda q: None)
        answers = []
        edges[0].resolver.send_query(
            "quiet", None, on_response=lambda r: answers.append(r.payload),
            dst_peer=edges[1].peer_id,
        )
        env.run(until=env.now + 0.2)
        assert answers == []

    def test_cancel_query_stops_delivery(self, env, p2p):
        _rendezvous, edges = p2p

        def slow_handler(query):
            return "late-answer"

        edges[1].resolver.register_handler("slow", slow_handler)
        answers = []
        query_id = edges[0].resolver.send_query(
            "slow", None, on_response=lambda r: answers.append(r.payload),
            dst_peer=edges[1].peer_id,
        )
        edges[0].resolver.cancel_query(query_id)
        env.run(until=env.now + 0.2)
        assert answers == []

    def test_local_loopback_handler(self, env, p2p):
        _rendezvous, edges = p2p
        edges[0].resolver.register_handler("self", lambda q: "me")
        answers = []
        edges[0].resolver.send_query(
            "self", None, on_response=lambda r: answers.append(r.payload)
        )
        env.run(until=env.now + 0.2)
        assert "me" in answers


class TestListenerTable:
    """``ResolverService.listeners``: what is registered is released —
    by every query-and-wait on every exit, an interrupt included."""

    @staticmethod
    def _interrupted_mid_wait(env, network, waiter):
        """Run ``waiter`` on a host of its own and crash that host while
        the wait is pending (the querying peer's host stays up)."""
        host = network.add_host("caller-host")

        def process():
            try:
                yield from waiter
            except Interrupt:
                return

        host.spawn(process())
        env.run(until=env.now + 0.05)
        host.crash()
        env.run(until=env.now + 0.05)

    def test_count_follows_register_and_cancel(self, env, p2p):
        _rendezvous, edges = p2p
        resolver = edges[0].resolver
        assert resolver.listeners == 0
        query_id = resolver.send_query(
            "nobody", None, on_response=lambda r: None, dst_peer=edges[1].peer_id
        )
        resolver.send_query("nobody", None, dst_peer=edges[1].peer_id)  # no listener
        assert resolver.listeners == 1
        resolver.cancel_query(query_id)
        assert resolver.listeners == 0

    def test_interrupted_discovery_releases_its_listener(self, env, network, p2p):
        _rendezvous, edges = p2p
        waiter = edges[0].discovery.get_remote_advertisements(
            PeerAdvertisement, attribute="Name", value="no-such-peer", timeout=5.0
        )
        self._interrupted_mid_wait(env, network, waiter)
        assert edges[0].node.up and edges[0].resolver.listeners == 0

    def test_interrupted_pipe_bind_releases_its_listener(self, env, network, p2p):
        _rendezvous, edges = p2p
        advertisement = PipeAdvertisement(
            pipe_id=PipeId.from_name("unbound"), name="unbound"
        )
        waiter = edges[0].pipes.bind_output_pipe(advertisement, timeout=5.0)
        self._interrupted_mid_wait(env, network, waiter)
        assert edges[0].node.up and edges[0].resolver.listeners == 0
