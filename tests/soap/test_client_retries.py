"""Tests for SOAP client-side retries (datagram-loss recovery)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.simnet import Interrupt
from repro.soap import RequestTimeout, SoapClient, SoapServer

SOURCE = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def deployment(env, network, two_hosts):
    server_node, client_node = two_hosts
    server = SoapServer(server_node, port=80)
    calls = {"count": 0}

    def dispatcher(operation, arguments, headers):
        calls["count"] += 1
        return calls["count"]

    server.mount("/svc", dispatcher)
    client = SoapClient(client_node, default_timeout=0.5)
    return server, client, client_node, calls


def _call(env, node, client, retries, timeout=0.5):
    outcome = {}

    def caller():
        try:
            outcome["value"] = yield from client.call(
                ("a", 80), "/svc", "op", {}, timeout=timeout, retries=retries
            )
        except RequestTimeout as error:
            outcome["error"] = error

    env.run(until=node.spawn(caller()))
    return outcome


class TestRetries:
    def test_retry_recovers_from_lost_request(self, env, network, deployment):
        _server, client, client_node, calls = deployment
        network.loss_rate = 1.0  # first attempt is lost

        def heal():
            # Heal just before the first 0.5s attempt times out, so the
            # retry goes out over a healthy network.
            yield env.timeout(0.45)
            network.loss_rate = 0.0

        client_node.spawn(heal())
        outcome = _call(env, client_node, client, retries=2)
        assert "value" in outcome
        assert client.timeouts == 1  # one lost attempt, then success

    def test_no_retries_by_default(self, env, network, deployment):
        _server, client, client_node, _calls = deployment
        network.loss_rate = 1.0
        outcome = _call(env, client_node, client, retries=0)
        assert isinstance(outcome["error"], RequestTimeout)
        assert client.timeouts == 1

    def test_retries_exhausted_raises(self, env, network, deployment):
        _server, client, client_node, _calls = deployment
        network.loss_rate = 1.0
        outcome = _call(env, client_node, client, retries=3)
        assert isinstance(outcome["error"], RequestTimeout)
        assert client.timeouts == 4  # initial attempt + 3 retries

    def test_retry_can_double_execute(self, env, network, deployment):
        """Retries are at-least-once: if only the *response* is lost, the
        server executes twice.  (Whisper's operations are reads, but the
        semantics are worth pinning down.)"""
        server, client, client_node, calls = deployment
        outcome = _call(env, client_node, client, retries=1)
        first_count = calls["count"]
        assert first_count == 1
        assert outcome["value"] == 1


class TestRttStampHygiene:
    """The RTT monitor's request stamps: released on every exit, and keyed by
    something that does not depend on the interpreter's hash seed."""

    @pytest.mark.parametrize("retries", [0, 2])
    def test_timed_out_calls_release_their_stamps(self, env, network, deployment, retries):
        _server, client, client_node, _calls = deployment
        network.loss_rate = 1.0
        for _ in range(5):
            outcome = _call(env, client_node, client, retries=retries)
            assert isinstance(outcome["error"], RequestTimeout)
        assert client.timeouts == 5 * (retries + 1)
        assert network.trace._pending_rtt == {}  # five entries, for ever, before PR 17
        assert network.trace.rtts() == []

    def test_a_caller_killed_mid_call_releases_its_stamp(self, env, network, deployment):
        _server, client, client_node, _calls = deployment
        network.loss_rate = 1.0

        def caller():
            try:
                yield from client.call(("a", 80), "/svc", "op", {}, timeout=5.0)
            except Interrupt:
                pass  # the host went down under it

        client_node.spawn(caller())
        env.run(until=1.0)
        assert len(network.trace._pending_rtt) == 1
        client_node.crash()
        env.run(until=2.0)
        assert network.trace._pending_rtt == {}

    def test_answered_calls_still_stamp_one_sample_each(self, env, network, deployment):
        _server, client, client_node, _calls = deployment
        for _ in range(3):
            assert "value" in _call(env, client_node, client, retries=1)
        assert len(network.trace.rtts()) == 3
        assert network.trace._pending_rtt == {}
        ids = [sample.correlation_id for sample in network.trace.rtt_samples]
        assert ids == list(range(ids[0], ids[0] + 3))  # the call counter itself

    def test_rtt_csv_does_not_depend_on_the_hash_seed(self):
        """DESIGN.md §7: a run is reproducible bit for bit given its seed.  The
        correlation id used to be a ``hash()`` of a str-bearing tuple."""
        script = (
            "from repro.simnet import Environment, MessageTrace, Network, RngRegistry\n"
            "from repro.soap import SoapClient, SoapServer\n"
            "env = Environment()\n"
            "network = Network(env, trace=MessageTrace(), rng=RngRegistry(7))\n"
            "a, b = network.add_host('a'), network.add_host('b')\n"
            "SoapServer(a, port=80).mount('/svc', lambda op, args, headers: args['n'])\n"
            "client = SoapClient(b)\n"
            "def calls():\n"
            "    for n in range(4):\n"
            "        yield from client.call(('a', 80), '/svc', 'echo', {'n': n})\n"
            "env.run(until=b.spawn(calls()))\n"
            "print(network.trace.rtts_to_csv(), end='')\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            environment = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SOURCE)
            done = subprocess.run(
                [sys.executable, "-c", script], env=environment, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
            )  # fmt: skip
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0].count("\n") == 5  # header + four samples
        assert outputs[0] == outputs[1]
