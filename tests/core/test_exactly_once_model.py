"""The exactly-once protocol against a sequential spec (DESIGN.md §6.20).

3–5 :class:`~repro.core.journal.ExactlyOnce` objects share one simulated
clock but no network: every ``tell`` lands in a list of in-flight
``(src, dst, payload)`` messages, and Hypothesis picks which one is
delivered next, which are lost, when the clock moves, when a term starts
(and which members hear of it), and which peer crashes or restarts.  A
crash runs the b-peer's own crash path, ``ExactlyOnce.reset(crash=True)``:
``DONE`` entries and the write intents recorded for other peers survive;
the crashed peer's own in-flight markers, intent rounds and parked
retries do not.

The group starts settled: peer 0 won term 1 and everyone heard it.
Requests arrive straight from a proxy that numbers the attempts of each
invocation and sends each to the winner of the latest term (its binding)
or to any peer, at any time (the per-attempt timeout lets a retry overlap
the attempt it replaces).  A peer serves like ``BPeer``: journal answer,
redirect unless coordinator, park, begin, commit barrier, execute,
complete.  The spec, checked after every step:

* at most one distinct ``DONE`` reply per invocation id across all
  journals;
* every result the proxy receives equals that canonical reply, except
  ``request_id`` / ``deduped``;
* a mutating invocation proceeds past the barrier only with acks from a
  majority of the all-time roster;
* a mutating invocation is applied at most once across peers.
"""

from __future__ import annotations

import dataclasses

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.bpeer import ExecReply, ExecRequest
from repro.core.journal import ExactlyOnce
from repro.p2p.ids import PeerGroupId, PeerId
from repro.p2p.peergroup import PeerGroupView
from repro.simnet import Environment, MessageTrace, Network, RngRegistry
from repro.simnet.events import Interrupt

INVOCATIONS = ("inv-a", "inv-b")
#: Simulated seconds between a passed barrier and the effect (BPeer's
#: service time): a crash inside it abandons the execution.
SERVICE_TIME = 0.01
GROUP = PeerGroupId.from_name("model-group")


class _Elector:
    """What the protocol reads of the Bully elector."""

    def __init__(self, coordinator):
        self.coordinator = coordinator
        self.max_epoch_seen = 0

    def observe_external_epoch(self, epoch) -> None:
        self.max_epoch_seen = max(self.max_epoch_seen, epoch)
        if self.coordinator.is_coordinator and epoch > self.coordinator.epoch:
            self.coordinator.is_coordinator = False  # steps down to re-elect


class _Coordinator:
    """What the protocol reads of ``GroupCoordinator``; terms are ints."""

    def __init__(self):
        self.epoch = 0
        self.is_coordinator = False
        self.elector = _Elector(self)


class ExactlyOnceModel(RuleBasedStateMachine):
    @initialize(size=st.integers(min_value=3, max_value=5))
    def deploy(self, size):
        self.env = Environment()
        network = Network(self.env, trace=MessageTrace(), rng=RngRegistry(1))
        self.nodes = [network.add_host(f"peer-{index}") for index in range(size)]
        self.ids = [PeerId.from_name(node.name) for node in self.nodes]
        self.index = {peer_id: index for index, peer_id in enumerate(self.ids)}
        view = PeerGroupView(GROUP, "model-group", members=set(self.ids))
        self.coordinators = [_Coordinator() for _ in self.nodes]
        self.inflight = []
        self.received = []  # (invocation id, reply) the proxy was sent
        self.applied = {invocation: [] for invocation in INVOCATIONS}
        self.attempts = dict.fromkeys(INVOCATIONS, 0)
        self.intents = {}  # (origin index, invocation id) -> tokens sent
        self.acks = {}  # (origin index, token) -> members that acked
        self.last_epoch = 0
        self.bound = 0  # the latest term's winner: where the proxy sends
        self.protocols = []
        for index, node in enumerate(self.nodes):
            protocol = ExactlyOnce(
                node, self.ids[index], self.coordinators[index],
                view=lambda: view,
                tell=self._sender(index),
                reply=lambda request, reply: self.received.append(
                    (request.invocation_id, reply)
                ),
                busy=self._busy_for(index),
                mutating=True, capacity=4096,
            )  # fmt: skip
            node.on_crash(lambda _node, protocol=protocol: protocol.reset(crash=True))
            self.protocols.append(protocol)
        self.new_term(winner=0, heard=set(range(size)))

    def _sender(self, index):
        def tell(member, payload, size_bytes):
            if payload[0] == "intent":
                _mode, token, invocation_id, _epoch, _origin = payload
                tokens = self.intents.setdefault((index, invocation_id), [])
                if token not in tokens:
                    tokens.append(token)
            self.inflight.append((index, self.index[member], payload))
            return True

        return tell

    def _busy_for(self, index):
        def busy(request, retry_after=None):
            return ExecReply(
                request_id=request.request_id,
                kind="busy",
                retry_after=0.1 if retry_after is None else retry_after,
                epoch=self.coordinators[index].epoch,
                invocation_id=request.invocation_id,
            )

        return busy

    def _settle(self):
        """Run everything due now; the clock moves by one nanosecond.  (A
        ``step`` loop cannot stop at "now": an answered ``Wait``'s dead
        deadline entry makes ``peek`` say now while ``step`` pops on.)"""
        self.env.run(until=self.env.now + 1e-9)

    # -- the proxy and the serving peer -----------------------------------------------

    @rule(invocation=st.sampled_from(INVOCATIONS), peer=st.none() | st.integers(0, 4))
    def send_attempt(self, invocation, peer):
        """``peer=None``: to the proxy's binding, the latest term's winner."""
        index = self.bound if peer is None else peer % len(self.nodes)
        self.attempts[invocation] += 1
        request = ExecRequest(
            request_id=sum(self.attempts.values()),
            group_id=GROUP,
            operation="Enroll",
            arguments={},
            reply_to=self.ids[index],
            reply_addr=None,
            invocation_id=invocation,
            attempt=self.attempts[invocation],
        )
        protocol = self.protocols[index]
        if not self.nodes[index].up or protocol.answer(request):
            return
        if not self.coordinators[index].is_coordinator:
            return  # BPeer redirects
        if not protocol.park(request):
            protocol.begin(request)
            self.nodes[index].spawn(self._serve(index, request))
        self._settle()

    def _serve(self, index, request):
        protocol = self.protocols[index]
        key = (index, request.invocation_id)
        sent_before = len(self.intents.get(key, ()))
        try:
            blocked = yield from protocol.barrier(request)
            if blocked is not None:
                protocol.reply(request, blocked)
                return
            tokens = self.intents.get(key, [])[sent_before:]
            acks = self.acks.get((index, tokens[0]), set()) if tokens else set()
            assert 2 * (len(acks) + 1) > len(self.nodes), (
                f"peer-{index} passed the barrier for {request.invocation_id} "
                f"with {len(acks)} remote ack(s) of {len(self.nodes)} replicas"
            )
            yield self.env.timeout(SERVICE_TIME)
        except Interrupt:
            return  # crashed before the effect
        executions = self.applied[request.invocation_id]
        executions.append(index)
        result = ExecReply(
            request_id=request.request_id,
            kind="result",
            value=f"{request.invocation_id} applied by peer-{index} (#{len(executions)})",
            served_by=f"peer-{index}",
        )
        protocol.reply(request, protocol.complete(request, result))

    # -- the network, the clock, terms and crashes ------------------------------------

    @rule(pick=st.integers(min_value=0))
    def deliver(self, pick):
        if not self.inflight:
            return
        src, dst, payload = self.inflight.pop(pick % len(self.inflight))
        if payload[0] == "intent-reply":
            _mode, token, status, extra, _seen = payload
            if status == "ok" or (status == "held" and extra == self.ids[dst]):
                self.acks.setdefault((dst, token), set()).add(src)
        if self.nodes[dst].up:
            self.protocols[dst].handlers[payload[0]](payload, self.ids[src])
        self._settle()

    @rule(pick=st.integers(min_value=0))
    def lose(self, pick):
        if self.inflight:
            self.inflight.pop(pick % len(self.inflight))

    @rule(seconds=st.sampled_from((0.05, 0.2, 0.5, 1.0, 2.5)))
    def tick(self, seconds):
        self.env.run(until=self.env.now + seconds)

    @rule(winner=st.integers(0, 4), heard=st.sets(st.integers(0, 4)))
    def new_term(self, winner, heard):
        """``winner`` mints a fresh term; it and the members in ``heard``
        receive the announcement (the rest keep the term they knew)."""
        winner %= len(self.nodes)
        if not self.nodes[winner].up:
            return
        self.last_epoch += 1
        self.bound = winner
        for index in sorted({winner} | {member % len(self.nodes) for member in heard}):
            if not self.nodes[index].up:
                continue
            coordinator = self.coordinators[index]
            coordinator.epoch = self.last_epoch
            coordinator.elector.max_epoch_seen = self.last_epoch
            coordinator.is_coordinator = index == winner
            self.protocols[index].start_term(self.ids[winner])
        self._settle()

    @rule(peer=st.integers(0, 4))
    def crash(self, peer):
        index = peer % len(self.nodes)
        self.nodes[index].crash()
        self.coordinators[index].is_coordinator = False
        self._settle()

    @rule(peer=st.integers(0, 4))
    def restart(self, peer):
        self.nodes[peer % len(self.nodes)].restart()

    # -- the spec ---------------------------------------------------------------------

    def _canonical(self):
        """Invocation id -> the distinct DONE replies held across journals."""
        done = {}
        for protocol in self.protocols:
            for invocation in INVOCATIONS:
                entry = protocol.journal.lookup(invocation)
                if entry is not None and entry.done:
                    done.setdefault(invocation, set()).add(_comparable(entry.reply))
        return done

    @invariant()
    def one_done_reply_per_invocation(self):
        for invocation, replies in self._canonical().items():
            assert len(replies) == 1, (invocation, replies)

    @invariant()
    def every_result_is_the_canonical_reply(self):
        canonical = self._canonical()
        for invocation, reply in self.received:
            if reply.kind == "result":
                assert canonical.get(invocation) == {_comparable(reply)}, (invocation, reply)

    @invariant()
    def applied_at_most_once(self):
        for invocation, executions in self.applied.items():
            assert len(executions) <= 1, f"{invocation} applied by peers {executions}"


def _step(model, mode, lose=False, **where):
    """Deliver (or lose) the first in-flight ``mode`` message whose ``src`` /
    ``dst`` peer indices match ``where``."""
    for pick, (src, dst, payload) in enumerate(model.inflight):
        if payload[0] == mode and where.get("src", src) == src and where.get("dst", dst) == dst:
            return model.lose(pick) if lose else model.deliver(pick)
    raise AssertionError(f"no in-flight {mode} {where}")


def test_a_restarted_member_keeps_the_intents_it_recorded():
    """Peer 1 records peer 0's write intent and acks it; peer 0 applies, and
    its DONE broadcast is lost.  Peer 1 crashes and restarts.  Peer 2, the
    coordinator of a term only it heard of, whose takeover sync both members
    already answered, then runs the retry's barrier.  Had the crash wiped
    the intent peer 1 acked, its "ok" would be peer 2's majority and the
    effect would be applied twice; it answers "held" instead, and peer 0's
    "done" turns the retry into a replay."""
    model = ExactlyOnceModel()
    model.deploy(size=3)  # peer 0 coordinates term 1
    model.new_term(winner=2, heard=set())
    for member in (0, 1):
        _step(model, "journal-pull", src=2, dst=member)
        _step(model, "journal-sync-reply", src=member, dst=2)
    model.send_attempt(invocation="inv-a", peer=0)
    _step(model, "intent", src=0, dst=1)
    _step(model, "intent", src=0, dst=2, lose=True)
    _step(model, "intent-reply", src=1, dst=0)
    model.tick(0.05)
    for member in (1, 2):
        _step(model, "journal", src=0, dst=member, lose=True)
    model.crash(1)
    model.restart(1)
    model.send_attempt(invocation="inv-a", peer=2)
    _step(model, "intent", src=2, dst=1)
    _step(model, "intent-reply", src=1, dst=2)
    model.tick(0.05)
    assert model.applied == {"inv-a": [0], "inv-b": []}
    _step(model, "intent", src=2, dst=0)
    _step(model, "intent-reply", src=0, dst=2)
    model.applied_at_most_once()
    model.one_done_reply_per_invocation()
    model.every_result_is_the_canonical_reply()
    assert [(reply.kind, reply.deduped) for _inv, reply in model.received] == [
        ("result", False), ("result", True),
    ]  # fmt: skip


def _comparable(reply: ExecReply) -> tuple:
    """Every field of a reply but the per-attempt ``request_id``/``deduped``."""
    return dataclasses.astuple(dataclasses.replace(reply, request_id=0, deduped=False))


ExactlyOnceModel.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None, derandomize=True,
    database=None,
)  # fmt: skip
TestExactlyOnceModel = ExactlyOnceModel.TestCase
