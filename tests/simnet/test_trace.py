"""Unit tests for the message trace / RTT monitor."""

from repro.obs import MetricsRegistry
from repro.simnet import MessageTrace, Message


def _msg(category="data", size=100):
    return Message(src=("a", 1), dst=("b", 2), payload=None,
                   category=category, size_bytes=size)


class TestCounters:
    def test_send_deliver_counts(self):
        trace = MessageTrace()
        message = _msg()
        trace.on_send(0.0, message)
        trace.on_deliver(0.001, message)
        snapshot = trace.snapshot()
        assert snapshot["sent"] == 1
        assert snapshot["delivered"] == 1
        assert snapshot["dropped"] == 0
        assert snapshot["bytes"] == 100

    def test_category_breakdown(self):
        trace = MessageTrace()
        for category in ("election", "election", "heartbeat"):
            trace.on_send(0.0, _msg(category))
        assert trace.category_breakdown() == {"election": 2, "heartbeat": 1}

    def test_metrics_mirror_binds_on_assignment(self):
        trace, registry = MessageTrace(), MetricsRegistry()
        message = _msg(size=40)
        trace.on_send(0.0, message)  # before wiring: trace only
        trace.metrics = registry
        assert trace.metrics is registry
        trace.on_send(0.0, message)
        trace.on_deliver(0.1, message)
        trace.on_drop(0.2, message)
        values = {name: counter.value for name, counter in registry.counters.items()}
        assert values == {
            "net.sent": 1, "net.bytes": 40, "net.delivered": 1, "net.dropped": 1,
        }
        trace.metrics = None
        trace.on_send(0.3, message)
        assert registry.counters["net.sent"].value == 1

    def test_reset_zeroes_counters_and_completed_samples(self):
        trace = MessageTrace()
        trace.on_send(0.0, _msg())
        trace.stamp_request(1, 0.0)
        trace.stamp_reply(1, 0.5)
        trace.reset()
        assert trace.snapshot() == {"sent": 0, "delivered": 0, "dropped": 0, "bytes": 0}
        assert trace.rtts() == []

    def test_reset_preserves_inflight_rtt_stamps(self):
        """A request in flight across a warm-up reset still yields its
        RTT sample — reset() only clears *completed* observations."""
        trace = MessageTrace()
        trace.stamp_request(1, 10.0)
        trace.reset()
        trace.stamp_reply(1, 11.5)
        assert trace.rtts() == [1.5]
        samples = trace.rtt_samples
        assert samples[0].request_at == 10.0 and samples[0].reply_at == 11.5

    def test_detailed_records_opt_in(self):
        detailed = MessageTrace(record_details=True)
        lean = MessageTrace(record_details=False)
        message = _msg()
        for trace in (detailed, lean):
            trace.on_send(0.0, message)
            trace.on_drop(0.1, message, reason="test")
        assert len(detailed.records) == 2
        assert detailed.records[1].event == "drop"
        assert lean.records == []


class TestRttMonitor:
    def test_stamps_pair_into_sample(self):
        trace = MessageTrace()
        trace.stamp_request(7, 1.0)
        trace.stamp_reply(7, 1.0005)
        rtts = trace.rtts()
        assert len(rtts) == 1
        assert abs(rtts[0] - 0.0005) < 1e-12

    def test_reply_without_request_ignored(self):
        trace = MessageTrace()
        trace.stamp_reply(9, 5.0)
        assert trace.rtts() == []

    def test_interleaved_correlations(self):
        trace = MessageTrace()
        trace.stamp_request(1, 0.0)
        trace.stamp_request(2, 0.1)
        trace.stamp_reply(2, 0.3)
        trace.stamp_reply(1, 0.5)
        samples = {s.correlation_id: s.rtt for s in trace.rtt_samples}
        assert samples[1] == 0.5
        assert abs(samples[2] - 0.2) < 1e-12

    def test_cancelled_request_leaves_nothing_pending(self):
        """A caller that gives up (timeout, crash) releases its stamp: no
        sample, no entry left behind, and a late reply is ignored."""
        trace = MessageTrace()
        trace.stamp_request(1, 0.0)
        trace.stamp_request(2, 0.1)
        trace.cancel_request(1)
        trace.cancel_request(99)  # never stamped: a no-op
        trace.stamp_reply(1, 0.5)
        trace.stamp_reply(2, 0.4)
        trace.cancel_request(2)  # already answered: a no-op
        assert [sample.correlation_id for sample in trace.rtt_samples] == [2]
        assert trace._pending_rtt == {}

    def test_duplicate_reply_not_double_counted(self):
        trace = MessageTrace()
        trace.stamp_request(1, 0.0)
        trace.stamp_reply(1, 0.1)
        trace.stamp_reply(1, 0.2)
        assert len(trace.rtts()) == 1
