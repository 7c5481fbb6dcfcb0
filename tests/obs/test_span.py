"""Unit tests for Span / RequestTrace nesting and aggregation."""

from repro.obs import RequestTrace, Span


class TestSpan:
    def test_duration_only_after_finish(self):
        span = Span("bind", start=1.0)
        assert not span.finished
        assert span.duration is None
        span.finish(1.5)
        assert span.finished
        assert span.duration == 0.5

    def test_finish_is_idempotent(self):
        span = Span("invoke", start=0.0)
        span.finish(2.0)
        span.finish(99.0)
        assert span.end == 2.0

    def test_finish_merges_tags(self):
        span = Span("invoke", start=0.0, tags={"attempt": 1})
        span.finish(1.0, outcome="ok")
        assert span.tags == {"attempt": 1, "outcome": "ok"}

    def test_child_nesting(self):
        root = Span("request", start=0.0)
        recover = root.child("recover", 1.0)
        retry_bind = recover.child("bind", 1.1)
        assert recover.children == [retry_bind]
        assert root.children == [recover]
        assert recover in root.children
        assert retry_bind in recover.children

    def test_walk_depth_first(self):
        root = Span("request", start=0.0)
        a = root.child("discover", 0.0)
        b = root.child("invoke", 1.0)
        a_child = a.child("bind", 0.5)
        assert [s.name for s in root.walk()] == [
            "request", "discover", "bind", "invoke",
        ]
        assert a_child in list(root.walk())
        assert b in list(root.walk())

    def test_to_dict_nests_children(self):
        root = Span("request", start=0.0)
        root.child("discover", 0.0).finish(0.2)
        root.finish(1.0)
        data = root.to_dict()
        assert data["duration"] == 1.0
        assert data["children"][0]["name"] == "discover"
        assert data["children"][0]["duration"] == 0.2

    def test_format_indents_children(self):
        root = Span("request", start=0.0)
        root.child("bind", 0.1).finish(0.2)
        root.finish(1.0)
        lines = root.format().splitlines()
        assert lines[0].startswith("request")
        assert lines[1].startswith("  bind")


class TestRequestTrace:
    def test_phase_durations_sum_per_phase(self):
        trace = RequestTrace("Svc.Op", request_id=1, now=0.0)
        trace.begin("invoke", 0.0).finish(2.0)   # timed-out attempt
        trace.begin("bind", 2.0).finish(2.5)
        trace.begin("invoke", 2.5).finish(3.0)   # successful retry
        trace.finish(3.0)
        durations = trace.phase_durations()
        assert durations["invoke"] == 2.5
        assert durations["bind"] == 0.5
        assert "request" not in durations  # root excluded

    def test_nested_spans_counted_in_phase_durations(self):
        trace = RequestTrace("Svc.Op", request_id=2, now=0.0)
        recover = trace.begin("recover", 1.0)
        trace.begin("bind", 1.1, parent=recover).finish(1.6)
        recover.finish(3.0)
        trace.finish(3.0)
        durations = trace.phase_durations()
        assert durations["recover"] == 2.0
        assert durations["bind"] == 0.5

    def test_finish_closes_open_spans_and_stamps_status(self):
        trace = RequestTrace("Svc.Op", request_id=3, now=0.0)
        dangling = trace.begin("invoke", 0.5)
        trace.finish(4.0, status="SoapFault")
        assert trace.status == "SoapFault"
        assert trace.root.tags["status"] == "SoapFault"
        assert dangling.finished and dangling.end == 4.0
        assert trace.duration == 4.0

    def test_to_dict_roundtrips_identity(self):
        trace = RequestTrace("Svc.Op", request_id=7, now=1.0)
        trace.begin("discover", 1.0).finish(1.1)
        trace.finish(2.0)
        data = trace.to_dict()
        assert data["operation"] == "Svc.Op"
        assert data["request_id"] == 7
        assert data["status"] == "ok"
        assert data["root"]["children"][0]["name"] == "discover"
