"""Circuit breaker: transition table and live proxy integration.

The unit half drives :class:`~repro.core.breaker.CircuitBreaker`
directly through every edge of the closed/open/half-open state machine.
The integration half crashes a whole b-peer group under a breaker-armed
proxy and checks the breaker trips, rejects locally (or degrades via a
fallback handler), and heals through a half-open probe — across seeds.
"""

import pytest

from repro.core.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerSpec,
    CircuitBreaker,
)
from repro.check.invariants import breaker_violations
from repro.core.config import ScenarioConfig
from repro.core.errors import CircuitOpenError
from repro.core.system import WhisperSystem

SPEC = BreakerSpec(window=8, min_calls=4, failure_threshold=0.5, open_duration=2.0)
#: Float roundoff guard: (t + open_duration) - t can land a hair under.
EPS = 1e-6


# -- spec validation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(window=0),
        dict(min_calls=0),
        dict(window=4, min_calls=5),
        dict(failure_threshold=0.0),
        dict(failure_threshold=1.5),
        dict(open_duration=0.0),
        dict(half_open_probes=0),
    ],
)
def test_spec_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        BreakerSpec(**kwargs)


# -- closed --------------------------------------------------------------------------


def test_closed_allows_and_stays_closed_on_success():
    breaker = CircuitBreaker(SPEC)
    for t in range(20):
        assert breaker.allow(float(t))
        breaker.record_success(float(t))
    assert breaker.state == CLOSED
    assert list(breaker.transitions) == []
    assert list(breaker.rejections) == []


def test_no_trip_below_min_calls():
    breaker = CircuitBreaker(SPEC)
    for t in range(SPEC.min_calls - 1):
        breaker.record_failure(float(t))
    assert breaker.state == CLOSED, "tripped on thin evidence"


def test_trips_at_threshold_with_min_calls():
    breaker = CircuitBreaker(SPEC)
    for t in range(SPEC.min_calls):
        breaker.record_failure(float(t))
    assert breaker.state == OPEN
    trip = breaker.transitions[-1]
    assert (trip.source, trip.target) == (CLOSED, OPEN)
    assert trip.calls >= SPEC.min_calls
    assert trip.failures / trip.calls >= SPEC.failure_threshold


def test_no_trip_below_failure_threshold():
    breaker = CircuitBreaker(SPEC)
    # Failure rate stays below 0.5 at every sample: must stay closed.
    outcomes = [True, True, True, True, True, False, True, False]
    for t, ok in enumerate(outcomes):
        if ok:
            breaker.record_success(float(t))
        else:
            breaker.record_failure(float(t))
    assert breaker.state == CLOSED


def test_window_slides_old_failures_out():
    breaker = CircuitBreaker(SPEC)
    for t in range(3):
        breaker.record_failure(float(t))
    # A run of successes pushes the early failures out of the window;
    # one more failure then lands in a healthy window and must not trip.
    for t in range(3, 3 + SPEC.window):
        breaker.record_success(float(t))
    breaker.record_failure(99.0)
    assert breaker.state == CLOSED


# -- open ----------------------------------------------------------------------------


def trip(breaker: CircuitBreaker, at: float = 0.0) -> None:
    for i in range(breaker.spec.min_calls):
        breaker.record_failure(at + i * 0.01)
    assert breaker.state == OPEN


def test_open_rejects_until_duration_elapses():
    breaker = CircuitBreaker(SPEC)
    trip(breaker, at=0.0)
    opened = breaker.transitions[-1].at
    assert not breaker.allow(opened + SPEC.open_duration / 2)
    breaker.reject(opened + SPEC.open_duration / 2)
    assert list(breaker.rejections) == [opened + SPEC.open_duration / 2]


def test_audit_logs_are_bounded_and_counters_stay_exact():
    """One entry per rejection / transition forever was a leak on long
    soaks: each log keeps its newest ``maxlen``, the counters the totals."""
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    breaker = CircuitBreaker(SPEC, metrics=metrics)
    limit = breaker.rejections.maxlen
    assert limit == breaker.transitions.maxlen
    trip(breaker, at=0.0)
    for i in range(3 * limit):
        breaker.reject(float(i))
    assert len(breaker.rejections) == limit
    assert breaker.rejections[-1] == float(3 * limit - 1)
    assert metrics.counter("breaker.rejected").value == 3 * limit
    now = breaker.transitions[-1].at
    for _ in range(limit):  # open -> half-open -> open: two transitions a lap
        now += SPEC.open_duration + EPS
        assert breaker.allow(now)
        breaker.record_failure(now)
    assert len(breaker.transitions) == limit
    assert breaker.transitions[-1].at == now
    opened = metrics.counter("breaker.open").value
    assert opened + metrics.counter("breaker.half_open").value == 2 * limit + 1
    # The trip itself was evicted: the log begins mid-span, and the
    # interval audit still covers every retained rejection.
    assert breaker.open_intervals(horizon=now + 1.0) == [(float("-inf"), now + 1.0)]


def test_open_moves_to_half_open_when_ripe():
    breaker = CircuitBreaker(SPEC)
    trip(breaker, at=0.0)
    opened = breaker.transitions[-1].at
    assert breaker.allow(opened + SPEC.open_duration + EPS)
    assert breaker.state == HALF_OPEN
    assert breaker.transitions[-1].target == HALF_OPEN


# -- half-open -----------------------------------------------------------------------


def to_half_open(breaker: CircuitBreaker) -> float:
    trip(breaker, at=0.0)
    now = breaker.transitions[-1].at + breaker.spec.open_duration + EPS
    assert breaker.allow(now)
    return now


def test_half_open_probe_success_closes_and_resets_window():
    breaker = CircuitBreaker(SPEC)
    now = to_half_open(breaker)
    breaker.record_success(now + 0.1)
    assert breaker.state == CLOSED
    assert breaker.calls_in_window == 0, "window must reset on close"
    # A single fresh failure must not re-trip off stale evidence.
    breaker.record_failure(now + 0.2)
    assert breaker.state == CLOSED


def test_half_open_probe_failure_reopens():
    breaker = CircuitBreaker(SPEC)
    now = to_half_open(breaker)
    breaker.record_failure(now + 0.1)
    assert breaker.state == OPEN
    # ...and the new open interval runs a full open_duration again.
    assert not breaker.allow(now + 0.1 + SPEC.open_duration / 2)
    assert breaker.allow(now + 0.1 + SPEC.open_duration + EPS)


def test_half_open_caps_concurrent_probes():
    spec = BreakerSpec(window=8, min_calls=4, failure_threshold=0.5,
                       open_duration=2.0, half_open_probes=2)
    breaker = CircuitBreaker(spec)
    trip(breaker, at=0.0)
    now = breaker.transitions[-1].at + spec.open_duration + EPS
    assert breaker.allow(now)        # open -> half-open, probe #1
    assert breaker.allow(now)        # probe #2
    assert not breaker.allow(now)    # over the cap
    breaker.record_success(now + 0.1)
    assert breaker.state == CLOSED


def test_open_intervals_cover_rejections():
    breaker = CircuitBreaker(SPEC)
    trip(breaker, at=1.0)
    rejected_at = breaker.transitions[-1].at + 0.5
    breaker.reject(rejected_at)
    now = breaker.transitions[-1].at + SPEC.open_duration + EPS
    assert breaker.allow(now)
    breaker.record_success(now + 0.1)
    spans = breaker.open_intervals(horizon=100.0)
    assert len(spans) == 1
    start, end = spans[0]
    assert start <= rejected_at <= end
    assert end < 100.0, "interval closed by the probe success"


def test_open_intervals_caps_trailing_span_at_horizon():
    breaker = CircuitBreaker(SPEC)
    trip(breaker, at=1.0)
    spans = breaker.open_intervals(horizon=7.0)
    assert spans[-1][1] == 7.0


# -- live proxy integration ----------------------------------------------------------


def drill_system(seed: int):
    system = WhisperSystem(
        ScenarioConfig(
            seed=seed,
            replicas=2,
            load_sharing=True,
            circuit_breaker=BreakerSpec(
                window=8, min_calls=2, failure_threshold=0.5, open_duration=2.0
            ),
            request_timeout=0.5,
            deadline_budget=2.0,
        )
    )
    service = system.deploy_student_service()
    system.settle(6.0)
    return system, service


@pytest.mark.parametrize("seed", [7, 11, 42], indirect=True)
def test_breaker_trips_rejects_and_heals(seed):
    """Dead group trips the breaker; restart heals it through a probe."""
    system, service = drill_system(seed)
    node, _soap = system.add_client("drill-client")
    outcomes = []

    def invoke(count, gap):
        for _ in range(count):
            try:
                yield from service.invoke("StudentInformation", {"ID": "S00001"})
            except CircuitOpenError:
                outcomes.append("rejected")
            except Exception:
                outcomes.append("failed")
            else:
                outcomes.append("ok")
            yield system.env.timeout(gap)

    system.run_process(invoke(3, 0.2), node=node)
    assert outcomes == ["ok", "ok", "ok"]

    for peer in service.group.peers:
        peer.node.crash()
    system.run_process(invoke(6, 0.3), node=node)
    assert "rejected" in outcomes, "breaker never tripped on a dead group"
    # Once open, rejections are local: no further timeout-burning attempts.
    assert outcomes[-1] == "rejected"

    for peer in service.group.peers:
        peer.node.restart()
    system.settle(6.0)
    system.run_process(invoke(3, 0.3), node=node)
    assert outcomes[-1] == "ok", "breaker never healed after restart"

    breaker = next(iter(service.proxy._breakers.values()))
    assert breaker.state == CLOSED
    pairs = [(t.source, t.target) for t in breaker.transitions]
    assert (CLOSED, OPEN) in pairs
    assert (OPEN, HALF_OPEN) in pairs
    assert (HALF_OPEN, CLOSED) in pairs
    assert breaker_violations(service.proxy) == []


def test_breaker_scope_is_per_advertisement():
    """One melted shard's breaker cannot blackhole a healthy sibling."""
    spec = BreakerSpec(window=8, min_calls=2, failure_threshold=0.5, open_duration=2.0)
    breaker_a = CircuitBreaker(spec, scope="svc/shard-0")
    breaker_b = CircuitBreaker(spec, scope="svc/shard-1")
    trip(breaker_a, at=0.0)
    assert breaker_a.state == OPEN
    assert breaker_b.state == CLOSED
    assert breaker_b.allow(1.0)
