"""Property-based tests for the autoscaling controller.

Two layers:

* the pure :class:`~repro.core.autoscale.AutoscalePolicy` driven with
  Hypothesis-generated bursty pressure traces — replica bounds, cooldown
  hysteresis, and quiescence must hold for *any* trace; and
* the live :class:`~repro.core.autoscale.AutoscalingGroup` on the simnet
  under forced retirements racing a workload — no in-flight work may be
  stranded (every retirement drains clean) and exactly-once must hold
  over every backend effect ledger.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workload import PoissonWorkload
from repro.check.invariants import (
    autoscale_violations,
    exactly_once_violations,
    retirement_violations,
)
from repro.core.autoscale import AutoscalePolicy, AutoscaleSpec
from repro.core.config import ScenarioConfig
from repro.core.system import WhisperSystem


# -- the pure policy under synthetic traces ------------------------------------------

specs = st.builds(
    AutoscaleSpec,
    min_replicas=st.integers(min_value=1, max_value=3),
    max_replicas=st.integers(min_value=3, max_value=10),
    high_watermark=st.floats(min_value=1.0, max_value=6.0),
    low_watermark=st.floats(min_value=0.05, max_value=0.9),
    cooldown=st.floats(min_value=0.0, max_value=5.0),
    interval=st.floats(min_value=0.25, max_value=1.0),
    smoothing=st.floats(min_value=0.1, max_value=1.0),
)

#: Bursty pressure traces: long quiet stretches, sharp spikes, zeros.
pressures = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=2.0, max_value=50.0),
    ),
    min_size=1,
    max_size=200,
)


def drive(spec: AutoscaleSpec, trace):
    """Run the policy over a trace; return (active history, decisions)."""
    policy = AutoscalePolicy(spec)
    active = spec.min_replicas
    history, decisions = [], []
    for step, pressure in enumerate(trace):
        now = step * spec.interval
        decision = policy.decide(pressure, active, now)
        if decision == "up":
            active += 1
        elif decision == "down":
            active -= 1
        if decision is not None:
            decisions.append((now, decision))
        history.append(active)
    return history, decisions


@settings(max_examples=200, deadline=None)
@given(spec=specs, trace=pressures)
def test_policy_respects_bounds(spec, trace):
    history, _decisions = drive(spec, trace)
    assert all(spec.min_replicas <= active <= spec.max_replicas for active in history)


@settings(max_examples=200, deadline=None)
@given(spec=specs, trace=pressures)
def test_policy_cooldown_hysteresis(spec, trace):
    """At most one scale decision per cooldown window, whatever the trace."""
    _history, decisions = drive(spec, trace)
    for (earlier, _), (later, _) in zip(decisions, decisions[1:]):
        assert later - earlier >= spec.cooldown - 1e-9


@settings(max_examples=200, deadline=None)
@given(spec=specs, trace=pressures)
def test_policy_quiesces_to_floor(spec, trace):
    """A long dead-quiet tail always walks the group back to the floor."""
    # Enough zero-pressure samples to drain the EWMA *and* step down from
    # the ceiling one cooldown at a time.
    steps_per_cooldown = int(spec.cooldown / spec.interval) + 1
    tail = [0.0] * (
        (spec.max_replicas - spec.min_replicas + 1) * (steps_per_cooldown + 60)
    )
    history, _decisions = drive(spec, list(trace) + tail)
    assert history[-1] == spec.min_replicas


@settings(max_examples=200, deadline=None)
@given(spec=specs, trace=pressures)
def test_policy_never_scales_against_the_signal(spec, trace):
    """Ups need smoothed pressure at/above high, downs at/below low."""
    policy = AutoscalePolicy(spec)
    active = spec.min_replicas
    for step, pressure in enumerate(trace):
        decision = policy.decide(pressure, active, step * spec.interval)
        if decision == "up":
            assert policy.smoothed >= spec.high_watermark
            active += 1
        elif decision == "down":
            assert policy.smoothed <= spec.low_watermark
            active -= 1


# -- the live controller: retirement never strands work ------------------------------

@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=30))
def test_forced_retirements_never_strand_work(seed):
    """Forced scale-downs racing a live workload drain clean.

    Every retirement record must show an empty queue, no in-flight
    execution, and no parked duplicates at shutdown; exactly-once must
    hold over every backend ledger (retired replicas included); and the
    controller must respect its bounds throughout.
    """
    spec = AutoscaleSpec(
        min_replicas=2,
        max_replicas=5,
        cooldown=0.5,
        interval=0.25,
        drain_timeout=10.0,
    )
    system = WhisperSystem(
        ScenarioConfig(
            seed=seed,
            replicas=4,
            students=40,
            load_sharing=True,
            autoscale=spec,
        )
    )
    service = system.deploy_student_service()
    system.settle(6.0)
    controller = service.autoscalers[0]

    workload = PoissonWorkload(
        system,
        service.address,
        service.path,
        "StudentInformation",
        rate=120.0,
        duration=4.0,
        call_timeout=10.0,
        arguments=lambda index: {"ID": f"S{(index % 40) + 1:05d}"},
    )

    def retire_twice():
        yield system.env.timeout(0.8)
        controller.force_scale_down()
        yield system.env.timeout(1.2)
        controller.force_scale_down()

    controller.node.spawn(retire_twice(), name="forced-retirements")
    result = workload.run()
    system.settle(2.0)

    assert len(controller.retirements) >= 1, "no retirement completed"
    # Bounded audit logs; the ``autoscale.*`` counters are the totals.
    assert controller.events.maxlen == controller.retirements.maxlen == 8192
    downs = sum(event.direction == "down" for event in controller.events)
    assert system.obs.metrics.counter("autoscale.scale_down").value == downs
    assert retirement_violations([controller]) == []
    assert autoscale_violations([controller]) == []
    assert exactly_once_violations(service.all_peers()) == []
    # The workload itself survived the retirements.
    assert result.requests > 0
    assert result.availability >= 0.95
