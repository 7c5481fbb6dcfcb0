"""The cooldown and the scale-event record run on one clock (PR 24).

A retirement drains for as long as it takes; ``AutoscalePolicy`` starts
its cooldown at the *decision*.  A :class:`ScaleEvent` stamped at the
retirement's completion therefore landed arbitrarily close to the next
(legal) decision's event — ``check --capacity`` seed47/0, "scale events at
22.800 and 23.600 violate the 2.0s cooldown".  The event now carries the
decision instant; ``RetirementRecord.at`` remains the completion.
"""

from repro.check.invariants import autoscale_violations
from repro.core import ScenarioConfig, WhisperSystem
from repro.core.autoscale import AutoscaleSpec


def test_slow_retirement_then_scale_up_respects_the_cooldown():
    spec = AutoscaleSpec(
        min_replicas=2,
        max_replicas=4,
        cooldown=2.0,
        interval=0.5,
        drain_settle=1.5,  # the retirement completes ~1.5 s after its decision
    )
    system = WhisperSystem(ScenarioConfig(seed=3, replicas=3, autoscale=spec))
    service = system.deploy_student_service()
    (controller,) = service.autoscalers
    # The demand signal, scripted: idle until the retirement completes,
    # then pressure well above the high watermark.
    controller.pressure = lambda: 10.0 if controller.retirements else 0.0
    system.settle(8.0)

    assert autoscale_violations([controller]) == []
    down, up = [event for event in controller.events if not event.forced][:2]
    assert (down.direction, up.direction) == ("down", "up")
    assert up.at - down.at >= spec.cooldown
    # ... and the case is the one meant: decided at t, completed at t + 1.5,
    # the next demand inside a cooldown of the completion.
    (retirement,) = controller.retirements
    assert retirement.at - down.at >= 1.5
    assert up.at - retirement.at < spec.cooldown
