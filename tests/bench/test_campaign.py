"""Property-style tests for the seeded fault-campaign runner."""

import pytest

from repro.bench.campaign import FaultCampaign


def _run(seed, **kwargs):
    defaults = dict(duration=45.0, replicas=4, mtbf=20.0, mttr=8.0, partitions=1)
    defaults.update(kwargs)
    return FaultCampaign(seed=seed, **defaults).run()


class TestInvariants:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_invariants_hold_across_seeds(self, seed):
        report = _run(seed)
        assert report.ok, report.violations
        assert report.probes > 0
        assert 0.0 < report.availability <= 1.0
        # Faults actually happened and recovery actually ran.
        assert report.crashes > 0
        assert report.epochs_announced >= 1
        assert report.live_coordinators <= 1

    def test_campaign_is_deterministic_per_seed(self):
        first = _run(13)
        second = _run(13)
        assert first.probes_ok == second.probes_ok
        assert first.probes_failed == second.probes_failed
        assert first.crashes == second.crashes
        assert first.restarts == second.restarts
        assert first.epochs_announced == second.epochs_announced
        assert first.rebinds == second.rebinds
        assert first.violations == second.violations

    def test_quiet_campaign_masks_everything(self):
        """With no injected faults every probe must succeed."""
        report = _run(5, mtbf=1e9, partitions=0)
        assert report.ok
        assert report.crashes == 0
        assert report.probes_failed == 0
        assert report.availability == 1.0

