"""Unit tests for QoS metrics, aggregation, and selection."""

import pytest

from repro.qos import (
    QosMetrics,
    QosProfile,
    QosSelector,
    QosWeights,
    RandomSelector,
    conditional,
    parallel,
    sequence,
)


class TestMetrics:
    def test_valid_construction(self):
        metrics = QosMetrics(time=0.1, cost=2.0, reliability=0.95)
        assert metrics.reliability == 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time": -1, "cost": 1, "reliability": 0.5},
            {"time": 1, "cost": -1, "reliability": 0.5},
            {"time": 1, "cost": 1, "reliability": 1.5},
            {"time": 1, "cost": 1, "reliability": -0.1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QosMetrics(**kwargs)


class TestProfile:
    def test_initial_snapshot_uses_defaults(self):
        profile = QosProfile(initial_time=0.02)
        snapshot = profile.snapshot()
        assert snapshot.time == 0.02
        assert snapshot.cost == 1.0
        assert snapshot.reliability == 1.0

    def test_success_moves_time_estimate(self):
        profile = QosProfile(initial_time=0.01, alpha=0.5)
        profile.record_success(0.10)
        profile.record_success(0.10)
        assert profile.snapshot().time == pytest.approx(0.10, rel=0.01)

    def test_failures_lower_reliability(self):
        profile = QosProfile(alpha=0.5)
        for _ in range(4):
            profile.record_failure()
        assert profile.snapshot().reliability < 0.2

    def test_empirical_reliability(self):
        profile = QosProfile()
        profile.record_success(0.01)
        profile.record_failure()
        assert profile.empirical_reliability == 0.5
        assert profile.observations == 2

    def test_no_observations_empirical_is_one(self):
        assert QosProfile().empirical_reliability == 1.0


class TestAggregation:
    M1 = QosMetrics(time=1.0, cost=2.0, reliability=0.9)
    M2 = QosMetrics(time=3.0, cost=1.0, reliability=0.8)

    def test_sequence(self):
        combined = sequence([self.M1, self.M2])
        assert combined.time == 4.0
        assert combined.cost == 3.0
        assert combined.reliability == pytest.approx(0.72)

    def test_parallel(self):
        combined = parallel([self.M1, self.M2])
        assert combined.time == 3.0
        assert combined.cost == 3.0
        assert combined.reliability == pytest.approx(0.72)

    def test_conditional(self):
        combined = conditional([(0.25, self.M1), (0.75, self.M2)])
        assert combined.time == pytest.approx(0.25 * 1 + 0.75 * 3)
        assert combined.reliability == pytest.approx(0.25 * 0.9 + 0.75 * 0.8)

    def test_conditional_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            conditional([(0.5, self.M1), (0.4, self.M2)])

    def test_empty_structures_rejected(self):
        with pytest.raises(ValueError):
            sequence([])
        with pytest.raises(ValueError):
            parallel([])
        with pytest.raises(ValueError):
            conditional([])

    def test_composition_nests(self):
        inner = parallel([self.M1, self.M2])
        outer = sequence([self.M1, inner])
        assert outer.time == 1.0 + 3.0
        assert outer.reliability == pytest.approx(0.9 * 0.72)


class TestSelection:
    FAST = QosMetrics(time=0.01, cost=5.0, reliability=0.99)
    CHEAP = QosMetrics(time=0.50, cost=0.5, reliability=0.90)
    FLAKY = QosMetrics(time=0.02, cost=1.0, reliability=0.50)

    def test_time_weight_picks_fast(self):
        selector = QosSelector(QosWeights(time=1, cost=0, reliability=0))
        assert selector.select({"fast": self.FAST, "cheap": self.CHEAP}) == "fast"

    def test_cost_weight_picks_cheap(self):
        selector = QosSelector(QosWeights(time=0, cost=1, reliability=0))
        assert selector.select({"fast": self.FAST, "cheap": self.CHEAP}) == "cheap"

    def test_reliability_weight_avoids_flaky(self):
        selector = QosSelector(QosWeights(time=0, cost=0, reliability=1))
        assert selector.select({"flaky": self.FLAKY, "fast": self.FAST}) == "fast"

    def test_scores_in_unit_interval(self):
        selector = QosSelector()
        scored = selector.score_all(
            {"a": self.FAST, "b": self.CHEAP, "c": self.FLAKY}
        )
        assert all(0.0 <= score <= 1.0 for _key, score in scored)
        assert scored == sorted(scored, key=lambda p: (-p[1], str(p[0])))

    def test_single_candidate_selected(self):
        assert QosSelector().select({"only": self.FAST}) == "only"

    def test_empty_candidates(self):
        assert QosSelector().select({}) is None
        assert RandomSelector().select({}) is None

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            QosWeights(time=-1)
        with pytest.raises(ValueError):
            QosWeights(time=0, cost=0, reliability=0)

    def test_random_selector_deterministic_with_seed(self):
        import random

        candidates = {"a": self.FAST, "b": self.CHEAP}
        first = [RandomSelector(random.Random(7)).select(candidates) for _ in range(5)]
        second = [RandomSelector(random.Random(7)).select(candidates) for _ in range(5)]
        assert first == second

    def test_identical_metrics_tie_breaks_deterministically(self):
        selector = QosSelector()
        candidates = {"b": self.FAST, "a": self.FAST}
        assert selector.select(candidates) == "a"
