"""Unit tests for RNG streams and latency models."""

import random

import pytest

from repro.simnet import (
    ConstantLatency,
    LogNormalLatency,
    RngRegistry,
    UniformLatency,
    lan_latency,
)


class TestRngRegistry:
    def test_same_name_same_stream(self):
        registry = RngRegistry(1)
        assert registry.stream("x") is registry.stream("x")

    def test_streams_reproducible_across_registries(self):
        a = RngRegistry(1).stream("net")
        b = RngRegistry(1).stream("net")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_independent_of_creation_order(self):
        first = RngRegistry(1)
        first.stream("alpha")
        alpha_then_beta = first.stream("beta").random()
        second = RngRegistry(1)
        beta_only = second.stream("beta").random()
        assert alpha_then_beta == beta_only

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.001)
        assert model(random.Random(0)) == 0.001

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_within_bounds(self):
        model = UniformLatency(0.001, 0.002)
        rng = random.Random(0)
        for _ in range(100):
            assert 0.001 <= model(rng) <= 0.002

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformLatency(0.002, 0.001)

    def test_lognormal_respects_floor(self):
        model = LogNormalLatency(median=0.0001, sigma=2.0, floor=0.00009)
        rng = random.Random(0)
        assert all(model(rng) >= 0.00009 for _ in range(200))

    def test_lognormal_median_roughly_correct(self):
        model = LogNormalLatency(median=0.001, sigma=0.3)
        rng = random.Random(42)
        samples = sorted(model(rng) for _ in range(2001))
        median = samples[1000]
        assert 0.0008 < median < 0.0012

    def test_lognormal_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LogNormalLatency(median=0)
        with pytest.raises(ValueError):
            LogNormalLatency(median=1, sigma=-1)

    def test_lan_model_produces_sub_millisecond_delays(self):
        model = lan_latency()
        rng = random.Random(7)
        samples = [model(rng) for _ in range(1000)]
        mean = sum(samples) / len(samples)
        assert 0.0001 < mean < 0.0005
