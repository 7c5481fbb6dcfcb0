"""``LogNormalLatency`` against the stdlib call it writes out.

The model runs ``Random.normalvariate``'s Kinderman–Monahan loop inline; it
must return ``max(floor, rng.lognormvariate(mu, sigma))`` draw for draw and
leave the generator in the same state, or every seeded run (digest pins,
fixtures, the simulated bench metrics) would move.
"""

import math
import random

import pytest

from repro.simnet import LogNormalLatency, lan_latency, parse_latency_spec

SEEDS = range(1000)
DRAWS = 12

MODELS = {
    "lan": lan_latency(),
    "sigma-0": LogNormalLatency(median=0.0002, sigma=0.0),
    "floor-above-median": LogNormalLatency(median=0.0002, sigma=0.25, floor=0.00025),
    "spec-lognormal-40ms-15ms": parse_latency_spec("lognormal:40ms±15ms"),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_equals_lognormvariate_draw_for_draw(name):
    model = MODELS[name]
    mu = math.log(model.median)
    floored = 0
    for seed in SEEDS:
        inline, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(DRAWS):
            expected = max(model.floor, stdlib.lognormvariate(mu, model.sigma))
            assert model(inline) == expected, (seed, name)
            floored += expected == model.floor
        assert inline.getstate() == stdlib.getstate(), (seed, name)
    if name == "floor-above-median":
        assert 0 < floored < len(SEEDS) * DRAWS  # both branches of the floor ran
