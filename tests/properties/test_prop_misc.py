"""Property-based tests: stats, QoS aggregation, schema, cache, kernel."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bench import linear_fit, percentile, summarize
from repro.qos import QosMetrics, QosSelector, parallel, sequence
from repro.simnet import Environment, Store

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(min_value=1e-6, max_value=1e6)


class TestStatsProperties:
    @given(values=st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_percentiles_bounded_and_monotone(self, values):
        p25 = percentile(values, 25)
        p50 = percentile(values, 50)
        p75 = percentile(values, 75)
        assert min(values) <= p25 <= p50 <= p75 <= max(values)

    @given(values=st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_summary_internally_consistent(self, values):
        summary = summarize(values)
        assert summary.minimum <= summary.mean <= summary.maximum
        assert summary.minimum <= summary.p50 <= summary.p95 <= summary.p99
        assert summary.stdev >= 0
        assert summary.count == len(values)

    @given(
        slope=st.floats(min_value=-100, max_value=100, allow_nan=False),
        intercept=st.floats(min_value=-100, max_value=100, allow_nan=False),
        xs=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2, max_size=20, unique=True,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_fit_recovers_exact_line(self, slope, intercept, xs):
        # Near-coincident x values make the fit numerically meaningless
        # (the ys collapse to equal floats); require a real spread.
        assume(max(xs) - min(xs) > 1e-3)
        ys = [slope * x + intercept for x in xs]
        fit = linear_fit(xs, ys)
        assert math.isclose(fit.slope, slope, rel_tol=1e-6, abs_tol=1e-5)
        assert math.isclose(fit.intercept, intercept, rel_tol=1e-6, abs_tol=1e-3)
        assert fit.r_squared > 1 - 1e-9


qos_metrics = st.builds(
    QosMetrics,
    time=st.floats(min_value=0, max_value=100),
    cost=st.floats(min_value=0, max_value=100),
    reliability=st.floats(min_value=0, max_value=1),
)


class TestQosProperties:
    @given(parts=st.lists(qos_metrics, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_aggregation_invariants(self, parts):
        seq = sequence(parts)
        par = parallel(parts)
        assert seq.time >= par.time  # sequential is never faster
        assert math.isclose(seq.cost, par.cost, rel_tol=1e-9)
        assert math.isclose(seq.reliability, par.reliability, rel_tol=1e-9)
        assert 0 <= seq.reliability <= 1
        # Reliability never improves by adding stages.
        assert seq.reliability <= min(p.reliability for p in parts) + 1e-12

    @given(candidates=st.dictionaries(
        st.text(min_size=1, max_size=5), qos_metrics, min_size=1, max_size=8
    ))
    @settings(max_examples=100, deadline=None)
    def test_selector_total_and_bounded(self, candidates):
        selector = QosSelector()
        scored = selector.score_all(candidates)
        assert len(scored) == len(candidates)
        assert all(0 <= score <= 1 for _k, score in scored)
        assert selector.select(candidates) in candidates


class TestKernelProperties:
    @given(delays=st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        min_size=1, max_size=30,
    ))
    @settings(max_examples=60, deadline=None)
    def test_timeouts_fire_in_nondecreasing_order(self, delays):
        env = Environment()
        fired = []
        for delay in delays:
            timeout = env.timeout(delay, value=delay)
            timeout.add_callback(lambda e: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(items=st.lists(st.integers(), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_store_preserves_fifo_content(self, items):
        env = Environment()
        store = Store(env)
        for item in items:
            store.put(item)
        got = []

        def consumer():
            for _ in range(len(items)):
                got.append((yield store.get()))

        process = env.process(consumer())
        if items:
            env.run(until=process)
        assert got == items


class TestCacheProperties:
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d", "e"]),
                st.floats(min_value=0.1, max_value=100),
            ),
            max_size=20,
        ),
        probe_time=st.floats(min_value=0, max_value=120),
    )
    @settings(max_examples=100, deadline=None)
    def test_cache_never_returns_expired(self, entries, probe_time):
        from repro.p2p import AdvertisementCache, PeerAdvertisement, PeerId

        clock = {"now": 0.0}
        cache = AdvertisementCache(clock=lambda: clock["now"])
        expiries = {}
        for name, lifetime in entries:
            advertisement = PeerAdvertisement(
                peer_id=PeerId.from_name(name), name=name, host="h", port=1,
                lifetime=lifetime,
            )
            cache.publish(advertisement)
            expiries[advertisement.key()] = lifetime  # last publish wins
        clock["now"] = probe_time
        for advertisement in cache.query():
            assert expiries[advertisement.key()] > probe_time
