"""Semantic result cache: unit semantics and live proxy integration.

The unit half drives :class:`~repro.core.rescache.SemanticResultCache`
directly — staleness bound, epoch fencing, the invalidation family, LRU
eviction, and the serve audit log.  The integration half deploys the
two-operation student service with the cache armed and checks the
read-through path end to end: identical reads hit without touching the
network, a mutating enrollment flushes the cache, the staleness bound
expires entries, and the "zero stale-epoch serves" invariant holds.
"""

import itertools

import pytest

from repro.backend import (
    student_database,
    student_enrollment,
    student_lookup_operational,
)
from repro.check.invariants import rescache_violations
from repro.core.config import ScenarioConfig
from repro.core.rescache import ResultCacheSpec, SemanticResultCache
from repro.core.result import InvokeOutcome
from repro.core.system import WhisperSystem
from repro.wsdl import student_admin_wsdl

SPEC = ResultCacheSpec(capacity=4, staleness_bound=5.0)


def store(cache, key, value="v", epoch=1, group_id="g", now=0.0, action="a:read"):
    cache.store(key, value, action=action, epoch=epoch, group_id=group_id, now=now)


# -- spec validation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs", [dict(capacity=0), dict(staleness_bound=0.0), dict(staleness_bound=-1.0)]
)
def test_spec_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        ResultCacheSpec(**kwargs)


# -- hit / miss / staleness ----------------------------------------------------------


def test_miss_then_hit():
    cache = SemanticResultCache(SPEC)
    assert cache.lookup("k", now=0.0) is None
    store(cache, "k", value={"x": 1}, now=0.0)
    entry = cache.lookup("k", now=1.0)
    assert entry is not None and entry.value == {"x": 1}
    assert (cache.hits, cache.misses) == (1, 1)


def test_staleness_bound_expires_entries():
    cache = SemanticResultCache(SPEC)
    store(cache, "k", now=0.0)
    assert cache.lookup("k", now=SPEC.staleness_bound) is not None, (
        "age == bound is still servable"
    )
    store(cache, "k2", now=0.0)
    assert cache.lookup("k2", now=SPEC.staleness_bound + 0.01) is None
    assert len(cache) == 1, "expired entry must be dropped, not kept"


def test_serve_audit_log_is_bounded():
    """One CacheServe per hit forever was a leak on long soaks: the log
    keeps the newest ``maxlen`` serves, the counters stay exact."""
    cache = SemanticResultCache(SPEC)
    store(cache, "k", now=0.0)
    limit = cache.serves.maxlen
    for _ in range(3 * limit):
        assert cache.lookup("k", now=1.0) is not None
    assert len(cache.serves) == limit
    assert cache.hits == 3 * limit


def test_serve_audit_records_age_and_epochs():
    cache = SemanticResultCache(SPEC)
    store(cache, "k", epoch=3, now=1.0)
    cache.lookup("k", now=2.5, fence_for=lambda group: 3)
    (serve,) = cache.serves
    assert serve.key == "k"
    assert serve.age == pytest.approx(1.5)
    assert serve.entry_epoch == 3
    assert serve.fence_epoch == 3
    assert cache.stale_epoch_serves == 0


# -- epoch fencing -------------------------------------------------------------------


def test_fenced_epoch_is_invalidated_not_served():
    cache = SemanticResultCache(SPEC)
    store(cache, "k", epoch=2, group_id="g", now=0.0)
    # A failover happened: the proxy has since seen epoch 3 for "g".
    entry = cache.lookup("k", now=1.0, fence_for=lambda group: 3)
    assert entry is None
    assert cache.invalidated == 1
    assert cache.stale_epoch_serves == 0
    assert len(cache) == 0


def test_equal_epoch_is_not_fenced():
    cache = SemanticResultCache(SPEC)
    store(cache, "k", epoch=3, now=0.0)
    assert cache.lookup("k", now=1.0, fence_for=lambda group: 3) is not None


# -- invalidation family -------------------------------------------------------------


def test_invalidate_all_flushes_everything():
    cache = SemanticResultCache(SPEC)
    store(cache, "a", now=0.0)
    store(cache, "b", now=0.0)
    assert cache.invalidate_all() == 2
    assert len(cache) == 0 and cache.invalidated == 2


def test_invalidate_epoch_drops_only_fenced_entries_of_group():
    cache = SemanticResultCache(SPEC)
    store(cache, "old", group_id="g", epoch=1, now=0.0)
    store(cache, "new", group_id="g", epoch=5, now=0.0)
    store(cache, "other", group_id="h", epoch=1, now=0.0)
    assert cache.invalidate_epoch("g", fence=3) == 1
    assert cache.lookup("new", now=0.1) is not None
    assert cache.lookup("other", now=0.1) is not None
    assert cache.lookup("old", now=0.1) is None


# -- LRU eviction --------------------------------------------------------------------


def test_capacity_evicts_least_recently_used():
    cache = SemanticResultCache(SPEC)  # capacity 4
    for i in range(4):
        store(cache, f"k{i}", now=0.0)
    cache.lookup("k0", now=0.1)  # refresh k0: k1 becomes the LRU
    store(cache, "k4", now=0.2)
    assert len(cache) == 4
    assert cache.lookup("k1", now=0.3) is None, "LRU entry must be evicted"
    assert cache.lookup("k0", now=0.3) is not None


# -- live proxy integration ----------------------------------------------------------


@pytest.fixture
def cached_system():
    system = WhisperSystem(
        ScenarioConfig(
            seed=91,
            result_cache=ResultCacheSpec(capacity=64, staleness_bound=4.0),
        )
    )
    database = student_database()
    service = system.deploy_service(
        student_admin_wsdl(),
        {
            "StudentInformation": [
                student_lookup_operational(database) for _ in range(2)
            ],
            "EnrollStudent": [student_enrollment(database) for _ in range(2)],
        },
    )
    system.settle(6.0)
    return system, service


_client_ids = itertools.count()


def read(system, service, student="S00001"):
    node, _soap = system.add_client(f"rc-client-{next(_client_ids)}")
    return system.run_process(
        service.invoke("StudentInformation", {"ID": student}), node=node
    )


def enroll(system, service, student="S00001", course="X999"):
    node, _soap = system.add_client(f"rc-enroll-{next(_client_ids)}")
    return system.run_process(
        service.invoke("EnrollStudent", {"ID": student, "course": course}),
        node=node,
    )


def test_second_identical_read_is_served_from_cache(cached_system):
    system, service = cached_system
    first = read(system, service)
    second = read(system, service)
    assert first.outcome is not InvokeOutcome.CACHED
    assert second.outcome is InvokeOutcome.CACHED
    assert second.attempts == 0, "a hit must not touch the network"
    assert second.served_by == "rescache"
    assert second.value == first.value
    executed = service.group_for("StudentInformation").total_requests_executed()
    assert executed == 1, "the backend must see exactly one read"


def test_distinct_arguments_do_not_share_entries(cached_system):
    system, service = cached_system
    read(system, service, student="S00001")
    other = read(system, service, student="S00002")
    assert other.outcome is not InvokeOutcome.CACHED
    assert other.value["studentId"] == "S00002"


def test_mutating_operation_invalidates_cached_reads(cached_system):
    system, service = cached_system
    stale = read(system, service)
    assert "X999" not in stale.value["enrolledCourses"]
    read(system, service)  # warm the cache
    enroll(system, service, course="X999")
    fresh = read(system, service)
    assert fresh.outcome is not InvokeOutcome.CACHED, (
        "enrollment must flush the cache"
    )
    assert "X999" in fresh.value["enrolledCourses"]


def test_staleness_bound_expires_live_entries(cached_system):
    system, service = cached_system
    read(system, service)
    cached = read(system, service)
    assert cached.outcome is InvokeOutcome.CACHED
    system.settle(5.0)  # beyond the 4s staleness bound
    expired = read(system, service)
    assert expired.outcome is not InvokeOutcome.CACHED


def test_no_stale_epoch_serves_and_invariant_clean(cached_system):
    system, service = cached_system
    for _ in range(3):
        read(system, service)
    enroll(system, service, course="Y100")
    for _ in range(3):
        read(system, service)
    cache = service.proxy.result_cache
    assert cache.hits >= 2
    assert cache.stale_epoch_serves == 0
    assert rescache_violations(service.proxy) == []
