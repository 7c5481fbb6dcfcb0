"""Property-based tests: the dedup journal's O(victims) eviction.

``DedupJournal._evict`` walks the entry map from its head and deletes only
the excess ``DONE`` entries; until PR 12 it copied every key first.  Any
sequence of journal operations must leave the two indistinguishable: same
key order, same entries, same counters, same length — after every step.
The reference journal and the step driver live beside the unit tests in
``tests/core/test_journal.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ..core.test_journal import OP_NAMES, assert_equivalent

# Few keys and tiny capacities: retries, duplicate completions, merges onto
# local placeholders and evictions all happen within a handful of steps.
keys = st.integers(min_value=0, max_value=9).map("inv-{}".format)
names = st.sampled_from(OP_NAMES + ("begin", "begin", "complete", "complete", "merge"))
sequences = st.lists(st.tuples(names, keys), max_size=60).map(
    lambda steps: [(name, key, stamp) for stamp, (name, key) in enumerate(steps, 1)]
)


@given(capacity=st.integers(min_value=1, max_value=8), ops=sequences)
@settings(max_examples=300, deadline=None)
def test_eviction_matches_reference_after_every_step(capacity, ops):
    assert_equivalent(capacity, ops)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    parked=st.integers(min_value=1, max_value=10),
    ops=sequences,
)
@settings(max_examples=150, deadline=None)
def test_eviction_matches_reference_with_executing_entries_at_the_head(
    capacity, parked, ops
):
    """In-flight markers no step ever completes stay parked at the head, so
    every eviction has to walk past them (and may find nothing to evict)."""
    prefix = [("begin", f"parked-{index}", 0) for index in range(parked)]
    assert_equivalent(capacity, prefix + ops)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=sequences,
    cut=st.integers(min_value=1, max_value=8),
    tail=sequences,
)
@settings(max_examples=150, deadline=None)
def test_eviction_matches_reference_across_a_capacity_cut(capacity, ops, cut, tail):
    """Shrinking ``capacity`` mid-run makes the next insertion overshoot by
    more than one: several ``DONE`` entries go in a single pass."""
    assert_equivalent(capacity, ops + [("resize", None, cut)] + tail)
