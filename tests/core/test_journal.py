"""Unit tests for the dedup/result journal (exactly-once bookkeeping)."""

import dataclasses
import random
from collections import OrderedDict

import pytest

from repro.core import DedupJournal, JournalEntry
from repro.core.journal import DONE, EXECUTING


def _done_entry(invocation_id, reply="reply", epoch=None):
    return JournalEntry(invocation_id=invocation_id, state=DONE, reply=reply, epoch=epoch)


class TestBegin:
    def test_begin_marks_executing(self):
        journal = DedupJournal()
        entry = journal.begin("inv-1", epoch="e1")
        assert entry.state == EXECUTING
        assert entry.epoch == "e1"
        assert "inv-1" in journal

    def test_begin_is_idempotent(self):
        journal = DedupJournal()
        first = journal.begin("inv-1")
        second = journal.begin("inv-1")
        assert second is first
        assert len(journal) == 1

    def test_begin_never_demotes_done(self):
        journal = DedupJournal()
        journal.complete("inv-1", reply="result")
        entry = journal.begin("inv-1")
        assert entry.done
        assert entry.reply == "result"


class TestComplete:
    def test_first_complete_wins(self):
        journal = DedupJournal()
        journal.begin("inv-1")
        entry, first = journal.complete("inv-1", reply="A", epoch="e1")
        assert first
        assert entry.done
        assert entry.reply == "A"
        assert entry.epoch == "e1"

    def test_duplicate_complete_suppressed(self):
        journal = DedupJournal()
        journal.complete("inv-1", reply="A")
        entry, first = journal.complete("inv-1", reply="B")
        assert not first
        assert entry.reply == "A"  # first result wins
        assert journal.stats.duplicates_suppressed == 1

    def test_complete_without_begin(self):
        journal = DedupJournal()
        entry, first = journal.complete("inv-1", reply="A")
        assert first and entry.done


class TestAbandon:
    def test_abandon_drops_executing(self):
        journal = DedupJournal()
        journal.begin("inv-1")
        journal.abandon("inv-1")
        assert "inv-1" not in journal

    def test_abandon_never_drops_done(self):
        journal = DedupJournal()
        journal.complete("inv-1", reply="A")
        journal.abandon("inv-1")
        assert journal.lookup("inv-1").reply == "A"

    def test_abandon_unknown_is_noop(self):
        DedupJournal().abandon("ghost")


class TestMerge:
    def test_merge_installs_remote_done(self):
        journal = DedupJournal()
        assert journal.merge(_done_entry("inv-1", reply="A"))
        assert journal.lookup("inv-1").reply == "A"
        assert journal.stats.merges == 1

    def test_merge_upgrades_executing_placeholder(self):
        journal = DedupJournal()
        journal.begin("inv-1")
        remote = _done_entry("inv-1", reply="A")
        assert journal.merge(remote)
        assert journal.lookup("inv-1") is remote

    def test_merge_local_done_wins(self):
        journal = DedupJournal()
        journal.complete("inv-1", reply="local")
        assert not journal.merge(_done_entry("inv-1", reply="remote"))
        assert journal.lookup("inv-1").reply == "local"

    def test_merge_rejects_executing_entries(self):
        journal = DedupJournal()
        assert not journal.merge(JournalEntry(invocation_id="inv-1"))
        assert "inv-1" not in journal


class TestCrashSemantics:
    def test_drop_executing_keeps_done(self):
        journal = DedupJournal()
        journal.begin("in-flight-1")
        journal.begin("in-flight-2")
        journal.complete("finished", reply="A")
        assert journal.drop_executing() == 2
        assert "finished" in journal
        assert "in-flight-1" not in journal

    def test_export_ships_only_done_without_transients(self):
        journal = DedupJournal()
        journal.begin("in-flight")
        journal.complete("finished", reply="A")
        exported = journal.export()
        assert [entry.invocation_id for entry in exported] == ["finished"]


class TestBounds:
    def test_capacity_evicts_oldest_done(self):
        journal = DedupJournal(capacity=2)
        journal.complete("old", reply="1")
        journal.complete("mid", reply="2")
        journal.complete("new", reply="3")
        assert len(journal) == 2
        assert "old" not in journal
        assert journal.stats.evictions == 1

    def test_eviction_spares_executing(self):
        journal = DedupJournal(capacity=2)
        journal.begin("in-flight-1")
        journal.begin("in-flight-2")
        journal.complete("done-1", reply="A")
        assert "in-flight-1" in journal
        assert "in-flight-2" in journal
        assert "done-1" not in journal  # only DONE entries are evictable

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DedupJournal(capacity=0)

    def test_shrunk_capacity_evicts_every_excess_done_in_one_pass(self):
        journal = DedupJournal(capacity=8)
        journal.begin("parked")  # EXECUTING at the head: walked past, kept
        for index in range(7):
            journal.complete(f"done-{index}", reply=index)
        journal.capacity = 3
        assert journal.merge(_done_entry("remote", reply="R"))
        assert list(journal._entries) == ["parked", "done-6", "remote"]
        assert journal.stats.evictions == 6


class TestReplicable:
    @pytest.mark.parametrize("seed", [7, 11, 42], indirect=True)
    def test_done_entries_are_never_written_again(self, seed):
        """What sharing one DONE entry across the group rests on: while a
        key stays in the journal its DONE entry stays the same object, and
        no journal call changes a field of any entry once it is DONE."""
        rng = random.Random(seed)
        journal = DedupJournal(capacity=4)
        held = {}  # key -> the DONE entry the journal holds for it
        seen = []  # (entry, its fields when first seen DONE)
        for stamp in range(1, 601):
            name = rng.choices(OP_NAMES + ("resize",), (6, 6, 3, 1, 1, 1))[0]
            key = f"inv-{rng.randrange(12)}"
            apply_op(journal, (name, key, rng.randrange(1, 9) if name == "resize" else stamp))
            held = {key: entry for key, entry in held.items() if key in journal}
            for key, entry in journal._entries.items():
                if key in held:
                    assert entry is held[key], (stamp, name, key)
                elif entry.done:
                    held[key] = entry
                    seen.append((entry, dataclasses.astuple(entry)))
            for entry, fields in seen:
                assert dataclasses.astuple(entry) == fields, (stamp, name, entry)

    def test_entries_carry_no_instance_dict(self):
        assert not hasattr(JournalEntry(invocation_id="inv-1"), "__dict__")


# -- equivalence with the eviction this journal shipped with until PR 12 ------------


class ReferenceJournal(DedupJournal):
    """The journal with its original ``_evict``: copy every key, delete from
    the head until back under capacity.  O(capacity) per insertion once
    full; kept as the model the O(victims) walk must match step for step."""

    def _evict(self) -> None:
        if len(self._entries) <= self.capacity:
            return
        for key in list(self._entries):
            if len(self._entries) <= self.capacity:
                break
            if self._entries[key].done:
                del self._entries[key]
                self.stats.evictions += 1


def apply_op(journal, op):
    """Apply one ``(name, key, stamp)`` step; returns what the call returned."""
    name, key, stamp = op
    if name == "begin":
        return journal.begin(key, epoch=stamp).state
    if name == "complete":
        return journal.complete(key, reply=f"reply-{stamp}", epoch=stamp)[1]
    if name == "merge":
        return journal.merge(_done_entry(key, reply=f"remote-{stamp}", epoch=stamp))
    if name == "abandon":
        return journal.abandon(key)
    if name == "drop_executing":
        return journal.drop_executing()
    if name == "resize":  # ``stamp`` carries the new capacity
        journal.capacity = stamp
        return None
    raise AssertionError(f"unknown op {name!r}")


def snapshot(journal):
    """Key order, every field of every entry, the counters, and the length."""
    entries = [dataclasses.astuple(entry) for entry in journal._entries.values()]
    return list(journal._entries), entries, journal.stats, len(journal)


def assert_equivalent(capacity, ops):
    """Run ``ops`` on both journals, comparing after every step; returns the
    most entries a single step evicted."""
    journal, reference = DedupJournal(capacity), ReferenceJournal(capacity)
    most = 0
    for step, op in enumerate(ops):
        before = journal.stats.evictions
        assert apply_op(journal, op) == apply_op(reference, op), (step, op)
        assert snapshot(journal) == snapshot(reference), (step, op)
        most = max(most, journal.stats.evictions - before)
    assert journal.export() == reference.export()
    return most


OP_NAMES = ("begin", "complete", "merge", "abandon", "drop_executing")


class TestEvictionEquivalence:
    @pytest.mark.parametrize("seed", [7, 11, 42], indirect=True)
    @pytest.mark.parametrize("capacity", range(1, 9))
    def test_random_sequences_match_reference(self, capacity, seed):
        rng = random.Random(seed * 31 + capacity)
        weights = (6, 6, 3, 1, 1)
        ops = [
            (rng.choices(OP_NAMES, weights)[0], f"inv-{rng.randrange(12)}", stamp)
            for stamp in range(1, 401)
        ]
        assert_equivalent(capacity, ops)

    def test_executing_entries_parked_at_the_head(self):
        ops = [("begin", f"parked-{index}", index) for index in range(1, 4)]
        ops += [("complete", f"done-{index}", index) for index in range(4, 12)]
        ops += [("complete", "parked-2", 12), ("merge", "remote", 13)]
        assert_equivalent(3, ops)

    def test_overshoot_by_more_than_one(self):
        """In-flight markers past capacity, then a capacity cut: one merge
        must evict several ``DONE`` entries, skipping the markers between."""
        ops = [("complete", "a", 1), ("begin", "x", 2), ("complete", "b", 3)]
        ops += [("begin", "y", 4), ("complete", "c", 5), ("complete", "d", 6)]
        ops += [("resize", None, 2), ("merge", "remote", 7)]
        ops += [("resize", None, 1), ("begin", "z", 8), ("complete", "z", 9)]
        assert assert_equivalent(6, ops) == 5  # a, b, c, d and the merged entry


class _CountingEntries(OrderedDict):
    """The journal's entry map, counting every key an iteration yields."""

    visited = 0

    def _counted(self, iterator):
        for item in iterator:
            self.visited += 1
            yield item

    def __iter__(self):
        return self._counted(super().__iter__())

    def keys(self):
        return self._counted(super().keys())

    def values(self):
        return self._counted(super().values())

    def items(self):
        return self._counted(super().items())


def _keys_visited_per_begin(journal_class, capacity, begins=50):
    journal = journal_class(capacity)
    journal.begin("parked")  # an in-flight marker the walk has to step over
    for index in range(capacity + 10):
        journal.complete(f"fill-{index}", reply=index)
    assert len(journal) == capacity and next(iter(journal._entries)) == "parked"
    journal._entries = _CountingEntries(journal._entries)
    worst = 0
    for index in range(begins):
        before = journal._entries.visited
        journal.begin(f"probe-{index}")
        worst = max(worst, journal._entries.visited - before)
        journal.complete(f"probe-{index}", reply=index)
    assert journal.stats.evictions == 11 + begins
    return worst


class TestEvictionCost:
    """Counted, never timed: a full journal's insertion visits O(victims) keys."""

    @pytest.mark.parametrize("capacity", [64, 4096])
    def test_begin_on_a_full_journal_visits_a_constant_number_of_keys(self, capacity):
        # Worst case here: the marker parked at the head, then the victim.
        assert _keys_visited_per_begin(DedupJournal, capacity) <= 2

    def test_the_counter_sees_the_reference_walk_every_key(self):
        assert _keys_visited_per_begin(ReferenceJournal, 64) > 64
