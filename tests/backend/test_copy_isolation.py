"""A lazy ``Database.copy()`` is never told apart from the eager one it replaced.

Two worlds run the same seeded random operation sequence: in one every copy
is ``Database.copy()`` (rows shared until first touched, DESIGN.md §6.12), in
the other ``eager_copy_oracle.eager_copy`` (every row and list duplicated at
once, so isolated by construction).  Each world holds a source, at least three
copies of it and a copy of a copy.  After every step the outcome — return
value or exception — and the full state of every store (rows in iteration
order, counters, availability, effect ledger; read through ``Table.scan``, which
makes nothing private, so looking does not undo the sharing under test) must be
equal between the worlds.  And after every step the caller *writes on whatever
it was handed*: appends to every returned list, sets a key on every returned
dict and on every row an iteration gave it — and, some steps later, appends
again to a list it was handed (or passed in) long ago, across any copies made
since.  If a write reached a row another table can see, the worlds diverge.
"""

import copy
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.backend.store import BackendUnavailable, Database, RecordNotFound

from .eager_copy_oracle import eager_copy

ROOT = Path(__file__).resolve().parents[2]
TABLES = ("things", "notes")
KEYS = [f"k{index}" for index in range(6)]
STEPS = 32
MAX_STORES = 7
#: step -> index of the store copied there: three copies of the source
#: and a copy of a copy, whatever else the dice add.
FORCED_COPIES = {3: 0, 8: 0, 13: 1, 18: 0}
OPERATIONS = (
    ["get"] * 4 + ["read"] * 3 + ["update"] * 3 + ["table_update"] + ["insert"] * 2
    + ["write", "delete", "delete", "contains", "len", "select", "iterate", "copy",
       "copy", "fail", "restore", "restore", "effect"]
)  # fmt: skip


def _row(rng, key):
    return {
        "id": key,
        "n": rng.randrange(100),
        "tags": [f"t{rng.randrange(10)}" for _ in range(rng.randrange(3))],
        "marks": [rng.randrange(20)],
    }


class World:
    """A source, its copies, and every list a caller ever got hold of."""

    def __init__(self, copy, rng):
        self.copy = copy
        source = Database("things-operational")
        for name in TABLES:
            table = source.create_table(name, primary_key="id")
            for key in rng.sample(KEYS, 4):
                table.insert(_row(rng, key))
        self.stores = [source]
        self.held = []

    def apply(self, operation, index, table_name, key, row, token):
        """One call as a client makes it; what it returned or raised."""
        store = self.stores[index]
        try:
            if operation == "copy":
                return self.stores.append(self.copy(store))
            if operation == "fail":
                return store.fail()
            if operation == "restore":
                return store.restore()
            if operation == "effect":
                return store.record_effect(token, f"peer-{index}")
            if operation == "read":
                return store.read(table_name, key)
            if operation in ("write", "insert", "update", "table_update"):
                # The caller keeps the lists it passes in, too.
                row = copy.deepcopy(row)  # each world passes in objects of its own
                self.held.extend(v for v in row.values() if isinstance(v, list))
                if operation == "write":
                    return store.write(table_name, row)
                if operation == "update":
                    del row["id"]
                    return store.update(table_name, key, row)
            table = store.table(table_name)
            if operation == "insert":
                return table.insert(row)
            if operation == "table_update":
                return table.update(key, {"tags": row["tags"]})
            if operation == "get":
                return table.get(key)
            if operation == "delete":
                return table.delete(key)
            if operation == "contains":
                return table.contains(key)
            if operation == "len":
                return len(table)
            if operation == "select":
                return table.select(lambda candidate: candidate["n"] % 2 == row["n"] % 2)
            if operation == "iterate":
                return list(table)
            raise AssertionError(operation)
        except (RecordNotFound, BackendUnavailable) as error:
            return error

    def vandalise(self, outcome, token):
        """Write on everything the call handed out, and keep its lists."""
        for row in outcome if isinstance(outcome, list) else [outcome]:
            if isinstance(row, dict):
                for cell in list(row.values()):
                    if isinstance(cell, list):
                        cell.append(token)
                        self.held.append(cell)
                row["vandal"] = token

    def state(self):
        return [
            (store.available, store.reads, store.writes, store.effect_log,
             [list(table.scan()) for table in store.tables()])
            for store in self.stores
        ]  # fmt: skip


def _plain(outcome):
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    return outcome


def run_sequence(seed):
    """One sequence through both worlds; ``repr`` of every outcome and of
    the final state (what the hash-seed case compares across interpreters)."""
    rng = random.Random(seed)
    shape = random.Random(rng.random())
    lazy = World(Database.copy, random.Random(seed))
    eager = World(eager_copy, random.Random(seed))
    transcript = []
    for step in range(STEPS):
        operation, index = rng.choice(OPERATIONS), rng.randrange(len(lazy.stores))
        if step in FORCED_COPIES:
            operation, index = "copy", FORCED_COPIES[step]
        elif operation == "copy" and len(lazy.stores) == MAX_STORES:
            operation = "get"
        call = (operation, index, rng.choice(TABLES), rng.choice(KEYS))
        row, token = _row(shape, call[3]), f"x{step}"
        outcomes = [_plain(world.apply(*call, row, token)) for world in (lazy, eager)]
        assert outcomes[0] == outcomes[1], (seed, step, call)
        transcript.append(repr(outcomes[0]))
        for world, outcome in zip((lazy, eager), outcomes):
            world.vandalise(outcome, token)
        if lazy.held and rng.random() < 0.4:  # a list handed out long ago
            old = rng.randrange(len(lazy.held))
            lazy.held[old].append(token + "-late")
            eager.held[old].append(token + "-late")
        assert lazy.state() == eager.state(), (seed, step, call)
    assert len(lazy.stores) >= 5
    transcript.append(repr([
        [[dict(row) for row in table.scan()] for table in store.tables()]
        for store in lazy.stores
    ]))  # fmt: skip
    return transcript


def digest(first_seed, count):
    sha = hashlib.sha256()
    for seed in range(first_seed, first_seed + count):
        sha.update("\n".join(run_sequence(seed)).encode())
    return sha.hexdigest()


def test_two_thousand_sequences_match_the_eager_oracle():
    for seed in range(2000):
        run_sequence(seed)


def test_the_sequences_reach_what_they_are_meant_to():
    """Not vacuous: both exceptions, hits and misses, and late writes through
    long-held lists all occur; and ``private_rows`` counts a first touch, on
    the table touched alone."""
    seen = "".join("".join(run_sequence(seed)[:-1]) for seed in range(40))
    for needle in ("RecordNotFound", "BackendUnavailable", "-late", "True", "False"):
        assert needle in seen, needle
    source = Database("d")
    source.create_table("t", primary_key="id").insert({"id": 1, "tags": ["a"]})
    clone = source.copy()
    assert source.tables()[0].private_rows == clone.tables()[0].private_rows == 0
    clone.read("t", 1)
    assert (source.tables()[0].private_rows, clone.tables()[0].private_rows) == (0, 1)


def test_order_and_outcomes_do_not_depend_on_the_hash_seed():
    """DESIGN.md §7: owning a row must not move it, and nothing observable
    may depend on the order of the set of owned keys (str keys: that order
    changes with ``PYTHONHASHSEED``)."""
    script = "from tests.backend.test_copy_isolation import digest; print(digest(5000, 150))"
    outputs = []
    for hash_seed in ("1", "2"):
        path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        environment = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", script], env=environment, text=True, cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr  # every oracle assertion held there too
        outputs.append(done.stdout.strip())
    assert outputs[0] == outputs[1] == digest(5000, 150)
