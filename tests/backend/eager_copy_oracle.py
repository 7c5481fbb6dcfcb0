"""The eager ``Database.copy()`` that copy-on-first-touch replaced, kept as the oracle.

From PR 15 until PR 21 ``Database.copy()`` duplicated every row dict and
every list value at once; it now shares the rows neither side has handed
out and duplicates a row the first time a caller can reach it (DESIGN.md
§6.12).  This is the old loop, unchanged but for going through
``Database.tables()``: a clone that holds no object of its source from the
moment it exists, so ``tests/backend/test_copy_isolation.py`` can require
that a lazy copy is never told apart from it.
"""

from repro.backend.store import Database


def eager_copy(database: Database) -> Database:
    """A pristine store with its own rows *and list values*."""
    clone = Database(database.name)
    for table in database.tables():
        clone.create_table(table.name, table.primary_key)._rows = {
            key: {c: list(v) if isinstance(v, list) else v for c, v in row.items()}
            for key, row in table._rows.items()
        }
    return clone
