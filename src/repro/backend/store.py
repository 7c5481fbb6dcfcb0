"""In-memory operational data stores.

B-peers "implement a specific functionality, such as accessing a database
to retrieve students data" (§4.2).  This module provides that database: a
keyed table store with simple queries and — importantly — an availability
switch, because the paper's motivating failover is an *unavailable
operational database* (§4.1) whose requests a semantically equivalent peer
then serves from a data warehouse.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterator, List, Mapping, Set, Tuple

__all__ = ["Table", "Database", "BackendUnavailable", "RecordNotFound"]


class BackendUnavailable(Exception):
    """The backing store is down (injected failure)."""


class RecordNotFound(Exception):
    """No record with the requested key."""


def _own_copy(row: Mapping[str, Any]) -> Dict[str, Any]:
    """``row`` in a dict of its own, with list values of its own."""
    return {c: list(v) if isinstance(v, list) else v for c, v in row.items()}


class Table:
    """One keyed table.

    A table keeps two kinds of row.  One it has *handed out* — reached by
    ``get`` / ``update`` / ``select`` / iteration, so a caller may hold its
    list values — is this table's alone (``_own`` has its key).  Every
    other row has never left the table: it is never written in place, so
    :meth:`copy` may share it, and the table makes it its own the first
    time a caller can reach it.  What leaves a table is a dict the caller
    keeps; only the list values in it are the stored row's.
    """

    def __init__(self, name: str, primary_key: str):
        self.name = name
        self.primary_key = primary_key
        self._rows: Dict[Any, Dict[str, Any]] = {}
        self._own: Set[Any] = set()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter([dict(self._mine(key)) for key in self._rows])

    @property
    def private_rows(self) -> int:
        """How many rows this table has made its own by handing them out."""
        return len(self._own)

    def _mine(self, key: Any) -> Dict[str, Any]:
        """The stored row, made this table's own first (in place: owning
        a row does not move it in the iteration order)."""
        row = self._rows.get(key)
        if row is None:
            raise RecordNotFound(f"{self.name}[{key!r}]")
        if key not in self._own:
            row = self._rows[key] = _own_copy(row)
            self._own.add(key)
        return row

    def copy(self) -> "Table":
        """A table nothing done to which shows here, nor the reverse:
        it shares the rows that never left this one, and gets copies of
        the handed-out ones — O(rows touched) plus the key -> row map."""
        clone = Table(self.name, self.primary_key)
        rows = clone._rows = dict(self._rows)
        for key in self._own:
            rows[key] = _own_copy(rows[key])
        return clone

    def scan(self) -> Iterator[Mapping[str, Any]]:
        """Read-only views of the stored rows, nothing copied or made
        private (the warehouse ETL): read and drop, never keep."""
        return map(MappingProxyType, self._rows.values())

    def insert(self, row: Dict[str, Any]) -> None:
        """Insert or replace a row (keyed by its primary-key field)."""
        if self.primary_key not in row:
            raise ValueError(
                f"row lacks primary key {self.primary_key!r}: {sorted(row)}"
            )
        self._rows[row[self.primary_key]] = _own_copy(row)

    def get(self, key: Any) -> Dict[str, Any]:
        # The request path: a row already owned skips the call.
        return dict(self._rows[key] if key in self._own else self._mine(key))

    def contains(self, key: Any) -> bool:
        return key in self._rows

    def delete(self, key: Any) -> bool:
        self._own.discard(key)
        return self._rows.pop(key, None) is not None

    def select(self, predicate: Callable[[Dict[str, Any]], bool]) -> List[Dict[str, Any]]:
        return [row for row in self if predicate(row)]

    def update(self, key: Any, changes: Dict[str, Any]) -> Dict[str, Any]:
        row = self._mine(key)
        row.update(changes)
        return dict(row)


class Database:
    """A named collection of tables with an availability switch."""

    def __init__(self, name: str):
        self.name = name
        self.available = True
        self._tables: Dict[str, Table] = {}
        self.reads = 0
        self.writes = 0
        #: Side-effect ledger for the duplicate-execution audit: one
        #: ``(invocation_id, applied_by)`` record per mutating execution
        #: that ran under an idempotency key (see
        #: :meth:`record_effect`).  Exactly-once means no invocation id
        #: appears here more than once, across *all* backends.
        self.effect_log: List[Tuple[str, str]] = []

    def create_table(self, name: str, primary_key: str) -> Table:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists in {self.name!r}")
        table = Table(name, primary_key)
        self._tables[name] = table
        return table

    def copy(self) -> "Database":
        """A pristine store (available, zero counts, empty effect ledger)
        independent of this one — lazily: see :meth:`Table.copy`."""
        clone = Database(self.name)
        clone._tables = {name: table.copy() for name, table in self._tables.items()}
        return clone

    def tables(self) -> List[Table]:
        """Every table in creation order, available or not (set-up, ETL)."""
        return list(self._tables.values())

    def table(self, name: str) -> Table:
        self._check_available()
        try:
            return self._tables[name]
        except KeyError:
            raise RecordNotFound(f"no table {name!r} in {self.name!r}") from None

    def read(self, table_name: str, key: Any) -> Dict[str, Any]:
        """Availability-checked point read."""
        self._check_available()
        self.reads += 1
        return self.table(table_name).get(key)

    def write(self, table_name: str, row: Dict[str, Any]) -> None:
        """Availability-checked insert/replace."""
        self._check_available()
        self.writes += 1
        self.table(table_name).insert(row)

    def update(self, table_name: str, key: Any, changes: Dict[str, Any]) -> Dict[str, Any]:
        """Availability-checked partial update (counts as a write)."""
        self._check_available()
        self.writes += 1
        return self.table(table_name).update(key, changes)

    # -- duplicate-execution audit ---------------------------------------------------

    def record_effect(self, invocation_id: str, applied_by: str) -> None:
        """Ledger one mutating execution under an idempotency key."""
        self.effect_log.append((invocation_id, applied_by))

    def effect_counts(self) -> "Counter[str]":
        """Applications per invocation id (audit: every count must be 1)."""
        return Counter(invocation_id for invocation_id, _ in self.effect_log)

    # -- failure injection ---------------------------------------------------------

    def fail(self) -> None:
        """Take the store offline; reads/writes raise until restored."""
        self.available = False

    def restore(self) -> None:
        self.available = True

    def _check_available(self) -> None:
        if not self.available:
            raise BackendUnavailable(f"database {self.name!r} is down")
