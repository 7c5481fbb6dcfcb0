"""The data warehouse: a differently-shaped replica of operational data.

§4.1's failover scenario: "In response to a Web service request, a peer
accesses student information from an operational database ... If the
operational database is unavailable, a semantically equivalent peer can
automatically and transparently handle the service request by retrieving
the same information from a data warehouse."

The warehouse stores the same facts in a star-schema-flavoured layout
(dimension attributes flattened, measures precomputed), so the b-peer that
serves from it genuinely implements the functionality "in a different
way" (§4.1) while remaining semantically equivalent.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from .store import Database, RecordNotFound

__all__ = ["build_warehouse", "WAREHOUSE_TABLE_PREFIX"]

WAREHOUSE_TABLE_PREFIX = "dw_"


def build_warehouse(operational: Database) -> Database:
    """ETL: snapshot an operational database into warehouse layout.

    Each operational table becomes ``dw_<table>`` with denormalised rows:
    keys prefixed with ``dim_``, lists flattened to pipe-joined strings,
    and a row-level ``fact_source`` marker.  The transformation is loss-
    free for the fields service implementations need.
    """
    warehouse = Database(operational.name.replace("operational", "warehouse"))
    for source in operational.tables():
        target = warehouse.create_table(
            WAREHOUSE_TABLE_PREFIX + source.name,
            primary_key="dim_" + source.primary_key,
        )
        for row in source.scan():  # read-only: leaves the source's rows shared
            target.insert(_to_warehouse_row(row, operational.name))
    return warehouse


def _to_warehouse_row(row: Mapping[str, Any], source_name: str) -> Dict[str, Any]:
    transformed: Dict[str, Any] = {"fact_source": source_name}
    for key, value in row.items():
        if isinstance(value, list):
            transformed["lst_" + key] = "|".join(str(item) for item in value)
        else:
            transformed["dim_" + key] = value
    return transformed


def warehouse_lookup(
    warehouse: Database, table_name: str, key: Any
) -> Dict[str, Any]:
    """Read one warehouse row and restore the operational field shape.

    Raises :class:`RecordNotFound` / ``BackendUnavailable`` like a direct
    operational read would.
    """
    row = warehouse.read(WAREHOUSE_TABLE_PREFIX + table_name, key)
    restored: Dict[str, Any] = {}
    for field, value in row.items():
        if field == "fact_source":
            continue
        if field.startswith("lst_"):
            restored[field[len("lst_"):]] = value.split("|") if value else []
        elif field.startswith("dim_"):
            restored[field[len("dim_"):]] = value
        else:
            restored[field] = value
    return restored
