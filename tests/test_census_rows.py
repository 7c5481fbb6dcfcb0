"""Every name DESIGN.md §6.14's kept-with-a-reason table lists is still
defined under ``src/repro``, so no row outlives its name; and §6.15's
per-package table, which ``make census`` compares with its measurement,
parses and adds up.

Reads files only: the table and the source, parsed by the same functions
``make census`` gates with (``tools/census/sitecustomize.py``); the census
itself is not run.
"""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _census():
    path = os.path.join(ROOT, "tools", "census", "sitecustomize.py")
    spec = importlib.util.spec_from_file_location("census_rows", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_kept_name_is_defined():
    census = _census()
    defined = {name for _path, _node, name in census.functions()}
    kept = census.kept_names()
    assert len(kept) > 50  # the table was found and parsed
    missing = sorted(
        name
        for name in kept
        if not any(
            candidate == name
            or candidate.startswith(name + ".")
            or (name in census.ANY_CLASS and candidate.endswith("." + name))
            for candidate in defined
        )
    )
    assert missing == [], f"§6.14 rows whose name is gone: {missing}"


def test_a_bare_name_does_not_match_another_class():
    census = _census()
    kept = {"Table.delete", "__repr__"}
    assert census.is_kept("Table.delete", kept)
    assert census.is_kept("Span.__repr__", kept)
    assert not census.is_kept("Queue.delete", kept)
    assert not census.is_kept("Table.__len__", kept)


def test_the_per_package_table_parses_and_adds_up():
    totals = _census().recorded_totals()
    packages = {name: counts for name, counts in totals.items() if name != "total"}
    assert len(packages) == 14  # (top) and the thirteen packages
    assert totals["total"] == tuple(map(sum, zip(*packages.values())))
