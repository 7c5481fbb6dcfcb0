"""Every module DESIGN.md §4's per-experiment index names still exists.

The table's "Modules" column names ``repro`` modules (``core.proxy``) and
names inside them (``bench.workload.ProbeWorkload``); each must import and
resolve, so a rename or a deletion cannot leave the index pointing at
nothing.  A name with a ``/`` is a file path under the repository root.
"""

import importlib
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _module_column():
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## 4. ", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| **")]
    return [
        name
        for row in rows
        for name in re.findall(r"`([^`]+)`", row.split(" | ")[2])
    ]


def _resolves(name):
    if "/" in name:
        return os.path.exists(os.path.join(ROOT, name))
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module("repro." + ".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_every_indexed_module_resolves():
    names = _module_column()
    assert len(names) > 20  # the table was found and parsed
    missing = sorted({name for name in names if not _resolves(name)})
    assert missing == [], f"DESIGN.md §4 names no such module: {missing}"
