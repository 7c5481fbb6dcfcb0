"""What the traffic reaches: a function-level census of ``src/repro``.

*Imported* as ``sitecustomize`` (this directory on ``PYTHONPATH``,
``REPRO_CENSUS_DIR`` set — so every Python process the traffic starts,
subprocesses included, loads it) it installs a ``sys.setprofile`` hook that
collects each code object entered and at exit writes those under
``src/repro`` as ``file:line`` into that directory.  *Run* as ``python
tools/census/sitecustomize.py DIR`` it prints, per file, the functions no
process reached — each by its qualified name (``Class.method``;
``module.function`` at module level) — then a reached / not-reached table
per package, and exits 1 if an unreached name has no row in DESIGN.md
§6.14's kept-with-a-reason table, if a row keeps no unreached function
(it outlived its reason), or if the per-package counts differ from the
table DESIGN.md §6.15 records.  ``make census`` does both over the
repo's non-test traffic.

A profile hook sees only what runs while it is installed, and a later
``sys.setprofile`` replaces it.  So the installed hook also replaces
``sys.setprofile``: a hook the traffic installs (``bench_e2e``'s layer
tracer) runs chained behind the census's, and clearing it
(pytest-benchmark around a timed callable) leaves the census's in place.
For ``tests/`` the evidence of use is ``grep``, not this hook.
"""

import ast
import atexit
import collections
import os
import re
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(__file__, "..", "..", ".."))
REPRO = os.path.join(ROOT, "src", "repro")
DESIGN = os.path.join(ROOT, "DESIGN.md")

#: The header of DESIGN.md §6.14's table: the one list of names kept
#: although no traffic reaches them.
KEPT_HEADER = "| name(s) | why it stays |"
#: Bare method names one row may cover for every class.
ANY_CLASS = frozenset(("__repr__", "__str__"))
#: The header of DESIGN.md §6.15's table: what the census measured, per
#: package, two packages to a row.
TOTALS_HEADER = "| package | reached | not reached | | package | reached | not reached |"


def _install(out_dir):
    entered = set()
    add = entered.add
    set_profile = sys.setprofile

    def hook(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    def chained_setprofile(later):
        if later is None:
            set_profile(hook)
            return

        def chained(frame, event, arg):
            if event == "call":
                add(frame.f_code)
            # The later hook sees no event of this wrapper's own frame, as
            # it would see none of a direct ``sys.setprofile`` call.
            if frame.f_code is not wrapper:
                later(frame, event, arg)

        set_profile(chained)

    wrapper = chained_setprofile.__code__

    def dump():
        set_profile(None)
        handle, _path = tempfile.mkstemp(suffix=".census", dir=out_dir, text=True)
        with os.fdopen(handle, "w") as out:
            for code in entered:
                if code.co_filename.startswith(REPRO + os.sep):
                    out.write(f"{code.co_filename}:{code.co_firstlineno}\n")

    sys.setprofile = chained_setprofile
    set_profile(hook)
    atexit.register(dump)


def functions(repro=REPRO):
    """Every function under ``repro``: ``(path, node, qualified name)``.

    A method is named ``Class.method``, a module-level function
    ``module.function``; a nested function is its parent's name, a dot,
    its own.
    """
    for folder, _dirs, files in sorted(os.walk(repro)):
        for filename in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, filename)
            with open(path) as source:
                tree = ast.parse(source.read())
            yield from _walk(path, tree, filename[:-3], None)


def _walk(path, parent, module, prefix):
    for node in ast.iter_child_nodes(parent):
        if isinstance(node, ast.ClassDef):
            name = node.name if prefix is None else f"{prefix}.{node.name}"
            yield from _walk(path, node, module, name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix or module}.{node.name}"
            yield path, node, name
            yield from _walk(path, node, module, name)
        else:
            yield from _walk(path, node, module, prefix)


def kept_rows(design=DESIGN):
    """§6.14's table: per row, the names it keeps, qualified.

    A row's first cell lists names in backticks, in groups separated by
    ``;``.  A bare name takes the qualifier of the last qualified name
    before it in its group (``Ontology.concept`` / ``add_subclass``),
    except those of :data:`ANY_CLASS`, which stand for that method of
    every class; a bare name opening a group is a class or a module.
    """
    with open(design) as source:
        lines = source.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == KEPT_HEADER)
    rows = []
    for line in lines[start + 2:]:
        line = line.strip()
        if not line.startswith("|"):
            break
        kept = set()
        for group in line.split("|")[1].split(";"):
            qualifier = None
            for name in re.findall(r"`([^`]+)`", group):
                if "." in name:
                    qualifier = name.rsplit(".", 1)[0]
                elif name not in ANY_CLASS and qualifier is not None:
                    name = f"{qualifier}.{name}"
                kept.add(name)
        rows.append(kept)
    return rows


def kept_names(design=DESIGN):
    """The names §6.14's table keeps, qualified: every row's."""
    return set().union(*kept_rows(design))


def recorded_totals(design=DESIGN):
    """§6.15's table: package -> ``(reached, not reached)``, with the
    top-level modules as ``(top)`` and the sum as ``total``."""
    with open(design) as source:
        lines = source.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == TOTALS_HEADER)
    recorded = {}
    for line in lines[start + 2:]:
        line = line.strip()
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        for package, hit, not_hit in (cells[0:3], cells[4:7]):
            if package:
                package = "(top)" if package.startswith("(top") else package.strip("`*")
                recorded[package] = (int(re.sub(r"\D", "", hit)), int(re.sub(r"\D", "", not_hit)))
    return recorded


def is_kept(name, kept):
    """A row keeps its name and what is defined inside it (a class's
    methods, a function's nested functions)."""
    parts = name.split(".")
    return parts[-1] in kept & ANY_CLASS or any(
        ".".join(parts[:end]) in kept for end in range(1, len(parts) + 1)
    )


def _report(out_dir):
    reached = set()
    for name in os.listdir(out_dir):
        if name.endswith(".census"):
            with open(os.path.join(out_dir, name)) as dumped:
                reached.update(line.strip() for line in dumped)
    rows = kept_rows()
    kept = set().union(*rows)
    unlisted, unreached = [], []
    totals = collections.defaultdict(lambda: [0, 0])  # package -> [reached, not]
    for path, node, name in functions():
        relative = os.path.relpath(path, REPRO)
        package = relative.split(os.sep)[0] if os.sep in relative else "(top)"
        # A code object starts at its first decorator.
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        hit = f"{path}:{first}" in reached
        totals[package][not hit] += 1
        if not hit:
            unreached.append(name)
            size = node.end_lineno - node.lineno + 1
            mark = "" if is_kept(name, kept) else "   ** no §6.14 row"
            print(f"{relative}:{node.lineno}  {name}  ({size} lines){mark}")
            if mark:
                unlisted.append(name)
    totals["total"] = [sum(column) for column in zip(*totals.values())]
    print(f"\n{'package':<12}{'reached':>9}{'not reached':>13}")
    for package, (hit, not_hit) in totals.items():
        print(f"{package:<12}{hit:>9}{not_hit:>13}")
    if unlisted:
        print(f"\n{len(unlisted)} unreached name(s) with no row in DESIGN.md "
              f"§6.14's table: {', '.join(unlisted)}")
    outlived = [
        row for row in rows if not any(is_kept(name, row) for name in unreached)
    ]
    for row in outlived:
        print(f"DESIGN.md §6.14 row keeps no unreached function: {', '.join(sorted(row))}")
    recorded = recorded_totals()
    stale = sorted(
        package for package in set(totals) | set(recorded)
        if tuple(totals.get(package, ())) != recorded.get(package)
    )
    for package in stale:
        print(f"DESIGN.md §6.15 reads {package} {recorded.get(package)}, "
              f"measured {tuple(totals.get(package, ())) or None}")
    return 1 if unlisted or outlived or stale else 0


if __name__ == "__main__":
    sys.exit(_report(sys.argv[1]))
elif os.environ.get("REPRO_CENSUS_DIR"):
    _install(os.environ["REPRO_CENSUS_DIR"])
