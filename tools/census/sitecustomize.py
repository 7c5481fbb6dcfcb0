"""What the traffic reaches: a function-level census of ``src/repro``.

*Imported* as ``sitecustomize`` (this directory on ``PYTHONPATH``,
``REPRO_CENSUS_DIR`` set — so every Python process the traffic starts,
subprocesses included, loads it) it installs a ``sys.setprofile`` hook that
collects each code object entered and at exit writes those under
``src/repro`` as ``file:line`` into that directory.  *Run* as ``python
tools/census/sitecustomize.py DIR`` it prints, per file, the functions no
process reached, then a reached / not-reached table per package.  ``make
census`` does both over the repo's non-test traffic.

A profile hook sees only what runs while it is installed: pytest-benchmark
calls ``sys.setprofile(None)`` around the timed callable, and
``bench_e2e``'s traced runs install their own.  For ``benchmarks/`` and
``tests/`` the evidence of use is ``grep``, not this hook.
"""

import ast
import atexit
import collections
import os
import sys
import tempfile

REPRO = os.path.abspath(os.path.join(__file__, "..", "..", "..", "src", "repro"))


def _install(out_dir):
    entered = set()

    def hook(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    def dump():
        sys.setprofile(None)
        handle, _path = tempfile.mkstemp(suffix=".census", dir=out_dir, text=True)
        with os.fdopen(handle, "w") as out:
            for code in entered:
                if code.co_filename.startswith(REPRO + os.sep):
                    out.write(f"{code.co_filename}:{code.co_firstlineno}\n")

    sys.setprofile(hook)
    atexit.register(dump)


def _report(out_dir):
    reached = set()
    for name in os.listdir(out_dir):
        if name.endswith(".census"):
            with open(os.path.join(out_dir, name)) as dumped:
                reached.update(line.strip() for line in dumped)
    totals = collections.defaultdict(lambda: [0, 0])  # package -> [reached, not]
    for folder, _dirs, files in sorted(os.walk(REPRO)):
        for filename in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, filename)
            relative = os.path.relpath(path, REPRO)
            package = relative.split(os.sep)[0] if os.sep in relative else "(top)"
            with open(path) as source:
                tree = ast.parse(source.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A code object starts at its first decorator.
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    hit = f"{path}:{first}" in reached
                    totals[package][not hit] += 1
                    if not hit:
                        size = node.end_lineno - node.lineno + 1
                        print(f"{relative}:{node.lineno}  {node.name}  ({size} lines)")
    totals["total"] = [sum(column) for column in zip(*totals.values())]
    print(f"\n{'package':<12}{'reached':>9}{'not reached':>13}")
    for package, (hit, not_hit) in totals.items():
        print(f"{package:<12}{hit:>9}{not_hit:>13}")


if __name__ == "__main__":
    _report(sys.argv[1])
elif os.environ.get("REPRO_CENSUS_DIR"):
    _install(os.environ["REPRO_CENSUS_DIR"])
