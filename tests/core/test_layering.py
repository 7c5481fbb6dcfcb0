"""``repro.core`` stands on its own, and the substrates under it too.

The schedule checker (``repro.check``) and the benches (``repro.bench``)
are built on ``repro.core``; importing the core must load neither.  While
the fault campaign lived in ``core/`` it pulled ``repro.check`` in, and
that cycle (``workflow.engine`` -> ``core`` -> ``check.saga`` ->
``workflow``) kept ``check/saga.py``'s workflow imports inside functions.

The substrates are the floor: ``repro.simnet`` loads only itself and
``repro.obs``, and ``repro.p2p`` adds only itself on top.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _fresh_interpreter(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_core_loads_neither_check_nor_bench():
    loaded = _fresh_interpreter(
        "import sys, repro.core; print(sorted(m for m in sys.modules "
        "if m.startswith(('repro.check', 'repro.bench'))))"
    )
    assert loaded.strip() == "[]"


@pytest.mark.parametrize("package, allowed", [
    ("repro.simnet", ["obs", "simnet"]),
    ("repro.p2p", ["obs", "p2p", "simnet"]),
], ids=["repro.simnet", "repro.p2p"])
def test_a_substrate_loads_only_the_packages_under_it(package, allowed):
    loaded = _fresh_interpreter(
        f"import sys, {package}; print(' '.join(sorted({{m.split('.')[1] "
        "for m in sys.modules if m.startswith('repro.')})))"
    )
    assert loaded.split() == allowed


@pytest.mark.parametrize("module", [
    "repro.workflow", "repro.workflow.saga", "repro.check", "repro.check.saga",
    "repro.bench", "repro.bench.campaign", "repro.cli",
])
def test_each_package_imports_first_without_a_cycle(module):
    _fresh_interpreter(f"import {module}")
