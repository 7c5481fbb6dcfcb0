"""Export pins: the observability exports, byte for byte.

``python -m repro metrics --crash --json`` prints every counter and
histogram the registry holds and ``python -m repro trace --crash --last 3
--json`` the newest span trees, so a change that records a metric
where none was recorded before (a handle bound eagerly adds a zero
counter) or moves one phase sum shows up here even when every simulated
metric is unchanged.  Both outputs are the same under any
``PYTHONHASHSEED``; the files under ``fixtures/`` were written before the
metric handles and the child-list phase fold (DESIGN.md §6.18) went in.

Regenerate with ``make export-pins`` (``python -m tests.obs.test_export_pins``):
it rewrites both files from this tree and prints which pin moved.  A PR
that moves one says why.
"""

import os
import subprocess
import sys

import pytest

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: fixture file -> the ``python -m repro`` arguments whose stdout it holds.
PINS = {
    "metrics-crash.json": ["metrics", "--crash", "--json"],
    "trace-crash-last3.json": ["trace", "--crash", "--last", "3", "--json"],
}


def _export(arguments, hash_seed="1"):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE,
    ).stdout


def _pinned(name):
    with open(os.path.join(FIXTURES, name), "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(PINS))
@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_export_matches_the_pin(name, hash_seed):
    assert _export(PINS[name], hash_seed) == _pinned(name)


def main() -> int:
    """Rewrite both pins from this tree; print which moved."""
    moved = []
    for name, arguments in PINS.items():
        output = _export(arguments)
        if output != _pinned(name):
            moved.append(name)
            with open(os.path.join(FIXTURES, name), "wb") as handle:
                handle.write(output)
    print(f"export pins: {len(moved)} of {len(PINS)} moved"
          + (f" ({', '.join(moved)})" if moved else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
