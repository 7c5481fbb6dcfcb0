"""Seeded random-number utilities.

Every stochastic component in the simulator draws from a named child stream
of one root seed, so that adding a new random consumer does not perturb the
draws seen by existing consumers (a standard trick for reproducible
discrete-event simulation).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngRegistry"]


class RngRegistry:
    """A factory for independent, deterministically seeded RNG streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the RNG stream for ``name``, creating it on first use.

        The stream's seed is derived from ``(root_seed, name)`` via SHA-256,
        so streams are independent of the order in which they are created.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]
