"""Same-timestamp orderings for schedule exploration.

A :class:`~repro.simnet.environment.TiebreakPolicy` decides how events
scheduled for the same instant (and the same urgency class) are ordered
relative to one another.  The environment's default is FIFO; the policies
here replace that single ordering with a *chosen* one, which is how the
checker samples many legal interleavings of the same scenario:

* :class:`FifoTiebreak` — the identity policy (explicit baseline);
* :class:`SeededShuffleTiebreak` — every event draws a random rank from a
  private seeded stream, uniformly permuting each same-timestamp class;
* :class:`AdversarialDelayTiebreak` — events scheduled by a *victim*
  process (matched by substring on the process name) sort after all of
  their same-timestamp peers, modelling a consistently slow or
  starved participant.

All three are pure functions of (policy state, scheduling sequence), so a
run under any of them is exactly as deterministic and replayable as a
FIFO run: rebuild the policy from its spec and the same schedule falls
out.  Specs are plain JSON dicts (``{"kind": "shuffle", "seed": 7}``) so
repro files can round-trip them.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from ..simnet.environment import Environment, TiebreakPolicy
from ..simnet.events import Event

__all__ = [
    "FifoTiebreak",
    "SeededShuffleTiebreak",
    "AdversarialDelayTiebreak",
    "build_tiebreak",
]

#: Shuffle ranks are drawn below this bound; the adversarial policy uses
#: the bound itself so a delayed event outranks every shuffled peer.
_RANK_BOUND = 1 << 16


class FifoTiebreak(TiebreakPolicy):
    """Scheduling order (the environment default, made explicit)."""

    def key(self, env: Environment, urgent: bool, event: Event) -> int:
        return 0


class SeededShuffleTiebreak(TiebreakPolicy):
    """Uniformly permute every same-timestamp class of events.

    Each scheduled event draws its rank from a private
    :class:`random.Random` stream — independent of the simulation's
    :class:`~repro.simnet.rng.RngRegistry`, so installing the policy
    perturbs *ordering only*, never the payload randomness (latencies,
    churn samples) of the run it perturbs.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = random.Random(f"tiebreak-shuffle:{self.seed}")

    def key(self, env: Environment, urgent: bool, event: Event) -> int:
        return self._rng.randrange(_RANK_BOUND)


class AdversarialDelayTiebreak(TiebreakPolicy):
    """Starve one participant: its events always lose the tiebreak.

    ``victim`` is matched as a substring of the *scheduling* process name
    (processes spawned by a node default to ``"<host>/proc"``, so a host
    name tags everything that host does).  Events scheduled outside any
    process (timer callbacks, injected stimuli) keep FIFO order.
    """

    def __init__(self, victim: str):
        if not victim:
            raise ValueError("adversarial tiebreak needs a victim substring")
        self.victim = victim

    def key(self, env: Environment, urgent: bool, event: Event) -> int:
        process = env.active_process
        if process is not None and process.name and self.victim in process.name:
            return _RANK_BOUND
        return 0


def build_tiebreak(spec: Optional[Dict[str, Any]]) -> Optional[TiebreakPolicy]:
    """Rebuild a policy from its JSON spec (``None``/``fifo`` -> ``None``).

    Returning ``None`` for FIFO keeps the environment on its zero-cost
    default path; a fresh policy instance is built otherwise so replays
    never share mutable stream state with the run that produced the spec.
    """
    if spec is None:
        return None
    kind = spec.get("kind", "fifo")
    if kind == "fifo":
        return None
    if kind == "shuffle":
        return SeededShuffleTiebreak(spec["seed"])
    if kind == "adversarial":
        return AdversarialDelayTiebreak(spec["victim"])
    raise ValueError(f"unknown tiebreak kind {kind!r}")
