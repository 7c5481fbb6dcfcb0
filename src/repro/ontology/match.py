"""Degree-of-match between advertised and requested concepts.

Whisper's SWS-proxy matches the *action*, *input*, and *output* annotations
of a Web service against those of JXTA peer-group advertisements (§3.2's
``findPeerGroupAdv`` listing compares ``get_sem_action``, ``get_sem_input``
and ``get_sem_output``).  We implement the classic four-level degree of
match from the METEOR-S / OWL-S matchmaking literature the paper builds on:

* **EXACT** — the concepts are identical or declared equivalent;
* **PLUGIN** — the advertisement is more specific than the request (the
  advertised concept is subsumed by the requested one), so the provider can
  be "plugged in";
* **SUBSUME** — the advertisement is more general than the request;
* **FAIL** — no subsumption relation at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .reasoner import Reasoner

__all__ = ["DegreeOfMatch", "ConceptMatch", "SignatureMatch", "ConceptMatcher"]

#: Most signature pairs :meth:`ConceptMatcher.match_signature` remembers
#: (oldest dropped first): advertisements arrive from remote peers, so the
#: memo is bounded whatever they carry.  A deployment needs a handful.
SIGNATURE_MEMO_LIMIT = 1024


class DegreeOfMatch(enum.IntEnum):
    """Ordered match quality: higher is better."""

    FAIL = 0
    SUBSUME = 1
    PLUGIN = 2
    EXACT = 3


@dataclass(frozen=True)
class ConceptMatch:
    """The outcome of matching one advertised concept against one request."""

    requested: str
    advertised: str
    degree: DegreeOfMatch
    similarity: float

    @property
    def succeeded(self) -> bool:
        return self.degree is not DegreeOfMatch.FAIL


@dataclass(frozen=True)
class SignatureMatch:
    """Aggregate match of a full service signature (action + IO concepts)."""

    action: ConceptMatch
    inputs: Tuple[ConceptMatch, ...]
    outputs: Tuple[ConceptMatch, ...]
    #: The weakest component bounds the whole signature.
    degree: DegreeOfMatch = field(init=False)
    #: Mean similarity across every component, for ranking candidates.
    score: float = field(init=False)

    def __post_init__(self) -> None:
        parts = (self.action, *self.inputs, *self.outputs)
        object.__setattr__(self, "degree", min(match.degree for match in parts))
        object.__setattr__(
            self, "score", sum([match.similarity for match in parts]) / len(parts)
        )

    @property
    def succeeded(self) -> bool:
        return self.degree is not DegreeOfMatch.FAIL


class ConceptMatcher:
    """Matches concept URIs using a reasoner over a shared ontology."""

    def __init__(self, reasoner: Reasoner):
        self.reasoner = reasoner
        #: ``match_signature`` answers for one ``Ontology.version``, keyed
        #: on the six signature tuples, oldest first.
        self._signature_memo: Dict[tuple, SignatureMatch] = {}
        self._memo_version = reasoner.ontology.version

    # -- single concepts ------------------------------------------------------------

    def match_concepts(self, requested: str, advertised: str) -> ConceptMatch:
        """Classify the relation of one advertised concept to one request."""
        reasoner = self.reasoner
        if requested == advertised or reasoner.equivalent(requested, advertised):
            degree = DegreeOfMatch.EXACT
        elif reasoner.is_subsumed_by(advertised, requested):
            degree = DegreeOfMatch.PLUGIN
        elif reasoner.is_subsumed_by(requested, advertised):
            degree = DegreeOfMatch.SUBSUME
        else:
            degree = DegreeOfMatch.FAIL
        return ConceptMatch(
            requested=requested,
            advertised=advertised,
            degree=degree,
            similarity=reasoner.similarity(requested, advertised),
        )

    # -- concept lists (service inputs/outputs) ------------------------------------------

    def match_concept_lists(
        self, requested: Sequence[str], advertised: Sequence[str]
    ) -> List[ConceptMatch]:
        """Greedy one-to-one assignment of advertised to requested concepts.

        Every requested concept must be covered; each advertised concept may
        cover at most one request.  The greedy order maximises total degree
        first, similarity second — adequate for the small signatures in WSDL
        interfaces (and deterministic).
        """
        remaining = list(advertised)
        matches: List[ConceptMatch] = []
        for request in requested:
            candidates = [self.match_concepts(request, offer) for offer in remaining]
            if not candidates:
                matches.append(
                    ConceptMatch(request, "", DegreeOfMatch.FAIL, 0.0)
                )
                continue
            best = max(candidates, key=lambda m: (m.degree, m.similarity))
            matches.append(best)
            if best.succeeded:
                remaining.remove(best.advertised)
        return matches

    # -- full signatures ---------------------------------------------------------------

    def match_signature(
        self,
        requested_action: str,
        requested_inputs: Sequence[str],
        requested_outputs: Sequence[str],
        advertised_action: str,
        advertised_inputs: Sequence[str],
        advertised_outputs: Sequence[str],
    ) -> SignatureMatch:
        """Match a full (action, inputs, outputs) signature.

        Direction conventions follow the matchmaking literature: for
        *outputs* the provider should offer something at least as specific
        as requested (PLUGIN is good); for *inputs* the provider must accept
        what the requester supplies, so the advertised input should be the
        *same or more general* — we therefore match inputs with the roles
        swapped and mirror the degree.

        A pure function of the six arguments and the ontology, so computed
        once per signature pair and ``Ontology.version``: the proxy's
        per-request ``findPeerGroupAdv`` scan is one lookup per advertisement.
        """
        version = self.reasoner.ontology.version
        if version != self._memo_version:
            self._memo_version = version
            self._signature_memo.clear()
        key = (
            requested_action,
            tuple(requested_inputs),
            tuple(requested_outputs),
            advertised_action,
            tuple(advertised_inputs),
            tuple(advertised_outputs),
        )
        signature = self._signature_memo.get(key)
        if signature is not None:
            return signature
        action = self.match_concepts(requested_action, advertised_action)
        outputs = tuple(self.match_concept_lists(requested_outputs, advertised_outputs))
        raw_inputs = self.match_concept_lists(advertised_inputs, requested_inputs)
        inputs = tuple(
            ConceptMatch(
                requested=match.advertised,
                advertised=match.requested,
                degree=match.degree,
                similarity=match.similarity,
            )
            for match in raw_inputs
        )
        signature = SignatureMatch(action=action, inputs=inputs, outputs=outputs)
        if len(self._signature_memo) >= SIGNATURE_MEMO_LIMIT:
            del self._signature_memo[next(iter(self._signature_memo))]
        self._signature_memo[key] = signature
        return signature
