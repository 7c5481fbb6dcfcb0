"""Semantic (and syntactic baseline) discovery of b-peer groups.

This is the paper's §3.2 ``findPeerGroupAdv``: scan advertisements for one
whose *action* matches the Web service's functional semantics and whose
*inputs/outputs* match its data semantics.  We generalise equality to the
four-level degree of match (:mod:`repro.ontology.match`), configurable via
``min_degree`` (the paper's listing corresponds to ``EXACT``).

A *syntactic* matcher (local-name comparison, as plain WSDL/JXTA would do)
is provided as the ablation baseline; §3.1/§4.3 predict it suffers "high
recall and low precision" on homonyms and misses synonyms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..ontology.match import ConceptMatcher, DegreeOfMatch, SignatureMatch
from ..ontology.namespaces import split_uri
from ..p2p.advertisement import SemanticAdvertisement
from ..wsdl.annotations import SemanticAnnotation

__all__ = ["GroupMatch", "SemanticGroupMatcher", "SyntacticGroupMatcher"]


@dataclass(frozen=True)
class GroupMatch:
    """One advertisement that satisfied the matcher, with its quality."""

    advertisement: SemanticAdvertisement
    degree: DegreeOfMatch
    score: float
    signature: Optional[SignatureMatch] = None


class SemanticGroupMatcher:
    """Matches service annotations against semantic advertisements."""

    def __init__(
        self,
        matcher: ConceptMatcher,
        min_degree: DegreeOfMatch = DegreeOfMatch.EXACT,
    ):
        self.matcher = matcher
        self.min_degree = min_degree

    def match(
        self,
        annotation: SemanticAnnotation,
        advertisement: SemanticAdvertisement,
    ) -> Optional[GroupMatch]:
        """The §3.2 check: action, then input, then output semantics."""
        signature = self.matcher.match_signature(
            requested_action=annotation.action,
            requested_inputs=annotation.inputs,
            requested_outputs=annotation.outputs,
            advertised_action=advertisement.get_sem_action(),
            advertised_inputs=advertisement.get_sem_input(),
            advertised_outputs=advertisement.get_sem_output(),
        )
        if signature.degree < self.min_degree:
            return None
        return GroupMatch(
            advertisement=advertisement,
            degree=signature.degree,
            score=signature.score,
            signature=signature,
        )

    def find_all(
        self,
        annotation: SemanticAnnotation,
        advertisements: Sequence[SemanticAdvertisement],
    ) -> List[GroupMatch]:
        """Every matching advertisement, best first."""
        matches = []
        for advertisement in advertisements:
            match = self.match(annotation, advertisement)
            if match is not None:
                matches.append(match)
        matches.sort(
            key=lambda m: (-m.degree, -m.score, m.advertisement.key())
        )
        return matches

    def find_best(
        self,
        annotation: SemanticAnnotation,
        advertisements: Sequence[SemanticAdvertisement],
    ) -> Optional[GroupMatch]:
        matches = self.find_all(annotation, advertisements)
        return matches[0] if matches else None


class SyntacticGroupMatcher:
    """The baseline plain-WSDL/JXTA matcher: local names only.

    Compares the *local names* of the action/input/output URIs, ignoring
    namespaces and ontology structure — the behaviour of keyword search
    over JXTA's default advertisement index.  Homonyms collide; synonyms
    are missed.
    """

    def match(
        self,
        annotation: SemanticAnnotation,
        advertisement: SemanticAdvertisement,
    ) -> Optional[GroupMatch]:
        if _local(annotation.action) != _local(advertisement.get_sem_action()):
            return None
        if _local_multiset(annotation.inputs) != _local_multiset(
            advertisement.get_sem_input()
        ):
            return None
        if _local_multiset(annotation.outputs) != _local_multiset(
            advertisement.get_sem_output()
        ):
            return None
        return GroupMatch(
            advertisement=advertisement,
            degree=DegreeOfMatch.EXACT,  # syntactically "exact" — maybe wrongly
            score=1.0,
        )

    def find_all(
        self,
        annotation: SemanticAnnotation,
        advertisements: Sequence[SemanticAdvertisement],
    ) -> List[GroupMatch]:
        matches = [
            match
            for advertisement in advertisements
            if (match := self.match(annotation, advertisement)) is not None
        ]
        matches.sort(key=lambda m: m.advertisement.key())
        return matches


def _local(uri: str) -> str:
    return split_uri(uri)[1]


def _local_multiset(uris: Sequence[str]) -> Tuple[str, ...]:
    return tuple(sorted(_local(uri) for uri in uris))
