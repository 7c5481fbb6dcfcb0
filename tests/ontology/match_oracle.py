"""The uncached signature matcher, kept as the oracle.

Until PR 15 ``ConceptMatcher.match_signature`` recomputed the match on every
call and ``SignatureMatch.degree`` / ``.score`` were properties derived on
every read; ``repro.ontology.match`` now memoises the former per ontology
version and stores the latter at construction.  These are the old bodies,
unchanged, so the equivalence tests compare the memo against the
computation it must keep matching (and the counted guard can swap the
reasoner back onto the request path).
"""

from repro.ontology import ConceptMatch, ConceptMatcher, SignatureMatch


def oracle_degree(signature):
    """The weakest component bounds the whole signature."""
    parts = [signature.action.degree]
    parts.extend(match.degree for match in signature.inputs)
    parts.extend(match.degree for match in signature.outputs)
    return min(parts)


def oracle_score(signature):
    """Mean similarity across every component, for ranking candidates."""
    parts = [signature.action.similarity]
    parts.extend(match.similarity for match in signature.inputs)
    parts.extend(match.similarity for match in signature.outputs)
    return sum(parts) / len(parts)


class ReferenceMatcher(ConceptMatcher):
    """``match_signature`` as it was: every call goes to the reasoner."""

    def match_signature(
        self,
        requested_action,
        requested_inputs,
        requested_outputs,
        advertised_action,
        advertised_inputs,
        advertised_outputs,
    ):
        action = self.match_concepts(requested_action, advertised_action)
        outputs = tuple(
            self.match_concept_lists(list(requested_outputs), list(advertised_outputs))
        )
        raw_inputs = self.match_concept_lists(
            list(advertised_inputs), list(requested_inputs)
        )
        inputs = tuple(
            ConceptMatch(
                requested=match.advertised,
                advertised=match.requested,
                degree=match.degree,
                similarity=match.similarity,
            )
            for match in raw_inputs
        )
        return SignatureMatch(action=action, inputs=inputs, outputs=outputs)


def assert_same_signature(actual, expected):
    """Field-by-field equality, with degree/score checked against the old
    derivation rather than against each other's stored values."""
    assert actual.action == expected.action
    assert actual.inputs == expected.inputs
    assert actual.outputs == expected.outputs
    assert actual.degree is oracle_degree(expected)
    assert actual.score == oracle_score(expected)
