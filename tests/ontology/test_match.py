"""Unit tests for the degree-of-match machinery."""

import pytest

from repro.ontology import ConceptMatcher, DegreeOfMatch, Ontology, Reasoner
from repro.ontology.match import SIGNATURE_MEMO_LIMIT

from .match_oracle import ReferenceMatcher, assert_same_signature

T = "http://t.org/o#"


@pytest.fixture
def matcher():
    onto = Ontology("http://t.org/o")
    onto.add_concept(T + "Record")
    onto.add_concept(T + "StudentInfo", parents=[T + "Record"])
    onto.add_concept(T + "StudentRecord", parents=[T + "Record"])
    onto.add_equivalence(T + "StudentInfo", T + "StudentRecord")
    onto.add_concept(T + "Transcript", parents=[T + "StudentInfo"])
    onto.add_concept(T + "Identifier")
    onto.add_concept(T + "StudentID", parents=[T + "Identifier"])
    onto.add_concept(T + "Unrelated")
    return ConceptMatcher(Reasoner(onto))


class TestDegrees:
    def test_identical_is_exact(self, matcher):
        match = matcher.match_concepts(T + "Record", T + "Record")
        assert match.degree is DegreeOfMatch.EXACT
        assert match.similarity == 1.0

    def test_equivalent_is_exact(self, matcher):
        match = matcher.match_concepts(T + "StudentInfo", T + "StudentRecord")
        assert match.degree is DegreeOfMatch.EXACT

    def test_advertised_more_specific_is_plugin(self, matcher):
        match = matcher.match_concepts(T + "StudentInfo", T + "Transcript")
        assert match.degree is DegreeOfMatch.PLUGIN

    def test_advertised_more_general_is_subsume(self, matcher):
        match = matcher.match_concepts(T + "Transcript", T + "StudentInfo")
        assert match.degree is DegreeOfMatch.SUBSUME

    def test_unrelated_is_fail(self, matcher):
        match = matcher.match_concepts(T + "StudentID", T + "Unrelated")
        assert match.degree is DegreeOfMatch.FAIL
        assert not match.succeeded

    def test_degree_ordering(self):
        assert DegreeOfMatch.EXACT > DegreeOfMatch.PLUGIN > DegreeOfMatch.SUBSUME > DegreeOfMatch.FAIL


class TestConceptLists:
    def test_one_to_one_assignment(self, matcher):
        matches = matcher.match_concept_lists(
            [T + "StudentID", T + "StudentInfo"],
            [T + "StudentInfo", T + "StudentID"],
        )
        assert all(m.degree is DegreeOfMatch.EXACT for m in matches)

    def test_each_advertised_used_once(self, matcher):
        matches = matcher.match_concept_lists(
            [T + "StudentInfo", T + "StudentInfo"],
            [T + "StudentInfo"],
        )
        degrees = sorted(m.degree for m in matches)
        assert degrees == [DegreeOfMatch.FAIL, DegreeOfMatch.EXACT]

    def test_missing_request_fails(self, matcher):
        matches = matcher.match_concept_lists([T + "StudentID"], [])
        assert matches[0].degree is DegreeOfMatch.FAIL

    def test_prefers_best_degree(self, matcher):
        matches = matcher.match_concept_lists(
            [T + "StudentInfo"],
            [T + "Transcript", T + "StudentRecord"],
        )
        assert matches[0].degree is DegreeOfMatch.EXACT
        assert matches[0].advertised == T + "StudentRecord"


class TestSignature:
    def _signature(self, matcher, adv_in, adv_out, adv_action=None):
        return matcher.match_signature(
            requested_action=adv_action or (T + "Record"),
            requested_inputs=[T + "StudentID"],
            requested_outputs=[T + "StudentInfo"],
            advertised_action=adv_action or (T + "Record"),
            advertised_inputs=adv_in,
            advertised_outputs=adv_out,
        )

    def test_exact_signature(self, matcher):
        signature = self._signature(matcher, [T + "StudentID"], [T + "StudentInfo"])
        assert signature.degree is DegreeOfMatch.EXACT
        assert signature.score == 1.0
        assert signature.succeeded

    def test_weakest_component_bounds_degree(self, matcher):
        signature = self._signature(matcher, [T + "StudentID"], [T + "Transcript"])
        assert signature.degree is DegreeOfMatch.PLUGIN

    def test_failed_output_fails_signature(self, matcher):
        signature = self._signature(matcher, [T + "StudentID"], [T + "Unrelated"])
        assert signature.degree is DegreeOfMatch.FAIL
        assert not signature.succeeded

    def test_input_direction_mirrored(self, matcher):
        """A provider accepting a *more general* input than requested can be
        plugged in: advertised Identifier accepts our StudentID."""
        signature = self._signature(matcher, [T + "Identifier"], [T + "StudentInfo"])
        assert signature.inputs[0].degree is DegreeOfMatch.PLUGIN

    def test_input_too_specific_is_subsume(self, matcher):
        """A provider demanding a more specific input than we supply is risky."""
        signature = matcher.match_signature(
            requested_action=T + "Record",
            requested_inputs=[T + "Identifier"],
            requested_outputs=[T + "StudentInfo"],
            advertised_action=T + "Record",
            advertised_inputs=[T + "StudentID"],
            advertised_outputs=[T + "StudentInfo"],
        )
        assert signature.inputs[0].degree is DegreeOfMatch.SUBSUME


class TestSignatureMemo:
    """match_signature is computed once per signature pair and ontology
    version (PR 15); the uncached body lives on in match_oracle.py."""

    SIGNATURE = (
        T + "Record", (T + "StudentID",), (T + "StudentInfo",),
        T + "Record", (T + "StudentID",), (T + "Transcript",),
    )

    def test_repeat_returns_the_stored_answer(self, matcher):
        first = matcher.match_signature(*self.SIGNATURE)
        assert matcher.match_signature(*self.SIGNATURE) is first
        # Lists and tuples spell the same signature.
        as_lists = [list(p) if isinstance(p, tuple) else p for p in self.SIGNATURE]
        assert matcher.match_signature(*as_lists) is first
        assert_same_signature(
            first, ReferenceMatcher(matcher.reasoner).match_signature(*self.SIGNATURE)
        )

    def test_ontology_mutation_invalidates(self, matcher):
        """The stale-answer bug through the matcher: PLUGIN before the
        edit, EXACT after, with no invalidate() call anywhere."""
        before = matcher.match_signature(*self.SIGNATURE)
        assert before.degree is DegreeOfMatch.PLUGIN
        matcher.reasoner.ontology.add_equivalence(T + "Transcript", T + "StudentInfo")
        after = matcher.match_signature(*self.SIGNATURE)
        assert after.degree is DegreeOfMatch.EXACT
        assert after.score == 1.0

    def test_explicit_invalidate_reaches_the_memo(self, matcher):
        assert matcher.match_signature(*self.SIGNATURE).degree is DegreeOfMatch.PLUGIN
        concepts = matcher.reasoner.ontology.concepts
        concepts[T + "Transcript"].equivalents.add(T + "StudentInfo")
        concepts[T + "StudentInfo"].equivalents.add(T + "Transcript")
        matcher.reasoner.invalidate()
        assert matcher.match_signature(*self.SIGNATURE).degree is DegreeOfMatch.EXACT

    def test_memo_is_bounded_and_drops_oldest(self, matcher):
        """Advertisements come from remote peers: 10x the limit in distinct
        synthetic signatures must not grow the memo past the constant."""
        def signature(index):
            return (
                T + "Record", (T + "StudentID",), (T + "StudentInfo",),
                f"{T}Action{index}", (f"{T}In{index}",), (f"{T}Out{index}",),
            )

        for index in range(10 * SIGNATURE_MEMO_LIMIT):
            matcher.match_signature(*signature(index))
            assert len(matcher._signature_memo) <= SIGNATURE_MEMO_LIMIT
        assert len(matcher._signature_memo) == SIGNATURE_MEMO_LIMIT
        newest = 10 * SIGNATURE_MEMO_LIMIT - 1
        assert signature(newest) in matcher._signature_memo
        assert signature(newest - SIGNATURE_MEMO_LIMIT) not in matcher._signature_memo
        # An evicted pair is simply recomputed, to the same answer.
        assert_same_signature(
            matcher.match_signature(*signature(0)),
            ReferenceMatcher(matcher.reasoner).match_signature(*signature(0)),
        )
