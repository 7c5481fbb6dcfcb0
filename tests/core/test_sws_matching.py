"""Unit tests for semantic web services and group matching."""

import pytest

from repro.core import AnnotationError, SemanticGroupMatcher, SemanticWebService, SyntacticGroupMatcher
from repro.ontology import (
    B2B,
    LEGACY,
    SM,
    ConceptMatcher,
    DegreeOfMatch,
    Reasoner,
    b2b_ontology,
)
from repro.p2p import PeerGroupId, SemanticAdvertisement
from repro.wsdl import (
    Definitions,
    Interface,
    MessagePart,
    Operation,
    student_management_wsdl,
)
from repro.wsdl.annotations import SemanticAnnotation


@pytest.fixture(scope="module")
def ontology():
    return b2b_ontology()


@pytest.fixture(scope="module")
def matcher(ontology):
    return ConceptMatcher(Reasoner(ontology))


def _adv(name, action, inputs, outputs):
    return SemanticAdvertisement(
        group_id=PeerGroupId.from_name(name),
        name=name,
        action=action,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
    )


STUDENT_ANNOTATION = SemanticAnnotation(
    action=SM["StudentInformation"],
    inputs=(SM["StudentID"],),
    outputs=(SM["StudentInfo"],),
)


class TestSemanticWebService:
    def test_valid_service(self, ontology):
        sws = SemanticWebService(student_management_wsdl(), ontology)
        assert sws.operations() == ["StudentInformation"]
        assert sws.get_sem_action("StudentInformation") == SM["StudentInformation"]
        assert sws.get_sem_input("StudentInformation") == (SM["StudentID"],)
        assert sws.get_sem_output("StudentInformation") == (SM["StudentInfo"],)

    def test_unannotated_service_rejected(self, ontology):
        definitions = Definitions(name="Bare", target_namespace="http://t")
        interface = Interface(name="I")
        interface.add_operation(
            Operation(name="Op", inputs=[MessagePart("in", "tns:In")])
        )
        definitions.add_interface(interface)
        with pytest.raises(AnnotationError):
            SemanticWebService(definitions, ontology)

    def test_unknown_concepts_rejected(self, ontology):
        definitions = student_management_wsdl()
        operation = definitions.single_interface().operation("StudentInformation")
        operation.action = "http://ghost.org/onto#Nothing"
        with pytest.raises(AnnotationError, match="missing"):
            SemanticWebService(definitions, ontology)

    def test_unknown_operation_rejected(self, ontology):
        sws = SemanticWebService(student_management_wsdl(), ontology)
        with pytest.raises(AnnotationError):
            sws.annotation("Ghost")

    def test_operation_declared_by_two_interfaces_rejected(self, ontology):
        """Otherwise ``operations()`` lists the name twice and ``operation()``
        silently answers with the first interface's declaration."""
        definitions = student_management_wsdl()
        original = definitions.single_interface().operation("StudentInformation")
        twin = Interface(name="StudentManagementMirror")
        twin.add_operation(
            Operation(
                name=original.name,
                inputs=list(original.inputs),
                outputs=list(original.outputs),
                action=original.action,
            )
        )
        definitions.add_interface(twin)
        with pytest.raises(AnnotationError, match="declared twice"):
            SemanticWebService(definitions, ontology)

    def test_accessors_answer_from_the_constructor_table(self, ontology):
        definitions = student_management_wsdl()
        sws = SemanticWebService(definitions, ontology)
        operation = definitions.single_interface().operation("StudentInformation")
        assert sws.operation("StudentInformation") is operation
        assert "StudentInformation" in sws and "Ghost" not in sws
        with pytest.raises(AnnotationError):
            sws.operation("Ghost")
        assert sws.annotation("StudentInformation") == operation.annotation()
        # One annotation object per operation, not one per call.
        assert sws.annotation("StudentInformation") is sws.annotation(
            "StudentInformation"
        )


class TestSemanticGroupMatcher:
    def test_exact_advertisement_matches(self, matcher):
        group_matcher = SemanticGroupMatcher(matcher)
        advertisement = _adv(
            "students", SM["StudentInformation"], [SM["StudentID"]], [SM["StudentInfo"]]
        )
        match = group_matcher.match(STUDENT_ANNOTATION, advertisement)
        assert match is not None
        assert match.degree is DegreeOfMatch.EXACT

    def test_synonym_advertisement_matches_exactly(self, matcher):
        """StudentNumber ≡ StudentID and StudentRecord ≡ StudentInfo."""
        group_matcher = SemanticGroupMatcher(matcher)
        advertisement = _adv(
            "students-syn",
            SM["StudentInformation"],
            [SM["StudentNumber"]],
            [SM["StudentRecord"]],
        )
        match = group_matcher.match(STUDENT_ANNOTATION, advertisement)
        assert match is not None
        assert match.degree is DegreeOfMatch.EXACT

    def test_homonym_advertisement_rejected(self, matcher):
        """legacy:StudentInformation has the same local name, different semantics."""
        group_matcher = SemanticGroupMatcher(matcher)
        advertisement = _adv(
            "marketing",
            LEGACY["StudentInformation"],
            [LEGACY["StudentID"]],
            [LEGACY["StudentInfo"]],
        )
        assert group_matcher.match(STUDENT_ANNOTATION, advertisement) is None

    def test_unrelated_advertisement_rejected(self, matcher):
        group_matcher = SemanticGroupMatcher(matcher)
        advertisement = _adv(
            "claims", B2B["ProcessClaim"], [B2B["ClaimID"]], [B2B["ClaimReport"]]
        )
        assert group_matcher.match(STUDENT_ANNOTATION, advertisement) is None

    def test_min_degree_gates_plugin(self, matcher):
        advertisement = _adv(
            "transcripts",
            SM["StudentTranscriptRetrieval"],  # more specific action
            [SM["StudentID"]],
            [SM["StudentTranscript"]],  # more specific output
        )
        exact_only = SemanticGroupMatcher(matcher, min_degree=DegreeOfMatch.EXACT)
        assert exact_only.match(STUDENT_ANNOTATION, advertisement) is None
        plugin_ok = SemanticGroupMatcher(matcher, min_degree=DegreeOfMatch.PLUGIN)
        match = plugin_ok.match(STUDENT_ANNOTATION, advertisement)
        assert match is not None
        assert match.degree is DegreeOfMatch.PLUGIN

    def test_find_all_orders_best_first(self, matcher):
        group_matcher = SemanticGroupMatcher(matcher, min_degree=DegreeOfMatch.PLUGIN)
        exact = _adv("exact", SM["StudentInformation"], [SM["StudentID"]], [SM["StudentInfo"]])
        plugin = _adv(
            "plugin",
            SM["StudentTranscriptRetrieval"],
            [SM["StudentID"]],
            [SM["StudentTranscript"]],
        )
        matches = group_matcher.find_all(STUDENT_ANNOTATION, [plugin, exact])
        assert [m.advertisement.name for m in matches] == ["exact", "plugin"]

    def test_find_best_none_when_empty(self, matcher):
        group_matcher = SemanticGroupMatcher(matcher)
        assert group_matcher.find_best(STUDENT_ANNOTATION, []) is None


class TestSyntacticBaseline:
    def test_homonym_false_positive(self):
        """The syntactic matcher is fooled by the legacy homonym — the
        behaviour §3.1 calls 'high recall and low precision'."""
        syntactic = SyntacticGroupMatcher()
        homonym = _adv(
            "marketing",
            LEGACY["StudentInformation"],
            [LEGACY["StudentID"]],
            [LEGACY["StudentInfo"]],
        )
        assert syntactic.match(STUDENT_ANNOTATION, homonym) is not None

    def test_synonym_false_negative(self):
        """...and misses the synonym advertisement semantics would accept."""
        syntactic = SyntacticGroupMatcher()
        synonym = _adv(
            "students-syn",
            SM["StudentInformation"],
            [SM["StudentNumber"]],
            [SM["StudentRecord"]],
        )
        assert syntactic.match(STUDENT_ANNOTATION, synonym) is None

    def test_true_positive_still_found(self):
        syntactic = SyntacticGroupMatcher()
        exact = _adv(
            "students", SM["StudentInformation"], [SM["StudentID"]], [SM["StudentInfo"]]
        )
        assert syntactic.match(STUDENT_ANNOTATION, exact) is not None

    def test_different_names_rejected(self):
        syntactic = SyntacticGroupMatcher()
        other = _adv("claims", B2B["ProcessClaim"], [B2B["ClaimID"]], [B2B["ClaimReport"]])
        assert syntactic.match(STUDENT_ANNOTATION, other) is None
