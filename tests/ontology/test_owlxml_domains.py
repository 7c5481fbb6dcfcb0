"""Unit tests for OWL XML round-tripping and the sample domain ontologies."""

import pytest

from repro.ontology import (
    B2B,
    LEGACY,
    SM,
    ConceptMatcher,
    DegreeOfMatch,
    OwlParseError,
    Reasoner,
    b2b_ontology,
    enterprise_ontology,
    ontology_from_xml,
    ontology_to_xml,
    university_ontology,
)


class TestOwlXml:
    def test_roundtrip_preserves_structure(self):
        original = b2b_ontology()
        parsed = ontology_from_xml(ontology_to_xml(original))
        assert set(parsed.concepts) == set(original.concepts)
        for uri, concept in original.concepts.items():
            assert parsed.concepts[uri].parents == concept.parents
            assert parsed.concepts[uri].equivalents == concept.equivalents
        assert set(parsed.properties) == set(original.properties)

    def test_roundtrip_preserves_labels(self):
        original = university_ontology()
        parsed = ontology_from_xml(ontology_to_xml(original))
        assert parsed.concepts[SM["StudentID"]].label == "Student ID"

    def test_malformed_xml_rejected(self):
        with pytest.raises(OwlParseError):
            ontology_from_xml("<not-closed")

    def test_wrong_root_rejected(self):
        with pytest.raises(OwlParseError):
            ontology_from_xml("<html/>")

    def test_missing_header_rejected(self):
        document = (
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>'
        )
        with pytest.raises(OwlParseError):
            ontology_from_xml(document)


class TestDomains:
    def test_university_valid(self):
        assert university_ontology().validate() == []

    def test_enterprise_valid(self):
        assert enterprise_ontology().validate() == []

    def test_merged_valid(self):
        assert b2b_ontology().validate() == []

    def test_paper_scenario_concepts_present(self):
        onto = university_ontology()
        for concept in ("StudentInformation", "StudentID", "StudentInfo"):
            assert onto.has_concept(SM[concept])

    def test_studentid_studentnumber_synonyms(self):
        reasoner = Reasoner(university_ontology())
        assert reasoner.equivalent(SM["StudentID"], SM["StudentNumber"])

    def test_homonyms_do_not_match_semantically(self):
        """legacy:StudentInformation shares only the local name."""
        matcher = ConceptMatcher(Reasoner(b2b_ontology()))
        match = matcher.match_concepts(
            SM["StudentInformation"], LEGACY["StudentInformation"]
        )
        assert match.degree is DegreeOfMatch.FAIL

    def test_b2b_claim_concepts(self):
        reasoner = Reasoner(enterprise_ontology())
        assert reasoner.is_subsumed_by(B2B["FileClaim"], B2B["ClaimProcessing"])
        assert reasoner.equivalent(B2B["ProcessClaim"], B2B["AssessClaim"])

    def test_namespaces_bound_in_merged(self):
        onto = b2b_ontology()
        assert onto.namespaces.resolve("sm:Student") == SM["Student"]
        assert onto.namespaces.resolve("legacy:Payload") == LEGACY["Payload"]
