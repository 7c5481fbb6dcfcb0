"""Unit tests for the ontology container and validation."""

import pytest

from repro.ontology import Ontology, OntologyBuilder, OntologyError


@pytest.fixture
def ontology():
    onto = Ontology("http://t.org/o", label="Test")
    onto.add_concept("http://t.org/o#Thing")
    onto.add_concept("http://t.org/o#Animal", parents=["http://t.org/o#Thing"])
    onto.add_concept("http://t.org/o#Dog", parents=["http://t.org/o#Animal"])
    return onto


T = "http://t.org/o#"


class TestMutation:
    def test_add_concept_idempotent_extends(self, ontology):
        ontology.add_concept(T + "Dog", parents=[T + "Thing"])
        assert ontology.concept(T + "Dog").parents == {T + "Animal", T + "Thing"}

    def test_add_subclass_creates_both_sides(self):
        onto = Ontology("http://t.org/o")
        onto.add_subclass(T + "A", T + "B")
        assert onto.has_concept(T + "A")
        assert onto.has_concept(T + "B")

    def test_equivalence_is_symmetric(self, ontology):
        ontology.add_equivalence(T + "Dog", T + "Canine")
        assert T + "Canine" in ontology.concept(T + "Dog").equivalents
        assert T + "Dog" in ontology.concept(T + "Canine").equivalents

    def test_unknown_concept_raises(self, ontology):
        with pytest.raises(OntologyError):
            ontology.concept(T + "Ghost")


class TestQueries:
    def test_len_counts_concepts(self, ontology):
        assert len(ontology) == 3


class TestMerge:
    def test_merge_brings_concepts_and_axioms(self, ontology):
        other = Ontology("http://o.org/2")
        other.add_concept(T + "Cat", parents=[T + "Animal"])
        other.add_concept(T + "Animal")
        other.add_equivalence(T + "Cat", T + "Feline")
        ontology.merge(other)
        assert ontology.has_concept(T + "Cat")
        assert T + "Feline" in ontology.concept(T + "Cat").equivalents

    def test_merge_preserves_existing_parents(self, ontology):
        other = Ontology("http://o.org/2")
        other.add_concept(T + "Dog")  # no parents declared there
        ontology.merge(other)
        assert T + "Animal" in ontology.concept(T + "Dog").parents


class TestValidation:
    def test_valid_ontology_reports_nothing(self, ontology):
        assert ontology.validate() == []

    def test_undefined_parent_reported(self, ontology):
        ontology.concept(T + "Dog").parents.add(T + "Ghost")
        problems = ontology.validate()
        assert any("Ghost" in p for p in problems)

    def test_undefined_equivalent_reported(self, ontology):
        ontology.concept(T + "Dog").equivalents.add(T + "Ghost")
        assert any("Ghost" in p for p in ontology.validate())

    def test_cycle_without_equivalence_reported(self, ontology):
        ontology.add_subclass(T + "Animal", T + "Dog")  # Dog <-> Animal cycle
        problems = ontology.validate()
        assert any("cycle" in p for p in problems)

    def test_cycle_with_equivalence_accepted(self, ontology):
        ontology.add_subclass(T + "Animal", T + "Dog")
        ontology.add_equivalence(T + "Animal", T + "Dog")
        assert not any("cycle" in p for p in ontology.validate())

    def test_undefined_property_domain_reported(self, ontology):
        ontology.add_property(T + "hasTail", domain=T + "Ghost")
        assert any("domain" in p for p in ontology.validate())


class TestBuilder:
    def test_builder_resolves_curies(self):
        builder = OntologyBuilder("http://t.org/o")
        builder.namespace("t", T)
        builder.concept("t:A")
        builder.concept("t:B", parents=["t:A"])
        onto = builder.build()
        assert onto.concept(T + "B").parents == {T + "A"}

    def test_builder_rejects_invalid(self):
        builder = OntologyBuilder("http://t.org/o")
        builder.namespace("t", T)
        builder.concept("t:B", parents=["t:Missing"])
        with pytest.raises(ValueError):
            builder.build()
