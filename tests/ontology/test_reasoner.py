"""Unit tests for subsumption/equivalence reasoning."""

import pytest

from repro.ontology import Ontology, Reasoner

T = "http://t.org/o#"


@pytest.fixture
def reasoner():
    onto = Ontology("http://t.org/o")
    onto.add_concept(T + "Thing")
    onto.add_concept(T + "Record", parents=[T + "Thing"])
    onto.add_concept(T + "StudentInfo", parents=[T + "Record"])
    onto.add_concept(T + "StudentRecord", parents=[T + "Record"])
    onto.add_equivalence(T + "StudentInfo", T + "StudentRecord")
    onto.add_concept(T + "Transcript", parents=[T + "StudentInfo"])
    onto.add_concept(T + "ContactInfo", parents=[T + "StudentInfo"])
    onto.add_concept(T + "Unrelated")
    return Reasoner(onto)


class TestSubsumption:
    def test_reflexive(self, reasoner):
        assert reasoner.is_subsumed_by(T + "Record", T + "Record")

    def test_direct(self, reasoner):
        assert reasoner.is_subsumed_by(T + "StudentInfo", T + "Record")

    def test_transitive(self, reasoner):
        assert reasoner.is_subsumed_by(T + "Transcript", T + "Thing")

    def test_not_symmetric(self, reasoner):
        assert not reasoner.is_subsumed_by(T + "Record", T + "Transcript")

    def test_unrelated(self, reasoner):
        assert not reasoner.is_subsumed_by(T + "Unrelated", T + "Record")

    def test_through_equivalence(self, reasoner):
        # Transcript ⊑ StudentInfo ≡ StudentRecord, so Transcript ⊑ StudentRecord.
        assert reasoner.is_subsumed_by(T + "Transcript", T + "StudentRecord")

    def test_subsumes_is_inverse(self, reasoner):
        assert reasoner.subsumes(T + "Record", T + "Transcript")

    def test_descendants(self, reasoner):
        descendants = reasoner.descendants(T + "StudentInfo")
        assert T + "Transcript" in descendants
        assert T + "ContactInfo" in descendants
        assert T + "StudentRecord" in descendants  # equivalent
        assert T + "Record" not in descendants

    def test_unknown_concept_has_trivial_ancestors(self, reasoner):
        assert reasoner.ancestors(T + "Ghost") == {T + "Ghost"}


class TestEquivalence:
    def test_reflexive(self, reasoner):
        assert reasoner.equivalent(T + "Record", T + "Record")

    def test_declared(self, reasoner):
        assert reasoner.equivalent(T + "StudentInfo", T + "StudentRecord")
        assert reasoner.equivalent(T + "StudentRecord", T + "StudentInfo")

    def test_unknown_concepts_not_equivalent(self, reasoner):
        assert not reasoner.equivalent(T + "Ghost", T + "Record")

    def test_equivalence_class(self, reasoner):
        cls = reasoner.equivalence_class(T + "StudentInfo")
        assert cls == {T + "StudentInfo", T + "StudentRecord"}

    def test_transitive_equivalence_chain(self):
        onto = Ontology("http://t.org/o")
        for name in ("A", "B", "C"):
            onto.add_concept(T + name)
        onto.add_equivalence(T + "A", T + "B")
        onto.add_equivalence(T + "B", T + "C")
        reasoner = Reasoner(onto)
        assert reasoner.equivalent(T + "A", T + "C")


class TestDepthAndSimilarity:
    def test_root_depth_zero(self, reasoner):
        assert reasoner.depth(T + "Thing") == 0

    def test_depth_counts_longest_chain(self, reasoner):
        assert reasoner.depth(T + "Transcript") == 3

    def test_lca_of_siblings(self, reasoner):
        lcas = reasoner.least_common_ancestors(T + "Transcript", T + "ContactInfo")
        assert T + "StudentInfo" in lcas or T + "StudentRecord" in lcas

    def test_no_common_ancestor(self, reasoner):
        assert reasoner.least_common_ancestors(T + "Unrelated", T + "Ghost") == set()

    def test_similarity_equivalent_is_one(self, reasoner):
        assert reasoner.similarity(T + "StudentInfo", T + "StudentRecord") == 1.0

    def test_similarity_unrelated_is_zero(self, reasoner):
        assert reasoner.similarity(T + "Unrelated", T + "Ghost") == 0.0

    def test_similarity_siblings_between(self, reasoner):
        similarity = reasoner.similarity(T + "Transcript", T + "ContactInfo")
        assert 0.0 < similarity < 1.0

    def test_similarity_parent_child_high(self, reasoner):
        parent_child = reasoner.similarity(T + "StudentInfo", T + "Transcript")
        siblings = reasoner.similarity(T + "Transcript", T + "ContactInfo")
        assert parent_child >= siblings

    def test_invalidate_after_mutation(self, reasoner):
        # Every mutator bumps Ontology.version; no invalidate() call needed.
        assert not reasoner.is_subsumed_by(T + "Unrelated", T + "Thing")
        reasoner.ontology.add_subclass(T + "Unrelated", T + "Thing")
        assert reasoner.is_subsumed_by(T + "Unrelated", T + "Thing")

    def test_every_mutator_drops_every_cache(self, reasoner):
        onto = reasoner.ontology
        assert reasoner.depth(T + "Unrelated") == 0
        assert not reasoner.equivalent(T + "Unrelated", T + "Record")
        onto.add_equivalence(T + "Unrelated", T + "Record")
        assert reasoner.equivalent(T + "Unrelated", T + "Record")
        assert reasoner.is_subsumed_by(T + "Unrelated", T + "Thing")
        onto.add_concept(T + "Unrelated", parents=[T + "Transcript"])
        assert reasoner.depth(T + "Unrelated") == 4
        other = Ontology("http://t.org/other")
        other.add_subclass(T + "Thing", T + "Top")
        onto.merge(other)
        assert reasoner.is_subsumed_by(T + "Transcript", T + "Top")
        assert reasoner.depth(T + "Unrelated") == 5

    def test_explicit_invalidate_covers_direct_concept_edits(self, reasoner):
        assert not reasoner.is_subsumed_by(T + "Unrelated", T + "Thing")
        reasoner.ontology.concepts[T + "Unrelated"].parents.add(T + "Thing")
        assert not reasoner.is_subsumed_by(T + "Unrelated", T + "Thing")  # unseen
        reasoner.invalidate()
        assert reasoner.is_subsumed_by(T + "Unrelated", T + "Thing")
