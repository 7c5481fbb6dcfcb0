"""Property-based tests: ontology reasoning invariants on random DAGs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ontology import ConceptMatcher, DegreeOfMatch, Ontology, Reasoner

from ..ontology.match_oracle import ReferenceMatcher, assert_same_signature

NS = "http://prop.test/o#"


@st.composite
def ontologies(draw):
    """Random acyclic ontologies: parents only point to lower indices
    (guaranteeing acyclicity), plus a few equivalences between roots."""
    size = draw(st.integers(min_value=2, max_value=14))
    onto = Ontology("http://prop.test/o")
    names = [f"{NS}C{i}" for i in range(size)]
    for index, name in enumerate(names):
        parent_count = draw(st.integers(min_value=0, max_value=min(2, index)))
        parents = draw(
            st.lists(
                st.sampled_from(names[:index]) if index else st.nothing(),
                min_size=parent_count,
                max_size=parent_count,
                unique=True,
            )
        ) if index else []
        onto.add_concept(name, parents=parents)
    # A couple of equivalences between same-generation concepts.
    eq_count = draw(st.integers(min_value=0, max_value=2))
    for _ in range(eq_count):
        a = draw(st.sampled_from(names))
        b = draw(st.sampled_from(names))
        onto.add_equivalence(a, b)
    return onto


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_subsumption_is_reflexive(onto):
    reasoner = Reasoner(onto)
    for uri in onto.concepts:
        assert reasoner.is_subsumed_by(uri, uri)


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_subsumption_is_transitive(onto):
    reasoner = Reasoner(onto)
    uris = sorted(onto.concepts)
    for a in uris:
        for b in reasoner.ancestors(a):
            for c in reasoner.ancestors(b):
                assert reasoner.is_subsumed_by(a, c)


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_equivalence_is_an_equivalence_relation(onto):
    reasoner = Reasoner(onto)
    uris = sorted(onto.concepts)
    for a in uris:
        assert reasoner.equivalent(a, a)
        for b in uris:
            assert reasoner.equivalent(a, b) == reasoner.equivalent(b, a)
    # Transitivity via equivalence classes.
    for a in uris:
        cls = reasoner.equivalence_class(a)
        for b in cls:
            assert reasoner.equivalence_class(b) == cls


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_equivalent_concepts_subsume_each_other(onto):
    reasoner = Reasoner(onto)
    for a in sorted(onto.concepts):
        for b in reasoner.equivalence_class(a):
            assert reasoner.is_subsumed_by(a, b)
            assert reasoner.is_subsumed_by(b, a)


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_similarity_symmetric_and_bounded(onto):
    reasoner = Reasoner(onto)
    uris = sorted(onto.concepts)[:8]
    for a in uris:
        for b in uris:
            s_ab = reasoner.similarity(a, b)
            s_ba = reasoner.similarity(b, a)
            assert 0.0 <= s_ab <= 1.0
            assert abs(s_ab - s_ba) < 1e-12
    for a in uris:
        assert reasoner.similarity(a, a) == 1.0


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_match_degree_consistent_with_subsumption(onto):
    reasoner = Reasoner(onto)
    matcher = ConceptMatcher(reasoner)
    uris = sorted(onto.concepts)[:8]
    for requested in uris:
        for advertised in uris:
            degree = matcher.match_concepts(requested, advertised).degree
            if reasoner.equivalent(requested, advertised):
                assert degree is DegreeOfMatch.EXACT
            elif reasoner.is_subsumed_by(advertised, requested):
                assert degree is DegreeOfMatch.PLUGIN
            elif reasoner.is_subsumed_by(requested, advertised):
                assert degree is DegreeOfMatch.SUBSUME
            else:
                assert degree is DegreeOfMatch.FAIL


@given(onto=ontologies())
@settings(max_examples=40, deadline=None)
def test_owl_xml_roundtrip_preserves_reasoning(onto):
    from repro.ontology import ontology_from_xml, ontology_to_xml

    parsed = ontology_from_xml(ontology_to_xml(onto))
    original = Reasoner(onto)
    recovered = Reasoner(parsed)
    for uri in sorted(onto.concepts):
        assert original.ancestors(uri) == recovered.ancestors(uri)


# -- memoised match_signature vs. the uncached oracle ------------------------------

_concept = st.integers(min_value=0, max_value=15).map(lambda i: f"{NS}C{i}")
_concept_list = st.lists(_concept, min_size=0, max_size=3).map(tuple)
_signature_pair = st.tuples(
    _concept, _concept_list, _concept_list, _concept, _concept_list, _concept_list
)
#: Edits that keep the subclass graph acyclic (child index > parent index)
#: or cannot create a cycle at all; C14/C15 may be new to the ontology.
_mutation = st.one_of(
    st.tuples(st.just("subclass"), st.integers(1, 15), st.integers(0, 14)).filter(
        lambda m: m[1] > m[2]
    ),
    st.tuples(st.just("equivalence"), st.integers(0, 15), st.integers(0, 15)),
    st.tuples(st.just("concept"), st.integers(0, 15), st.just(0)),
)


def _apply(onto, mutation):
    kind, a, b = mutation
    if kind == "subclass":
        onto.add_subclass(f"{NS}C{a}", f"{NS}C{b}")
    elif kind == "equivalence":
        onto.add_equivalence(f"{NS}C{a}", f"{NS}C{b}")
    else:
        onto.add_concept(f"{NS}C{a}")


@given(
    onto=ontologies(),
    pairs=st.lists(_signature_pair, min_size=1, max_size=6),
    mutations=st.lists(_mutation, min_size=1, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_memoised_signature_match_equals_oracle(onto, pairs, mutations):
    """First call, repeat, and after every interleaved ontology edit: the
    memo answers what a fresh uncached matcher over a fresh reasoner does
    (signatures may name concepts the ontology lacks, as a remote
    advertisement can)."""
    matcher = ConceptMatcher(Reasoner(onto))

    def check():
        oracle = ReferenceMatcher(Reasoner(onto))
        for pair in pairs:
            expected = oracle.match_signature(*pair)
            first = matcher.match_signature(*pair)
            assert_same_signature(first, expected)
            assert matcher.match_signature(*pair) is first

    check()
    for mutation in mutations:
        _apply(onto, mutation)
        check()
