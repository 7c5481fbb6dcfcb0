"""Property-based tests: WSDL and advertisement XML round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p import (
    PeerAdvertisement,
    PeerGroupId,
    PeerId,
    SemanticAdvertisement,
    advertisement_from_xml,
)
from repro.wsdl import (
    Definitions,
    Interface,
    MessagePart,
    Operation,
    definitions_from_xml,
    definitions_to_xml,
)

# XML-safe identifier-ish text (names, labels).
names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=16,
)
uris = st.builds(lambda local: f"http://prop.test/onto#{local}", names)


@st.composite
def semantic_advertisements(draw):
    return SemanticAdvertisement(
        group_id=PeerGroupId.from_name(draw(names)),
        name=draw(names),
        action=draw(uris),
        inputs=tuple(draw(st.lists(uris, max_size=4))),
        outputs=tuple(draw(st.lists(uris, max_size=4))),
        ontology_uri=draw(uris),
        description=draw(names),
        qos_time=draw(st.one_of(st.none(), st.floats(min_value=0, max_value=10))),
        qos_cost=draw(st.one_of(st.none(), st.floats(min_value=0, max_value=100))),
        qos_reliability=draw(
            st.one_of(st.none(), st.floats(min_value=0, max_value=1))
        ),
        lifetime=draw(st.floats(min_value=1, max_value=10000)),
    )


@given(advertisement=semantic_advertisements())
@settings(max_examples=100, deadline=None)
def test_semantic_advertisement_roundtrips(advertisement):
    parsed = advertisement_from_xml(advertisement.to_xml())
    assert parsed.group_id == advertisement.group_id
    assert parsed.name == advertisement.name
    assert parsed.action == advertisement.action
    assert parsed.inputs == advertisement.inputs
    assert parsed.outputs == advertisement.outputs
    assert parsed.qos_time == advertisement.qos_time
    assert parsed.qos_cost == advertisement.qos_cost
    assert parsed.qos_reliability == advertisement.qos_reliability
    assert parsed.lifetime == advertisement.lifetime
    assert parsed.key() == advertisement.key()


@given(
    name=names, host=names,
    port=st.integers(min_value=1, max_value=65535),
)
@settings(max_examples=60, deadline=None)
def test_peer_advertisement_roundtrips(name, host, port):
    advertisement = PeerAdvertisement(
        peer_id=PeerId.from_name(name), name=name, host=host, port=port
    )
    parsed = advertisement_from_xml(advertisement.to_xml())
    assert parsed.address == (host, port)
    assert parsed.peer_id == advertisement.peer_id


@st.composite
def wsdl_documents(draw):
    definitions = Definitions(
        name=draw(names),
        target_namespace=f"http://prop.test/{draw(names)}",
        namespaces={"p": "http://prop.test/onto#"},
    )
    interface = Interface(name=draw(names))
    operation_names = draw(
        st.lists(names, min_size=1, max_size=3, unique=True)
    )
    for operation_name in operation_names:
        operation = Operation(
            name=operation_name,
            action=draw(uris),
            inputs=[
                MessagePart(
                    message_label=draw(names),
                    element=f"tns:{draw(names)}",
                    model_reference=draw(uris),
                )
                for _ in range(draw(st.integers(min_value=0, max_value=3)))
            ],
            outputs=[
                MessagePart(
                    message_label=draw(names),
                    element=f"tns:{draw(names)}",
                    model_reference=draw(uris),
                )
                for _ in range(draw(st.integers(min_value=0, max_value=3)))
            ],
        )
        interface.add_operation(operation)
    definitions.add_interface(interface)
    return definitions


@given(definitions=wsdl_documents())
@settings(max_examples=60, deadline=None)
def test_wsdl_annotations_roundtrip(definitions):
    parsed = definitions_from_xml(definitions_to_xml(definitions))
    assert parsed.name == definitions.name
    original_ops = {op.name: op for op in definitions.operations()}
    parsed_ops = {op.name: op for op in parsed.operations()}
    assert set(parsed_ops) == set(original_ops)
    for name, original in original_ops.items():
        assert parsed_ops[name].annotation() == original.annotation()
        labels = [part.message_label for part in parsed_ops[name].inputs]
        assert labels == [part.message_label for part in original.inputs]
