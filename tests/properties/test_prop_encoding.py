"""Property-based tests: SOAP value encoding and envelopes."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soap import EncodingError, Envelope, EnvelopeError, SoapFault, encode_value

from ..soap.et_oracle import (
    element_to_value,
    envelope_from_xml,
    envelope_shape as _shape,
    envelope_to_xml,
    value_to_xml,
)

# XML 1.0 cannot transport control characters, surrogates, or U+FFFE/FFFF;
# the encoder rejects them (see test_control_characters_rejected), so the
# round-trip strategies generate only transportable text.
xml_characters = st.characters(
    blacklist_categories=("Cs", "Cc"),
    blacklist_characters="￾￿",
)
xml_text = st.text(alphabet=xml_characters, max_size=40)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    xml_text,
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.text(alphabet=xml_characters, min_size=1, max_size=10),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


# Byte-identity strategies lean on the characters the two escapers treat
# differently (text: & < >; attributes also " \r \n \t) and on non-ASCII.
# \r and \n are XML-valid but not round-trippable (parsers normalise
# them), so they appear here and not in ``xml_characters``.
spiky_text = st.text(
    alphabet=st.one_of(st.sampled_from("&<>\"'\r\n\t ;#]aZ0é→😀"), xml_characters),
    max_size=12,
)
spiky_values = st.recursive(
    st.one_of(scalars, spiky_text),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(spiky_text, children, max_size=4),
    ),
    max_leaves=10,
)
header_maps = st.one_of(
    st.just({}),
    st.dictionaries(
        spiky_text, st.one_of(spiky_text, st.integers(), st.none()), max_size=3
    ),
)


@given(value=values)
@settings(max_examples=150, deadline=None)
def test_value_roundtrips_through_element(value):
    assert element_to_value(ET.fromstring(encode_value("v", value))) == value


@given(value=spiky_values, name=st.one_of(st.none(), spiky_text))
@settings(max_examples=200, deadline=None)
def test_value_roundtrips_through_serialised_xml(value, name):
    """The writer emits what ElementTree serialises, byte for byte."""
    expected = value_to_xml("v", value, name)
    assert encode_value("v", value, name) == expected


@given(
    operation=st.one_of(st.none(), spiky_text),
    arguments=st.dictionaries(spiky_text, spiky_values, max_size=4),
    headers=header_maps,
)
@settings(max_examples=150, deadline=None)
def test_call_envelope_matches_elementtree(operation, arguments, headers):
    envelope = Envelope.call(operation, arguments, headers)
    assert envelope.to_xml() == envelope_to_xml(envelope)


@given(operation=st.one_of(st.none(), spiky_text), value=spiky_values, headers=header_maps)
@settings(max_examples=150, deadline=None)
def test_result_envelope_matches_elementtree(operation, value, headers):
    envelope = Envelope(kind="result", operation=operation, value=value, headers=headers)
    assert envelope.to_xml() == envelope_to_xml(envelope)


@given(
    faultcode=spiky_text,
    faultstring=spiky_text,
    faultactor=st.one_of(st.none(), spiky_text),
    detail=st.one_of(st.none(), spiky_values),
    headers=header_maps,
)
@settings(max_examples=150, deadline=None)
def test_fault_envelope_matches_elementtree(
    faultcode, faultstring, faultactor, detail, headers
):
    fault = SoapFault(faultcode, faultstring, detail=detail, faultactor=faultactor)
    envelope = Envelope(kind="fault", fault=fault, headers=headers)
    assert envelope.to_xml() == envelope_to_xml(envelope)


@given(
    operation=st.one_of(st.none(), spiky_text),
    arguments=st.dictionaries(spiky_text, spiky_values, max_size=4),
    value=st.one_of(spiky_values, st.floats()),
    faultcode=spiky_text,
    faultactor=st.one_of(st.none(), spiky_text),
    detail=st.one_of(st.none(), spiky_values),
    headers=header_maps,
)
@settings(max_examples=100, deadline=None)
def test_reader_matches_elementtree(
    operation, arguments, value, faultcode, faultactor, detail, headers
):
    """The direct reader returns what ``ET.fromstring`` + the tree walk did,
    on every kind of envelope the writer can produce — including text that
    does not round-trip (``\\r``, empty header names) and ``nan`` / ``inf``."""
    fault = SoapFault(faultcode, faultcode[::-1], detail=detail, faultactor=faultactor)
    for envelope in (
        Envelope.call(operation, arguments, headers),
        Envelope(kind="result", operation=operation, value=value, headers=headers),
        Envelope(kind="fault", fault=fault, headers=headers),
    ):
        document = envelope.to_xml()
        assert _shape(Envelope.from_xml(document)) == _shape(envelope_from_xml(document))


@given(
    operation=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1,
        max_size=20,
    ),
    arguments=st.dictionaries(
        st.text(alphabet=xml_characters, min_size=1, max_size=10),
        scalars,
        max_size=4,
    ),
)
@settings(max_examples=80, deadline=None)
def test_call_envelope_roundtrips(operation, arguments):
    envelope = Envelope.call(operation, arguments)
    parsed = Envelope.from_xml(envelope.to_xml())
    assert parsed.kind == "call"
    assert parsed.operation == operation
    assert parsed.arguments == arguments


@given(value=values)
@settings(max_examples=80, deadline=None)
def test_result_envelope_roundtrips(value):
    parsed = Envelope.from_xml(Envelope.result("op", value).to_xml())
    assert parsed.value == value


@given(value=values, headers=header_maps)
@settings(max_examples=80, deadline=None)
def test_envelope_roundtrips_whole(value, headers):
    """``from_xml(to_xml(e)) == e`` for every kind, on round-trippable text."""
    headers = {
        name: str(text)
        for name, text in headers.items()
        if name and not set("\r\n\t") & set(name + str(text))
    }
    fault = SoapFault("Client", "bad input", detail=value, faultactor="urn:svc")
    for envelope in (
        Envelope.call("op", {"a": value}, headers),
        Envelope(kind="result", operation="op", value=value, headers=headers),
        Envelope(kind="fault", fault=fault, headers=headers),
    ):
        parsed = Envelope.from_xml(envelope.to_xml())
        if envelope.kind == "fault":
            assert vars(parsed.fault) == vars(fault)
            parsed.fault = fault
        assert parsed == envelope


def test_control_characters_rejected():
    with pytest.raises(EncodingError):
        encode_value("v", "bad\x08string")
    with pytest.raises(EncodingError):
        encode_value("v", {"bad\x00key": 1})
    with pytest.raises(EncodingError):
        Envelope.call("op", {"a": ["fine", "bad\x0bitem"]}).to_xml()
    with pytest.raises(EncodingError):
        Envelope.result("op", {"bad\ufffekey": 1}).to_xml()


def test_unencodable_payloads_and_kinds_rejected():
    with pytest.raises(EncodingError):
        Envelope.call("op", {"a": {1: "x"}}).to_xml()
    with pytest.raises(EncodingError):
        Envelope.result("op", object()).to_xml()
    with pytest.raises(EnvelopeError):
        Envelope(kind="notify").to_xml()
