"""Unit tests for the SOAP value encoding.

Decoding is checked twice: through the ElementTree oracle the direct reader
replaced (``et_oracle.element_to_value``) and through ``Envelope.from_xml``,
the only decoder ``repro.soap`` has.
"""

import xml.etree.ElementTree as ET

import pytest

from repro.soap import EncodingError, Envelope, EnvelopeError, encode_value

from .et_oracle import element_to_value, value_to_xml


def _decode(xml):
    return element_to_value(ET.fromstring(xml))


def _envelope(return_xml):
    """A result envelope around one already-encoded ``return`` element."""
    document = Envelope.result("op", None).to_xml()
    return document.replace('<return type="null" />', return_xml)


def _read(value):
    """``value`` through the writer and the direct reader."""
    return Envelope.from_xml(_envelope(encode_value("return", value))).value


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            "",
            "héllo <world> & friends",
            [],
            [1, 2, 3],
            {"a": 1, "b": "two"},
            {"nested": {"list": [1, [2, {"deep": None}]]}},
        ],
    )
    def test_value_roundtrips(self, value):
        xml = encode_value("v", value)
        assert xml == value_to_xml("v", value)
        assert _decode(xml) == value
        assert _read(value) == value

    def test_roundtrip_through_serialised_xml(self):
        value = {"id": "S1", "courses": ["M101", "E204"], "year": 3}
        assert _decode(encode_value("v", value)) == value
        assert _read(value) == value

    def test_types_distinguished(self):
        assert _decode(encode_value("v", 1)) == 1
        assert _decode(encode_value("v", "1")) == "1"
        assert _decode(encode_value("v", 1.0)) == 1.0
        assert _decode(encode_value("v", True)) is True
        for value in (1, "1", 1.0, True):
            assert type(_read(value)) is type(value) and _read(value) == value

    def test_tuple_decodes_as_list(self):
        assert _decode(encode_value("v", (1, 2))) == [1, 2]
        assert _read((1, 2)) == [1, 2]

    def test_empty_values_take_the_short_form(self):
        for value, kind in [(None, "null"), ("", "string"), ([], "list"), ({}, "struct")]:
            assert encode_value("v", value) == f'<v type="{kind}" />'

    def test_name_attribute_follows_type_and_is_escaped(self):
        assert (
            encode_value("member", "a<b", name='k"&\n')
            == '<member type="string" name="k&quot;&amp;&#10;">a&lt;b</member>'
        )


class TestErrors:
    def test_unencodable_type_rejected(self):
        with pytest.raises(EncodingError):
            encode_value("v", object())

    def test_non_string_struct_keys_rejected(self):
        with pytest.raises(EncodingError):
            encode_value("v", {1: "x"})

    def test_unknown_encoded_type_rejected(self):
        element = ET.Element("v", {"type": "quaternion"})
        with pytest.raises(EncodingError):
            element_to_value(element)
        with pytest.raises(EnvelopeError):
            Envelope.from_xml(_envelope('<return type="quaternion" />'))

    def test_struct_member_without_name_rejected(self):
        element = ET.Element("return", {"type": "struct"})
        ET.SubElement(element, "member", {"type": "int"}).text = "1"
        with pytest.raises(EncodingError):
            element_to_value(element)
        with pytest.raises(EnvelopeError):
            Envelope.from_xml(_envelope(ET.tostring(element, encoding="unicode")))

    def test_bad_int_payload_rejected(self):
        element = ET.Element("v", {"type": "int"})
        element.text = "notanint"
        with pytest.raises(EncodingError):
            element_to_value(element)
        with pytest.raises(EnvelopeError):
            Envelope.from_xml(_envelope('<return type="int">notanint</return>'))
