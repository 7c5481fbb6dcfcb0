"""The direct envelope reader against the ElementTree reader it replaced.

``Envelope.from_xml`` scans the document string itself (DESIGN.md §6.10).
On everything ``Envelope.to_xml`` can write it must return what the old
``ET.fromstring`` + tree-walk reader returns (``et_oracle.envelope_from_xml``);
on everything else it must raise ``EnvelopeError`` — never another type,
never slowly.
"""

import math
import random
import re
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import repro.soap
from repro.soap import EncodingError, Envelope, EnvelopeError, SoapFault, encode_value
from repro.soap.encoding import MAX_DEPTH

from .et_oracle import envelope_from_xml, envelope_shape as _shape

# -- seeded fuzz: scanner == oracle on the writer's language -------------------------

#: Pieces the text of names, strings, headers and fault fields is drawn from:
#: every character either escaper treats specially, the line ends a parser
#: normalises (and two it must not: U+0085, U+2028), pre-escaped look-alikes,
#: non-BMP characters, and strings that look like other types' payloads.
ATOMS = [
    "<", ">", "&", '"', "'", "\t", "\n", "\r", "\r\n", ";", "#", "]]>",
    "\x85", "\u2028", "\U0001F600", "\U00010000", "é", "a", "Z", "0", " ", "",
    "&amp;", "&lt;", "&quot;", "&#13;", "&#10;", "1_000", " 12 ", "nan", "true",
]  # fmt: skip
FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324, 2.5, -1e-7]


def _text(rng):
    return "".join(rng.choices(ATOMS, k=rng.randint(0, 5)))


def _value(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.6:
        return rng.choice(
            [None, True, False, rng.randint(-(10**12), 10**12), rng.choice(FLOATS),
             rng.random(), _text(rng), _text(rng)]
        )  # fmt: skip
    if roll < 0.8:
        return [_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    names = [rng.choice([_text(rng), "dup1", "dup2"]) for _ in range(rng.randint(0, 3))]
    return {name: _value(rng, depth + 1) for name in names}


def _headers(rng):
    if rng.random() < 0.5:
        return {}
    return {_text(rng): rng.choice([_text(rng), 7, None]) for _ in range(3)}


def _envelope(rng):
    kind = rng.choice(["call", "result", "fault"])
    if kind == "call":
        arguments = {_text(rng): _value(rng) for _ in range(rng.randint(0, 3))}
        return Envelope.call(rng.choice([None, _text(rng)]), arguments, _headers(rng))
    if kind == "result":
        return Envelope(
            kind="result",
            operation=rng.choice([None, _text(rng)]),
            value=_value(rng),
            headers=_headers(rng),
        )
    fault = SoapFault(
        _text(rng),
        _text(rng),
        detail=rng.choice([None, _value(rng)]),
        faultactor=rng.choice([None, "", _text(rng)]),
    )
    return Envelope(kind="fault", fault=fault, headers=_headers(rng))


_INT_ELEMENT = re.compile(r'(type="int"(?: name="[^"]*")?>)(-?\d+)<')


def _respell(rng, document):
    """The same document spelt in ways only a reader sees: ints with ``_``
    separators and surrounding spaces, a struct's member name repeated."""

    def spaced(match):
        pad = rng.choice(["", " ", "  "])
        return f"{match.group(1)}{pad}{int(match.group(2)):_}{pad}<"

    document = _INT_ELEMENT.sub(spaced, document)
    if ' name="dup1"' in document and ' name="dup2"' in document:
        document = document.replace(' name="dup2"', ' name="dup1"')
    return document


@pytest.mark.parametrize("seed", [17, 1701, 170101])
def test_scanner_equals_oracle_on_fuzzed_envelopes(seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(10_000):
        document = _envelope(rng).to_xml()
        if rng.random() < 0.3:
            document = _respell(rng, document)
        read = Envelope.from_xml(document)
        assert _shape(read) == _shape(envelope_from_xml(document)), document
        kinds.add((read.kind, bool(read.headers), read.fault and read.fault.detail is None))
    assert len(kinds) >= 8  # calls, results, faults with/without detail; headers or not


def test_the_three_lossy_spots_are_the_parsers():
    """What does not survive a round trip did not survive ElementTree either."""
    call = Envelope.call("op", {"a": "x\r\ny\rz"}, {"": "nameless", "h": "\r"})
    read = Envelope.from_xml(call.to_xml())
    assert read.arguments == {"a": "x\ny\nz"}  # line ends in text are normalised
    assert read.headers == {"h": "\n"}  # a header with an empty name is skipped
    document = Envelope.result("op", {"a": 1, "b": 2}).to_xml()
    read = Envelope.from_xml(document.replace('name="b"', 'name="a"'))
    assert read.value == {"a": 2}  # a later duplicate member wins
    assert Envelope.from_xml(Envelope.call("a\r\n\tb", {"k\r": 1}).to_xml()) == (
        Envelope.call("a\r\n\tb", {"k\r": 1})  # attributes are loss-free
    )


# -- everything outside the grammar is an EnvelopeError -------------------------------

VALID = Envelope.call(
    "Query", {"filter": {"ids": ["a", "b&c"], "limit": 5}, "flag": True}, {"trace": "t1"}
).to_xml()
RESULT = Envelope.result("Op", {"id": "S1", "year": 3}).to_xml()
FAULT = Envelope.from_fault(
    SoapFault("Client", "bad input", detail={"field": "ID"}, faultactor="urn:svc")
).to_xml()
PROLOG = "<?xml version='1.0' encoding='utf-8'?>\n"
DOCTYPE = '<!DOCTYPE x [<!ENTITY e "boom">]>'

REJECTED = {
    "no prolog": VALID[len(PROLOG):],
    "double-quoted prolog": VALID.replace("'", '"', 4),
    "wrong prefix": VALID.replace("soapenv", "soap"),
    "default namespace": VALID.replace("soapenv:", "").replace(":soapenv", ""),
    "single-quoted attribute": VALID.replace('type="int"', "type='int'"),
    "comment": VALID.replace("<call", "<!-- hi --><call"),
    "comment in a value": VALID.replace(">5<", "><!-- 5 -->5<"),
    "processing instruction": VALID.replace("<call", "<?pi x?><call"),
    "CDATA": VALID.replace(">5<", "><![CDATA[5]]><"),
    "DOCTYPE": VALID.replace(PROLOG, PROLOG + DOCTYPE),
    "declared entity": VALID.replace(PROLOG, PROLOG + DOCTYPE).replace(">5<", ">&e;<"),
    "newline between elements": VALID.replace("><", ">\n<"),
    "space before the call": VALID.replace("<call", " <call"),
    "space between arguments": VALID.replace("<argument", " <argument"),
    "space inside a list": VALID.replace("<item", " <item", 1),
    "space before a close tag": VALID.replace("</call>", " </call>"),
    "space inside a start tag": VALID.replace('<argument type="bool"', '<argument  type="bool"'),
    "space in a close tag": VALID.replace("</item>", "</item >", 1),
    "trailing newline": VALID + "\n",
    "trailing comment": VALID + "<!-- bye -->",
    "two documents": VALID + VALID,
    "leading BOM": "\ufeff" + VALID,
    "bytes": VALID.encode(),
    "None": None,
    "decimal character reference": VALID.replace("b&amp;c", "b&#65;c"),
    "hex character reference": VALID.replace("b&amp;c", "b&#x41;c"),
    "unknown entity": VALID.replace("b&amp;c", "b&bogus;c"),
    "unterminated entity": VALID.replace("b&amp;c", "b&amp c"),
    "bare ampersand": VALID.replace("b&amp;c", "b&c"),
    "attribute-only entity in text": VALID.replace("b&amp;c", "b&#10;c"),
    "quot entity in text": VALID.replace("b&amp;c", "b&quot;c"),
    "unknown entity in the operation": VALID.replace('"Query"', '"Qu&bogus;ery"'),
    "unknown entity in a header": VALID.replace(">t1<", ">t&bogus;1<"),
    "unknown entity in a nameless header": VALID.replace('name="trace">t1<', 'name="">&bogus;<'),
    "attribute-only entity in a fault field": FAULT.replace("bad input", "bad&#10;input"),
    "apos entity in an attribute": VALID.replace('name="flag"', 'name="fl&apos;ag"'),
    "literal > in text": VALID.replace("b&amp;c", "b>c"),
    "literal tab in an attribute": VALID.replace('name="flag"', 'name="fl\tag"'),
    "literal < in an attribute": VALID.replace('name="flag"', 'name="fl<ag"'),
    "name before type": VALID.replace('type="bool" name="flag"', 'name="flag" type="bool"'),
    "extra attribute": VALID.replace('name="flag"', 'name="flag" x="y"'),
    "no type attribute": VALID.replace(' type="bool"', ""),
    "unknown type": VALID.replace('type="bool"', 'type="quaternion"'),
    "uppercase type": VALID.replace('type="bool"', 'type="BOOL"'),
    "long empty form": Envelope.call("op", {"a": ""}).to_xml().replace(" /></call>", "></argument></call>"),
    "long empty list": Envelope.call("op", {"a": [[]]}).to_xml().replace('<item type="list" />', '<item type="list"></item>'),
    "long empty struct": Envelope.result("op", {}).to_xml().replace(" /></result>", "></return></result>"),
    "call without arguments, long form": Envelope.call("Ping").to_xml().replace(" /><", "></call><"),
    "argument without a name": VALID.replace(' name="flag"', ""),
    "member without a name": VALID.replace(' name="limit"', ""),
    "item with a name": VALID.replace('<item type="string">a', '<item type="string" name="n">a'),
    "member inside a list": VALID.replace('<item type="string">a</item>', '<member type="string" name="n">a</member>'),
    "item inside a struct": VALID.replace('<member type="int" name="limit">5</member>', '<item type="int">5</item>'),
    "return inside a call": VALID.replace('<argument type="bool" name="flag">true</argument>', '<return type="bool">true</return>'),
    "mismatched close tag": VALID.replace(">5</member>", ">5</item>"),
    "mismatched container close": VALID.replace("</member></argument>", "</argument></member>"),
    "text inside a struct": VALID.replace('type="struct" name="filter">', 'type="struct" name="filter">x'),
    "text after a child": VALID.replace("</item></member>", "</item>x</member>"),
    "scalar with children": VALID.replace('type="list" name="ids"', 'type="string" name="ids"'),
    "null with text": VALID.replace('type="bool" name="flag"', 'type="null" name="flag"'),
    "bad int payload": VALID.replace(">5<", ">x<"),
    "bad float payload": VALID.replace('type="int" name="limit">5<', 'type="float" name="limit">1.2.3<'),
    "bad bool payload": VALID.replace(">true<", ">maybe<"),
    "empty int": VALID.replace('name="limit">5</member>', 'name="limit" />'),
    "call and result": VALID.replace("</call>", '</call><result operation="x"><return type="null" /></result>'),
    "empty Body": VALID[: VALID.index("<call")] + "</soapenv:Body></soapenv:Envelope>",
    "Body short form": VALID[: VALID.index("<soapenv:Body>")] + "<soapenv:Body /></soapenv:Envelope>",
    "empty Header block": VALID.replace('<header name="trace">t1</header>', ""),
    "Header after Body": VALID.replace("<soapenv:Header>", "").replace("</soapenv:Header>", "") .replace('<header name="trace">t1</header>', "") + '<soapenv:Header><header name="a" /></soapenv:Header>',
    "unknown header child": VALID.replace("<header name", "<hdr name").replace("</header>", "</hdr>"),
    "header without a name": VALID.replace('<header name="trace">', "<header>"),
    "result without return": RESULT.replace(RESULT[RESULT.index("<return"): RESULT.index("</result>")], ""),
    "result short form": Envelope.result("Op", None).to_xml().replace('><return type="null" /></result>', " />"),
    "result short form, then a return": Envelope.result("op", 1).to_xml().replace('"op">', '"op" />'),
    "two returns": Envelope.result("Op", None).to_xml().replace("</result>", '<return type="null" /></result>'),
    "named return": RESULT.replace('<return type="struct"', '<return type="struct" name="r"'),
    "result without operation": RESULT.replace(' operation="Op"', ""),
    "fault without faultcode": FAULT.replace("<faultcode>Client</faultcode>", ""),
    "fault children reordered": FAULT.replace("<faultcode>Client</faultcode><faultstring>bad input</faultstring>", "<faultstring>bad input</faultstring><faultcode>Client</faultcode>"),
    "empty faultactor": FAULT.replace("<faultactor>urn:svc</faultactor>", "<faultactor />"),
    "empty detail": FAULT.replace(FAULT[FAULT.index("<value"): FAULT.index("</detail>")], ""),
    "detail short form": FAULT.replace(FAULT[FAULT.index("<detail>"): FAULT.index("</soapenv:Fault>")], "<detail />"),
    "two detail values": FAULT.replace("</detail>", '<value type="null" /></detail>'),
    "unknown fault child": FAULT.replace("<detail>", "<extra /><detail>"),
    "unprefixed Fault": FAULT.replace("soapenv:Fault", "Fault"),
}  # fmt: skip


@pytest.mark.parametrize("document", REJECTED.values(), ids=REJECTED.keys())
def test_outside_the_grammar_is_an_envelope_error(document):
    assert document not in (VALID, RESULT, FAULT), "the mutation did not apply"
    with pytest.raises(EnvelopeError):
        Envelope.from_xml(document)


def test_the_table_rejects_mutations_not_its_base_documents():
    for document in (VALID, RESULT, FAULT):
        assert _shape(Envelope.from_xml(document)) == _shape(envelope_from_xml(document))


@pytest.mark.parametrize("document", [VALID, RESULT, FAULT], ids=["call", "result", "fault"])
def test_truncated_at_every_offset(document):
    for cut in range(len(document)):
        with pytest.raises(EnvelopeError):
            Envelope.from_xml(document[:cut])


#: One character from each class XML 1.0 excludes: C0 controls on either side
#: of tab / LF / CR, both ends of the surrogate block, the two non-characters.
INVALID = ["\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"]


@pytest.mark.parametrize("char", INVALID, ids=[f"U+{ord(c):04X}" for c in INVALID])
def test_xml_invalid_characters_are_rejected_everywhere(char):
    spots = [
        (VALID, "Query"),  # an operation attribute
        (VALID, "flag"),  # a name attribute
        (VALID, "b&amp;c"),  # a string value's text
        (VALID, "t1"),  # a header's text
        (VALID, "trace"),  # a header's name
        (FAULT, "bad input"),  # a fault field
        (FAULT, "urn:svc"),
    ]
    for document, spot in spots:
        with pytest.raises(EnvelopeError):
            Envelope.from_xml(document.replace(spot, spot[0] + char + spot[1:]))
        with pytest.raises(EnvelopeError):
            Envelope.from_xml(document.replace(spot, char))


def test_reader_and_writer_agree_on_which_characters_are_invalid():
    """The reader's character classes and the writer's check are one set:
    exactly the complement of XML 1.0's ``Char`` production."""
    from repro.soap.encoding import _XML_INVALID

    def is_char(code):  # XML 1.0, production [2]
        return (
            code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
            or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF
        )  # fmt: skip

    for plane in range(17):  # a plane at a time keeps the strings small
        codes = range(plane << 16, (plane + 1) << 16)
        rejected = _XML_INVALID.findall("".join(map(chr, codes)))
        expected = [code for code in codes if not is_char(code)]
        assert list(map(ord, rejected)) == expected


# -- no XML parser on the path ---------------------------------------------------------


def test_from_xml_never_enters_elementtree(monkeypatch):
    documents = [VALID, RESULT, FAULT, Envelope.from_fault(SoapFault.server("down")).to_xml()]
    expected = [_shape(envelope_from_xml(document)) for document in documents]
    entered = []

    def forbidden(*args, **kwargs):
        entered.append(args)
        raise AssertionError("the SOAP reader called into xml.etree")

    for name in ("fromstring", "XML", "XMLParser", "parse", "iterparse", "XMLPullParser"):
        monkeypatch.setattr(ET, name, forbidden)
    assert [_shape(Envelope.from_xml(document)) for document in documents] == expected
    for broken in ("<oops", VALID[:-1], VALID.replace("soapenv", "soap")):
        with pytest.raises(EnvelopeError):
            Envelope.from_xml(broken)
    assert entered == []


def test_soap_package_imports_no_xml_parser():
    package = Path(repro.soap.__file__).parent
    for source in sorted(package.glob("*.py")):
        text = source.read_text()
        assert "xml.etree" not in text and "ElementTree" not in text, source.name
        assert "expat" not in text and "minidom" not in text, source.name
    assert not hasattr(repro.soap, "element_to_value")
    assert "element_to_value" not in repro.soap.__all__


# -- adversarial input: typed errors, linear time --------------------------------------


def _timed(call):
    started = time.perf_counter()
    try:
        return call()
    finally:
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def _argument(text='', name="a"):
    return Envelope.call("op", {"a": "@"}).to_xml().replace("@", text).replace('"a"', f'"{name}"')


ADVERSARIAL = {
    "1 MB of <": "<" * 1_000_000,
    "1 MB of < after the prolog": PROLOG + "<" * 1_000_000,
    "1 MB of < in a value": _argument("<" * 1_000_000),
    "1 MB of < in a name": _argument(name="<" * 1_000_000),
    "10^5 unterminated attributes": '<a b="' * 100_000,
    "10^5 unterminated attributes in the call": VALID.replace("<call", '<argument type="string" name="' * 100_000 + "<call"),
    "10^5 unterminated name attributes": _argument().replace("<argument", '<argument type="string" name="' * 100_000 + "<argument"),
    "10^5 entities, the last one cut": _argument("&amp;" * 100_000 + "&am"),
    "10^5 entities in a name, unterminated": _argument(name="&quot;" * 100_000)[:-60],
    "10^5 open headers": VALID.replace("<header", '<header name="x">' * 100_000 + "<header"),
    "10^5 unclosed lists": _argument().replace("<argument", '<argument type="list" name="a">' + '<item type="list">' * 100_000 + "<argument"),
    "10^5 close tags": VALID.replace("</call>", "</item>" * 100_000 + "</call>"),
}  # fmt: skip


@pytest.mark.parametrize("document", ADVERSARIAL.values(), ids=ADVERSARIAL.keys())
def test_adversarial_input_is_rejected_in_linear_time(document):
    with pytest.raises(EnvelopeError):
        _timed(lambda: Envelope.from_xml(document))


def test_large_valid_documents_are_read_in_linear_time():
    text = _timed(lambda: Envelope.from_xml(_argument("&amp;" * 100_000)))
    assert text.arguments == {"a": "&" * 100_000}
    wide = Envelope.result("op", [str(n) for n in range(20_000)]).to_xml()
    assert _timed(lambda: Envelope.from_xml(wide)).value == [str(n) for n in range(20_000)]
    many = Envelope.call("op", {f"a{n}": n for n in range(20_000)}).to_xml()
    assert len(_timed(lambda: Envelope.from_xml(many)).arguments) == 20_000


# -- nesting depth: typed errors in both directions ------------------------------------


def _nested(depth, leaf="x"):
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


def _nested_document(depth):
    """``Envelope.result("op", _nested(depth)).to_xml()`` without the writer."""
    flat = Envelope.result("op", ["x"]).to_xml()
    leaf = '<item type="string">x</item>'
    nested = '<item type="list">' * (depth - 1) + leaf + "</item>" * (depth - 1)
    return flat.replace(leaf, nested)


def test_nesting_up_to_the_limit_round_trips():
    value = _nested(MAX_DEPTH)
    document = Envelope.result("op", value).to_xml()
    assert document == _nested_document(MAX_DEPTH)
    assert Envelope.from_xml(document).value == value
    deep_struct = {"k": _nested(MAX_DEPTH - 1, leaf={})}
    assert Envelope.from_xml(Envelope.result("op", deep_struct).to_xml()).value == deep_struct


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000, 20_000])
def test_nesting_past_the_limit_is_a_typed_error_in_both_directions(depth):
    """3 000 levels used to end both calls in ``RecursionError``.  The reader
    stops at ``MAX_DEPTH``; the writer where the interpreter stops it."""
    document = _nested_document(depth)
    with pytest.raises(EnvelopeError, match="deeper"):
        _timed(lambda: Envelope.from_xml(document))
    if depth == 3000:  # more frames than the interpreter allows the writer
        with pytest.raises(EncodingError, match="deeper"):
            Envelope.result("op", _nested(depth)).to_xml()
        with pytest.raises(EncodingError, match="deeper"):
            encode_value("v", {"k": _nested(depth)})


def test_a_value_that_contains_itself_is_a_typed_error():
    loop = []
    loop.append(loop)
    with pytest.raises(EncodingError, match="deeper"):
        Envelope.call("op", {"a": loop}).to_xml()
