"""Encoding Python values as XML elements and back.

SOAP bodies carry structured values.  We use a small self-describing
encoding: every element gets a ``type`` attribute (string, int, float,
bool, null, struct, list) so round-tripping is loss-free without needing a
schema at the decoding side.

Both directions work on the document string: :func:`encode_value` writes
what the standard library's tree serialiser would, and :func:`decode_values`
reads exactly that language back (``type``-then-``name`` double-quoted
attributes, the ``<tag />`` short form, the entities the two escapers emit)
and rejects everything else.  DESIGN.md §6.10 has the grammar.
"""

from __future__ import annotations

import re
from typing import Any, Optional

__all__ = ["encode_value", "decode_values", "EncodingError", "MAX_DEPTH"]


class EncodingError(Exception):
    """Raised when a value cannot be encoded or decoded."""


#: How deep the reader lets lists and structs nest.  Its stack is explicit, so
#: without a bound it would hand a dispatcher values that ``==``, ``repr``,
#: ``copy.deepcopy`` and the recursive writer cannot walk inside the default
#: 1000-frame limit; 100 leaves all of them room at any caller depth.
MAX_DEPTH = 100

#: Characters XML 1.0 cannot carry (anywhere — text or attributes), as the
#: inside of a character class.
_INVALID = r"\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_XML_INVALID = re.compile(f"[{_INVALID}]")
#: The ASCII characters XML 1.0 can carry: tab, LF, CR and 0x20–0x7F.
_ASCII_XML = bytes([0x09, 0x0A, 0x0D, *range(0x20, 0x80)])

#: Character data and an attribute value as the escapers below write them: one
#: run of a character class each (no repeated group, so a match keeps no state
#: per character); ``&`` is admitted here and checked by ``unescape_*``, which
#: refuse one that does not start an entity the matching escaper emits.
TEXT = rf"[^<>{_INVALID}]*"
ATTR = rf'[^<>"\t\n\r{_INVALID}]*'
_STRAY_TEXT = re.compile("&(?!(?:amp|lt|gt);)")
_STRAY_ATTR = re.compile("&(?!(?:amp|lt|gt|quot|#13|#10|#09);)")

#: One step of :func:`decode_values`: an element's start tag (through its end
#: tag when it holds text), a list's or struct's end tag, or else all the rest.
_TOKEN = re.compile(
    rf'<(argument|return|item|member|value) type="([a-z]+)"( name="{ATTR}")?'
    rf"(?:( />)|>(?:(?!<)({TEXT})</\1>)?)"
    r"|</(argument|return|item|member|value)>"
    r"|(?s:(.+))"
)


def check_xml(document: str) -> str:
    """Refuse a written document XML 1.0 cannot transport (e.g. one holding a
    control character), wherever in it the character sits.

    SOAP is an XML protocol: such a document cannot appear on the wire, so we
    fail loudly at encode time instead of producing an unparseable message.
    The escapers never write one, so a match is always an input's character.
    An ASCII document — the usual one — is checked by deleting the bytes it
    may hold, which is ~6× cheaper per character than the ``_XML_INVALID``
    scan every other document gets.
    """
    if document.isascii() and not document.encode("ascii").translate(None, _ASCII_XML):
        return document
    match = _XML_INVALID.search(document)
    if match is not None:
        raise EncodingError(
            f"XML-invalid character {match.group()!r} at document index {match.start()}"
        )
    return document


def escape_text(text: str) -> str:
    """Escape character data exactly as the stdlib tree serialiser does."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def escape_attr(text: str) -> str:
    """Escape an attribute value exactly as the stdlib tree serialiser does."""
    text = escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def unescape_text(text: str) -> str:
    """``TEXT`` as a parser reports it: entities resolved, CRLF and CR read as LF."""
    if "&" in text:
        if _STRAY_TEXT.search(text):
            raise EncodingError(f"bad entity in text {text[:40]!r}")
        text = text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def unescape_attr(text: str) -> str:
    """An attribute value (matching ``ATTR``) with its entities resolved."""
    if "&" in text:  # ``&amp;`` last, so that no ``&`` it yields is read again
        if _STRAY_ATTR.search(text):
            raise EncodingError(f"bad entity in attribute {text[:40]!r}")
        text = text.replace("&quot;", '"').replace("&#13;", "\r").replace("&#10;", "\n")
        text = text.replace("&#09;", "\t").replace("&lt;", "<").replace("&gt;", ">")
        text = text.replace("&amp;", "&")
    return text


def xml_element(tag: str, attrs: str, body: str) -> str:
    """One serialised element; an empty ``body`` takes the ``<tag />`` form."""
    return f"<{tag}{attrs}>{body}</{tag}>" if body else f"<{tag}{attrs} />"


def encode_value(tag: str, value: Any, name: Optional[str] = None) -> str:
    """Encode ``value`` as the XML of an element named ``tag`` (``name``: its
    ``name`` attribute), byte for byte as the stdlib tree serialiser would."""
    return check_xml(write_value(tag, value, name))


def write_value(tag: str, value: Any, name: Optional[str] = None) -> str:
    """:func:`encode_value` without :func:`check_xml`, for a writer that
    checks the document it is part of once."""
    try:
        return _encode(tag, value, name)
    except RecursionError:  # nested past the frame limit, or a list inside itself
        raise EncodingError("value nests deeper than the writer can follow") from None


def _encode(tag: str, value: Any, name: Optional[str]) -> str:
    if value is None:
        kind, body = "null", ""
    elif isinstance(value, bool):
        kind, body = "bool", "true" if value else "false"
    elif isinstance(value, int):
        kind, body = "int", str(value)
    elif isinstance(value, float):
        kind, body = "float", repr(value)
    elif isinstance(value, str):
        kind, body = "string", escape_text(value)
    elif isinstance(value, (list, tuple)):
        kind, body = "list", "".join([_encode("item", entry, None) for entry in value])
    elif isinstance(value, dict):
        members = []
        for key in value:
            if not isinstance(key, str):
                raise EncodingError(f"struct keys must be strings, got {key!r}")
            members.append(_encode("member", value[key], key))
        kind, body = "struct", "".join(members)
    else:
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")
    attrs = f' type="{kind}"'
    if name is not None:
        attrs += f' name="{escape_attr(name)}"'
    return xml_element(tag, attrs, body)


#: ``type`` -> value, for an element with text and for one without.
_FROM_TEXT = {"string": unescape_text, "int": int, "float": float}
_FROM_TEXT["bool"] = {"true": True, "false": False}.__getitem__
_EMPTY = {"string": str, "null": lambda: None, "list": list, "struct": dict}


def decode_values(document: str, pos: int, sink: Any, tag: str) -> str:
    """Decode the run of ``tag`` elements :func:`encode_value` wrote at
    ``document[pos:]`` into ``sink`` (a dict takes them by ``name``, a later
    duplicate winning; a list takes unnamed ones in order) and return what
    follows the run, for the caller to check.  Open lists and structs go on an
    explicit stack, so a deep document costs no interpreter frames."""
    stack, rest, keyed = [], "", isinstance(sink, dict)
    for found, kind, named, short, text, closed, rest in _TOKEN.findall(document, pos):
        if closed:  # </tag> of the list or struct being filled: open, and not empty
            if not (stack and sink and closed == stack[-1][1]):
                raise EncodingError(f"unexpected </{closed}>")
            sink, tag, keyed = stack.pop()
        elif kind:
            try:
                value = _FROM_TEXT[kind](text) if text else _EMPTY[kind]()
            except (KeyError, ValueError) as error:
                raise EncodingError(f"bad {kind} element, text {text!r}") from error
            if found != tag or keyed is not bool(named):
                raise EncodingError(f"unexpected <{found}> element")
            if keyed:
                sink[unescape_attr(named[7:-1])] = value  # inside ` name="…"`
            else:
                sink.append(value)
            if not (text or short):  # a list or struct whose children follow
                if not isinstance(value, (list, dict)):
                    raise EncodingError(f"malformed content in a {kind} element")
                if len(stack) >= MAX_DEPTH:
                    raise EncodingError(f"value nests deeper than {MAX_DEPTH} levels")
                stack.append((sink, tag, keyed))
                sink, keyed = value, kind == "struct"
                tag = "member" if keyed else "item"
    if stack:
        raise EncodingError(f"unclosed <{stack[-1][1]}> element")
    return rest
