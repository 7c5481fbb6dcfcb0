"""JXTA advertisements, including Whisper's *semantic advertisements*.

"All resources in JXTA networks are represented by a metadata XML document
called an advertisement" (§4.3).  We implement the two kinds Whisper
publishes: JXTA's peer advertisement, and the paper's contribution, an
*extendable* peer-group advertisement carrying the semantic signature
(action / input / output ontology concepts) of a b-peer group, so that
discovery can match on semantics instead of names.

Every advertisement serialises to an XML document and back; the XML length
is the advertisement's simulated wire size.  An advertisement renders its
document once and serves that rendering (and its size) from then on;
``invalidate_xml_cache()`` is the contract for code that mutates one.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple, Type

from .ids import PeerGroupId, PeerId

__all__ = [
    "Advertisement",
    "PeerAdvertisement",
    "SemanticAdvertisement",
    "AdvParseError",
    "advertisement_from_xml",
    "DEFAULT_LIFETIME",
]

#: Default advertisement lifetime in seconds (JXTA defaults are hours; we
#: scale to simulation runs).
DEFAULT_LIFETIME = 3600.0


class AdvParseError(Exception):
    """Raised when an advertisement document cannot be interpreted."""


_REGISTRY: Dict[str, Type["Advertisement"]] = {}


@dataclass
class Advertisement:
    """Base class: a typed, self-describing XML metadata document."""

    ADV_TYPE: ClassVar[str] = "jxta:Adv"

    lifetime: float = DEFAULT_LIFETIME

    # Plain class attributes (no annotation, so not dataclass fields):
    # per-instance caches shadow them on first render.
    _xml_cache = None
    _size_cache = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _REGISTRY[cls.ADV_TYPE] = cls

    # -- identity ------------------------------------------------------------------

    def key(self) -> str:
        """Unique cache key (same key = same logical advertisement)."""
        raise NotImplementedError

    # -- attributes for discovery queries -------------------------------------------

    def attributes(self) -> Dict[str, str]:
        """Flat attribute view used by discovery's attribute/value queries."""
        raise NotImplementedError

    # -- XML --------------------------------------------------------------------------

    def _body_elements(self) -> List[ET.Element]:
        raise NotImplementedError

    def to_xml(self) -> str:
        """Serialise (lazily: the rendered document is cached).

        Advertisements are value objects — built once, then matched and
        re-sent many times (discovery and rendezvous answer paths
        serialise the same advertisements for every query) — so the first
        render is remembered.  Code that mutates an advertisement after
        rendering must call :meth:`invalidate_xml_cache`.
        """
        cached = self._xml_cache
        if cached is None:
            cached = self._xml_cache = self._render_xml()
        return cached

    def _render_xml(self) -> str:
        root = ET.Element(self.ADV_TYPE.replace(":", "_"))
        root.set("type", self.ADV_TYPE)
        root.set("lifetime", repr(self.lifetime))
        for element in self._body_elements():
            root.append(element)
        return ET.tostring(root, encoding="unicode", xml_declaration=True)

    def invalidate_xml_cache(self) -> None:
        """Drop the cached rendering after a field mutation."""
        self._xml_cache = None
        self._size_cache = None

    @classmethod
    def _from_element(cls, root: ET.Element) -> "Advertisement":
        raise NotImplementedError

    def size_bytes(self) -> int:
        cached = self._size_cache
        if cached is None:
            cached = self._size_cache = len(self.to_xml().encode())
        return cached


def advertisement_from_xml(document: str) -> Advertisement:
    """Parse any registered advertisement type from its XML form."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as error:
        raise AdvParseError(f"malformed advertisement XML: {error}") from error
    adv_type = root.get("type", "")
    cls = _REGISTRY.get(adv_type)
    if cls is None:
        raise AdvParseError(f"unknown advertisement type {adv_type!r}")
    advertisement = cls._from_element(root)
    lifetime = root.get("lifetime")
    if lifetime is not None:
        advertisement.lifetime = float(lifetime)
    return advertisement


def _text_element(tag: str, text: str) -> ET.Element:
    element = ET.Element(tag)
    element.text = text
    return element


def _required_text(root: ET.Element, tag: str) -> str:
    text = root.findtext(tag)
    if text is None:
        raise AdvParseError(f"advertisement lacks <{tag}>")
    return text


@dataclass
class PeerAdvertisement(Advertisement):
    """Announces a peer and its endpoint address."""

    ADV_TYPE: ClassVar[str] = "jxta:PA"

    peer_id: PeerId = None
    name: str = ""
    host: str = ""
    port: int = 0

    def key(self) -> str:
        return f"PA:{self.peer_id.urn}"

    def attributes(self) -> Dict[str, str]:
        return {"Name": self.name, "PID": self.peer_id.urn}

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def _body_elements(self) -> List[ET.Element]:
        return [
            _text_element("PID", self.peer_id.urn),
            _text_element("Name", self.name),
            _text_element("Host", self.host),
            _text_element("Port", str(self.port)),
        ]

    @classmethod
    def _from_element(cls, root: ET.Element) -> "PeerAdvertisement":
        return cls(
            peer_id=PeerId.from_urn(_required_text(root, "PID")),
            name=_required_text(root, "Name"),
            host=_required_text(root, "Host"),
            port=int(_required_text(root, "Port")),
        )


@dataclass
class SemanticAdvertisement(Advertisement):
    """Whisper's new advertisement kind (§4.3).

    Extends JXTA's peer-group advertisement (group id, name, description)
    with the group's semantic signature: the *action* concept (functional
    semantics, §2.3) and the *input* / *output* concepts (data semantics,
    §2.2), all URIs into a shared OWL ontology.  The SWS-proxy's ``findPeerGroupAdv`` (§3.2) matches against
    exactly these three fields.
    """

    ADV_TYPE: ClassVar[str] = "whisper:SemanticAdv"

    group_id: PeerGroupId = None
    name: str = ""
    action: str = ""
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    ontology_uri: str = ""
    description: str = ""
    #: Optional QoS annotations (§2.4's "semantic QoS integration", which
    #: the paper flags as the further integration dimension): the group's
    #: advertised expected response time (s), cost per invocation, and
    #: reliability in [0, 1].  ``None`` means unadvertised.
    qos_time: Optional[float] = None
    qos_cost: Optional[float] = None
    qos_reliability: Optional[float] = None
    #: Semantic-sharding annotations: this group's position in a
    #: federated shard set partitioning the service keyspace.  Both stay
    #: ``None`` for single-group deployments so unsharded advertisements
    #: (and their wire sizes) are byte-identical to the seed's.
    shard_index: Optional[int] = None
    shard_count: Optional[int] = None
    #: Home region of the advertised group in multi-region topologies
    #: (nearest-region proxy preference keys on it).  Stays ``None`` on
    #: single-region deployments — wire format byte-identical to the seed.
    region: Optional[str] = None

    def key(self) -> str:
        return f"SemAdv:{self.group_id.urn}"

    def attributes(self) -> Dict[str, str]:
        attrs = {
            "Name": self.name,
            "GID": self.group_id.urn,
            "Action": self.action,
            "Ontology": self.ontology_uri,
        }
        if self.shard_count is not None:
            attrs["Shard"] = str(self.shard_index)
            attrs["Shards"] = str(self.shard_count)
        if self.region is not None:
            attrs["Region"] = self.region
        return attrs

    @property
    def sharded(self) -> bool:
        """True when this group is one shard of a federated set."""
        return self.shard_count is not None and self.shard_count > 1

    # Accessors named after the paper's listing (§3.2).

    def get_sem_action(self) -> str:
        return self.action

    def get_sem_input(self) -> Tuple[str, ...]:
        return self.inputs

    def get_sem_output(self) -> Tuple[str, ...]:
        return self.outputs

    @property
    def has_qos(self) -> bool:
        """True when all three QoS dimensions are advertised."""
        return (
            self.qos_time is not None
            and self.qos_cost is not None
            and self.qos_reliability is not None
        )

    def _body_elements(self) -> List[ET.Element]:
        elements = [
            _text_element("GID", self.group_id.urn),
            _text_element("Name", self.name),
            _text_element("Action", self.action),
            _text_element("Ontology", self.ontology_uri),
        ]
        if self.description:
            elements.append(_text_element("Desc", self.description))
        for concept in self.inputs:
            elements.append(_text_element("Input", concept))
        for concept in self.outputs:
            elements.append(_text_element("Output", concept))
        if self.qos_time is not None:
            elements.append(_text_element("QosTime", repr(self.qos_time)))
        if self.qos_cost is not None:
            elements.append(_text_element("QosCost", repr(self.qos_cost)))
        if self.qos_reliability is not None:
            elements.append(
                _text_element("QosReliability", repr(self.qos_reliability))
            )
        if self.shard_index is not None:
            elements.append(_text_element("ShardIndex", str(self.shard_index)))
        if self.shard_count is not None:
            elements.append(_text_element("ShardCount", str(self.shard_count)))
        if self.region is not None:
            elements.append(_text_element("Region", self.region))
        return elements

    @classmethod
    def _from_element(cls, root: ET.Element) -> "SemanticAdvertisement":
        def _optional_float(tag: str) -> Optional[float]:
            text = root.findtext(tag)
            return float(text) if text is not None else None

        def _optional_int(tag: str) -> Optional[int]:
            text = root.findtext(tag)
            return int(text) if text is not None else None

        return cls(
            group_id=PeerGroupId.from_urn(_required_text(root, "GID")),
            name=_required_text(root, "Name"),
            action=_required_text(root, "Action"),
            ontology_uri=root.findtext("Ontology", ""),
            description=root.findtext("Desc", ""),
            inputs=tuple(e.text or "" for e in root.findall("Input")),
            outputs=tuple(e.text or "" for e in root.findall("Output")),
            qos_time=_optional_float("QosTime"),
            qos_cost=_optional_float("QosCost"),
            qos_reliability=_optional_float("QosReliability"),
            shard_index=_optional_int("ShardIndex"),
            shard_count=_optional_int("ShardCount"),
            region=root.findtext("Region"),
        )
