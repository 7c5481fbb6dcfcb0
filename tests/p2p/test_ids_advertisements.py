"""Unit tests for JXTA ids and advertisements."""

import pytest

from repro.p2p import (
    Advertisement,
    AdvParseError,
    PeerAdvertisement,
    PeerGroupAdvertisement,
    PeerGroupId,
    PeerId,
    PipeAdvertisement,
    PipeId,
    SemanticAdvertisement,
    advertisement_from_xml,
)


class TestIds:
    def test_deterministic_from_name(self):
        assert PeerId.from_name("alpha") == PeerId.from_name("alpha")

    def test_distinct_names_distinct_ids(self):
        assert PeerId.from_name("alpha") != PeerId.from_name("beta")

    def test_kinds_do_not_collide(self):
        assert PeerId.from_name("x").uuid_hex != PeerGroupId.from_name("x").uuid_hex

    def test_urn_roundtrip(self):
        peer_id = PeerId.from_name("alpha")
        assert PeerId.from_urn(peer_id.urn) == peer_id
        assert peer_id.urn.startswith("urn:jxta:uuid-")

    def test_bad_urn_rejected(self):
        with pytest.raises(ValueError):
            PeerId.from_urn("http://not-a-urn")

    def test_ids_are_orderable_and_hashable(self):
        ids = sorted({PeerId.from_name(str(i)) for i in range(5)})
        assert len(ids) == 5


def _roundtrip(advertisement):
    return advertisement_from_xml(advertisement.to_xml())


class TestAdvertisements:
    def test_peer_advertisement_roundtrip(self):
        original = PeerAdvertisement(
            peer_id=PeerId.from_name("p"), name="p", host="h1", port=9701
        )
        parsed = _roundtrip(original)
        assert parsed.peer_id == original.peer_id
        assert parsed.address == ("h1", 9701)
        assert parsed.key() == original.key()

    def test_peergroup_advertisement_roundtrip(self):
        original = PeerGroupAdvertisement(
            group_id=PeerGroupId.from_name("g"), name="g", description="a group"
        )
        parsed = _roundtrip(original)
        assert parsed.group_id == original.group_id
        assert parsed.description == "a group"

    def test_pipe_advertisement_roundtrip(self):
        original = PipeAdvertisement(
            pipe_id=PipeId.from_name("pp"), name="pp",
            pipe_type=PipeAdvertisement.PROPAGATE,
        )
        parsed = _roundtrip(original)
        assert parsed.pipe_type == PipeAdvertisement.PROPAGATE

    def test_semantic_advertisement_roundtrip(self):
        original = SemanticAdvertisement(
            group_id=PeerGroupId.from_name("g"),
            name="students",
            action="http://o#StudentInformation",
            inputs=("http://o#StudentID",),
            outputs=("http://o#StudentInfo", "http://o#Extra"),
            ontology_uri="http://o",
            description="semantic group",
        )
        parsed = _roundtrip(original)
        assert parsed.get_sem_action() == original.action
        assert parsed.get_sem_input() == original.inputs
        assert parsed.get_sem_output() == original.outputs
        assert parsed.ontology_uri == "http://o"

    def test_lifetime_survives_roundtrip(self):
        original = PeerGroupAdvertisement(
            group_id=PeerGroupId.from_name("g"), name="g", lifetime=123.0
        )
        assert _roundtrip(original).lifetime == 123.0

    def test_attributes_view(self):
        advertisement = SemanticAdvertisement(
            group_id=PeerGroupId.from_name("g"), name="students",
            action="http://o#A",
        )
        attributes = advertisement.attributes()
        assert attributes["Name"] == "students"
        assert attributes["Action"] == "http://o#A"

    def test_unknown_type_rejected(self):
        with pytest.raises(AdvParseError):
            advertisement_from_xml('<x type="alien:Adv"/>')

    def test_malformed_rejected(self):
        with pytest.raises(AdvParseError):
            advertisement_from_xml("<oops")

    def test_missing_field_rejected(self):
        with pytest.raises(AdvParseError):
            advertisement_from_xml('<jxta_PA type="jxta:PA"><Name>n</Name></jxta_PA>')

    def test_size_grows_with_content(self):
        small = SemanticAdvertisement(
            group_id=PeerGroupId.from_name("g"), name="g", action="a"
        )
        big = SemanticAdvertisement(
            group_id=PeerGroupId.from_name("g"), name="g", action="a",
            inputs=tuple(f"http://o#In{i}" for i in range(20)),
        )
        assert big.size_bytes() > small.size_bytes()


class TestLazyXmlCache:
    def _adv(self):
        return SemanticAdvertisement(
            group_id=PeerGroupId.from_name("g"), name="g", action="a",
            inputs=("http://o#In",), outputs=("http://o#Out",),
        )

    def test_repeat_renders_are_cached_and_identical(self):
        advertisement = self._adv()
        first = advertisement.to_xml()
        assert advertisement.to_xml() is first  # cached object, not re-render
        assert advertisement.size_bytes() == len(first.encode())

    def test_invalidate_after_mutation_re_renders(self):
        advertisement = self._adv()
        before = advertisement.to_xml()
        advertisement.lifetime = 12.5
        advertisement.invalidate_xml_cache()
        after = advertisement.to_xml()
        assert after != before
        assert 'lifetime="12.5"' in after

    def test_size_bytes_encodes_once_per_advertisement(self, monkeypatch):
        advertisement = self._adv()
        documents = []
        to_xml = Advertisement.to_xml

        def counted(self):
            documents.append(to_xml(self))
            return documents[-1]

        monkeypatch.setattr(Advertisement, "to_xml", counted)
        sizes = {advertisement.size_bytes() for _ in range(50)}
        # One document asked for, so one ``encode``; 49 answers from the cache.
        assert len(documents) == 1 and sizes == {len(documents[0].encode())}

    def test_parse_after_cached_render_roundtrips(self):
        advertisement = self._adv()
        document = advertisement.to_xml()
        parsed = advertisement_from_xml(document)
        assert parsed.key() == advertisement.key()
        assert parsed.get_sem_input() == ("http://o#In",)
