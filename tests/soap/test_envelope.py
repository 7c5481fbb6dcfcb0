"""Unit tests for SOAP envelopes and faults."""

import pytest

from repro.soap import EncodingError, Envelope, EnvelopeError, FaultCode, SoapFault


class TestCallEnvelope:
    def test_roundtrip(self):
        envelope = Envelope.call("StudentInformation", {"ID": "S00001"})
        parsed = Envelope.from_xml(envelope.to_xml())
        assert parsed.kind == "call"
        assert parsed.operation == "StudentInformation"
        assert parsed.arguments == {"ID": "S00001"}

    def test_empty_arguments(self):
        parsed = Envelope.from_xml(Envelope.call("Ping").to_xml())
        assert parsed.arguments == {}

    def test_complex_arguments(self):
        arguments = {"filter": {"ids": ["a", "b"], "limit": 5}, "flag": True}
        parsed = Envelope.from_xml(Envelope.call("Query", arguments).to_xml())
        assert parsed.arguments == arguments


class TestResultEnvelope:
    def test_roundtrip(self):
        value = {"studentId": "S1", "courses": ["M101"]}
        parsed = Envelope.from_xml(Envelope.result("Op", value).to_xml())
        assert parsed.kind == "result"
        assert parsed.value == value
        assert not parsed.is_fault
        parsed.raise_if_fault()  # no-op

    def test_none_result(self):
        parsed = Envelope.from_xml(Envelope.result("Op", None).to_xml())
        assert parsed.value is None


class TestFaultEnvelope:
    def test_roundtrip(self):
        fault = SoapFault(FaultCode.CLIENT, "bad input", detail={"field": "ID"},
                          faultactor="urn:svc")
        parsed = Envelope.from_xml(Envelope.from_fault(fault).to_xml())
        assert parsed.is_fault
        assert parsed.fault.faultcode == "Client"
        assert parsed.fault.faultstring == "bad input"
        assert parsed.fault.detail == {"field": "ID"}
        assert parsed.fault.faultactor == "urn:svc"

    def test_raise_if_fault(self):
        parsed = Envelope.from_xml(
            Envelope.from_fault(SoapFault.server("down")).to_xml()
        )
        with pytest.raises(SoapFault, match="down"):
            parsed.raise_if_fault()

    def test_fault_constructors(self):
        assert SoapFault.client("x").faultcode == FaultCode.CLIENT
        assert SoapFault.server("x").faultcode == FaultCode.SERVER


class TestErrors:
    def test_malformed_xml(self):
        with pytest.raises(EnvelopeError):
            Envelope.from_xml("<oops")

    def test_wrong_root(self):
        with pytest.raises(EnvelopeError):
            Envelope.from_xml("<html/>")

    def test_empty_body(self):
        xml = (
            '<soapenv:Envelope xmlns:soapenv='
            '"http://schemas.xmlsoap.org/soap/envelope/">'
            "<soapenv:Body/></soapenv:Envelope>"
        )
        with pytest.raises(EnvelopeError):
            Envelope.from_xml(xml)

    @pytest.mark.parametrize(
        "build",
        [
            lambda c: Envelope.call(f"op{c}", {"a": 1}),
            lambda c: Envelope.call("op", {f"a{c}": 1}),
            lambda c: Envelope.from_fault(SoapFault(FaultCode.SERVER, f"down{c}")),
            lambda c: Envelope.from_fault(
                SoapFault(FaultCode.SERVER, "down", faultactor=f"urn:{c}")
            ),
        ],
        ids=["operation", "argument-name", "faultstring", "faultactor"],
    )
    def test_xml_invalid_character_refused_in_every_position(self, build):
        """The writer refuses what its own reader would: no position is
        written unchecked, and the error names the character and its index
        in the document (where a harmless ``_`` lands in the valid twin)."""
        with pytest.raises(EncodingError) as refused:
            build("\x01").to_xml()
        message = str(refused.value)
        assert "'\\x01'" in message
        index = int(message.rsplit(" ", 1)[1])
        assert build("_").to_xml()[index] == "_"

    def test_size_bytes_positive_and_grows(self):
        small = Envelope.call("Op", {"a": 1})
        big = Envelope.call("Op", {"a": "x" * 10000})
        assert 0 < small.size_bytes() < big.size_bytes()
