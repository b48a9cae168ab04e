"""Unit tests for ATT PDU codecs."""

import pytest

from repro.errors import CodecError
from repro.host.att.opcodes import AttError, AttOpcode
from repro.host.att.pdus import (
    ErrorRsp,
    ExchangeMtuReq,
    ExchangeMtuRsp,
    FindInformationReq,
    FindInformationRsp,
    HandleValueCfm,
    HandleValueInd,
    HandleValueNtf,
    ReadByGroupTypeReq,
    ReadByGroupTypeRsp,
    ReadByTypeReq,
    ReadByTypeRsp,
    ReadReq,
    ReadRsp,
    WriteCmd,
    WriteReq,
    WriteRsp,
    decode_att_pdu,
)

ROUND_TRIP_PDUS = [
    ErrorRsp(AttOpcode.READ_REQ, 0x0042, AttError.ATTRIBUTE_NOT_FOUND),
    ExchangeMtuReq(mtu=185),
    ExchangeMtuRsp(mtu=23),
    FindInformationReq(1, 0xFFFF),
    FindInformationRsp(((1, 0x2800), (2, 0x2803))),
    ReadByTypeReq(1, 0xFFFF, 0x2A00),
    ReadByTypeRsp(((3, b"abcd"),)),
    ReadByGroupTypeReq(1, 0xFFFF, 0x2800),
    ReadByGroupTypeRsp(((1, 5, b"\x00\x18"),)),
    ReadReq(0x0007),
    ReadRsp(b"value-bytes"),
    WriteReq(0x0006, b"\x01\x00"),
    WriteRsp(),
    WriteCmd(0x0006, b"\x01\x01"),
    HandleValueNtf(0x000A, b"notify"),
    HandleValueInd(0x000A, b"indicate"),
    HandleValueCfm(),
]


class TestRoundTrips:
    @pytest.mark.parametrize("pdu", ROUND_TRIP_PDUS,
                             ids=lambda p: type(p).__name__)
    def test_round_trip(self, pdu):
        assert decode_att_pdu(pdu.to_bytes()) == pdu


class TestWireFormats:
    def test_write_req_layout(self):
        # Scenario A's primary weapon: opcode | handle LE | value.
        pdu = WriteReq(0x0102, b"\xff")
        assert pdu.to_bytes() == b"\x12\x02\x01\xff"

    def test_read_req_layout(self):
        assert ReadReq(0x0007).to_bytes() == b"\x0a\x07\x00"

    def test_write_cmd_opcode(self):
        assert WriteCmd(1, b"").to_bytes()[0] == 0x52

    def test_error_rsp_layout(self):
        pdu = ErrorRsp(0x0A, 0x0001, AttError.INVALID_HANDLE)
        assert pdu.to_bytes() == b"\x01\x0a\x01\x00\x01"


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(CodecError):
            decode_att_pdu(b"")

    def test_unknown_opcode_rejected(self):
        with pytest.raises(CodecError):
            decode_att_pdu(b"\x99")

    def test_truncated_write_rejected(self):
        with pytest.raises(CodecError):
            decode_att_pdu(b"\x12\x01")

    def test_read_by_type_rsp_uniform_lengths(self):
        with pytest.raises(CodecError):
            ReadByTypeRsp(((1, b"ab"), (2, b"abc"))).to_bytes()

    def test_read_by_type_rsp_needs_records(self):
        with pytest.raises(CodecError):
            ReadByTypeRsp(()).to_bytes()

    def test_prepare_queue_full_error_decodes(self):
        pdu = decode_att_pdu(bytes.fromhex("0178bcb909"))
        assert pdu.error is AttError.PREPARE_QUEUE_FULL

    @pytest.mark.parametrize("code", [0x00, 0x14, 0x80, 0xFF])
    def test_unknown_error_code_rejected(self, code):
        with pytest.raises(CodecError):
            decode_att_pdu(bytes([AttOpcode.ERROR_RSP, 0x12, 0x01, 0x00,
                                  code]))

    def test_malformed_find_information_rejected(self):
        with pytest.raises(CodecError):
            decode_att_pdu(bytes([AttOpcode.FIND_INFORMATION_RSP, 0x01,
                                  0x01]))
