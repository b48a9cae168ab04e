"""ATT PDU codecs.

Each PDU is a frozen dataclass with ``to_bytes`` / ``from_bytes``; the
module-level :func:`decode_att_pdu` dispatches on the opcode byte.  These
are the payloads Scenario A injects: a *Write Request* turning the paper's
lightbulb off is exactly ``WriteReq(handle, value).to_bytes()`` wrapped in
L2CAP and a data PDU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import CodecError
from repro.host.att.opcodes import AttError, AttOpcode


@dataclass(frozen=True)
class ErrorRsp:
    """Error Response: which request failed, on what handle, and why."""

    request_opcode: int
    handle: int
    error: AttError

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return bytes([AttOpcode.ERROR_RSP, self.request_opcode]) + \
            self.handle.to_bytes(2, "little") + bytes([int(self.error)])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ErrorRsp":
        """Decode from wire bytes."""
        if len(data) != 5:
            raise CodecError(f"ERROR_RSP must be 5 bytes, got {len(data)}")
        try:
            error = AttError(data[4])
        except ValueError:
            raise CodecError(f"unknown ATT error code 0x{data[4]:02X}") from None
        return cls(data[1], int.from_bytes(data[2:4], "little"), error)


@dataclass(frozen=True)
class ExchangeMtuReq:
    """Exchange MTU Request."""

    mtu: int = 23

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return bytes([AttOpcode.EXCHANGE_MTU_REQ]) + self.mtu.to_bytes(2, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExchangeMtuReq":
        """Decode from wire bytes."""
        if len(data) != 3:
            raise CodecError("EXCHANGE_MTU_REQ must be 3 bytes")
        return cls(int.from_bytes(data[1:3], "little"))


@dataclass(frozen=True)
class ExchangeMtuRsp:
    """Exchange MTU Response."""

    mtu: int = 23

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return bytes([AttOpcode.EXCHANGE_MTU_RSP]) + self.mtu.to_bytes(2, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExchangeMtuRsp":
        """Decode from wire bytes."""
        if len(data) != 3:
            raise CodecError("EXCHANGE_MTU_RSP must be 3 bytes")
        return cls(int.from_bytes(data[1:3], "little"))


@dataclass(frozen=True)
class FindInformationReq:
    """Find Information Request over a handle range."""

    start_handle: int
    end_handle: int

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return (bytes([AttOpcode.FIND_INFORMATION_REQ])
                + self.start_handle.to_bytes(2, "little")
                + self.end_handle.to_bytes(2, "little"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "FindInformationReq":
        """Decode from wire bytes."""
        if len(data) != 5:
            raise CodecError("FIND_INFORMATION_REQ must be 5 bytes")
        return cls(int.from_bytes(data[1:3], "little"),
                   int.from_bytes(data[3:5], "little"))


@dataclass(frozen=True)
class FindInformationRsp:
    """Find Information Response: (handle, 16-bit uuid) pairs (format 1)."""

    pairs: tuple[tuple[int, int], ...]

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        out = bytearray([AttOpcode.FIND_INFORMATION_RSP, 0x01])
        for handle, uuid in self.pairs:
            out += handle.to_bytes(2, "little") + uuid.to_bytes(2, "little")
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FindInformationRsp":
        """Decode from wire bytes."""
        if len(data) < 2 or data[1] != 0x01 or (len(data) - 2) % 4:
            raise CodecError("malformed FIND_INFORMATION_RSP")
        pairs = tuple(
            (int.from_bytes(data[i : i + 2], "little"),
             int.from_bytes(data[i + 2 : i + 4], "little"))
            for i in range(2, len(data), 4)
        )
        return cls(pairs)


@dataclass(frozen=True)
class ReadByTypeReq:
    """Read By Type Request (e.g. read Device Name by UUID 0x2A00)."""

    start_handle: int
    end_handle: int
    uuid: int

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return (bytes([AttOpcode.READ_BY_TYPE_REQ])
                + self.start_handle.to_bytes(2, "little")
                + self.end_handle.to_bytes(2, "little")
                + self.uuid.to_bytes(2, "little"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReadByTypeReq":
        """Decode from wire bytes."""
        if len(data) != 7:
            raise CodecError("READ_BY_TYPE_REQ must be 7 bytes (16-bit UUID)")
        return cls(int.from_bytes(data[1:3], "little"),
                   int.from_bytes(data[3:5], "little"),
                   int.from_bytes(data[5:7], "little"))


@dataclass(frozen=True)
class ReadByTypeRsp:
    """Read By Type Response: uniform-length (handle, value) records."""

    records: tuple[tuple[int, bytes], ...]

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        if not self.records:
            raise CodecError("READ_BY_TYPE_RSP needs at least one record")
        value_len = len(self.records[0][1])
        if any(len(v) != value_len for _, v in self.records):
            raise CodecError("READ_BY_TYPE_RSP records must be uniform length")
        out = bytearray([AttOpcode.READ_BY_TYPE_RSP, 2 + value_len])
        for handle, value in self.records:
            out += handle.to_bytes(2, "little") + value
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReadByTypeRsp":
        """Decode from wire bytes."""
        if len(data) < 4:
            raise CodecError("READ_BY_TYPE_RSP too short")
        record_len = data[1]
        if record_len < 2 or (len(data) - 2) % record_len:
            raise CodecError("malformed READ_BY_TYPE_RSP")
        records = tuple(
            (int.from_bytes(data[i : i + 2], "little"), data[i + 2 : i + record_len])
            for i in range(2, len(data), record_len)
        )
        return cls(records)


@dataclass(frozen=True)
class ReadByGroupTypeReq:
    """Read By Group Type Request (service discovery)."""

    start_handle: int
    end_handle: int
    uuid: int = 0x2800

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return (bytes([AttOpcode.READ_BY_GROUP_TYPE_REQ])
                + self.start_handle.to_bytes(2, "little")
                + self.end_handle.to_bytes(2, "little")
                + self.uuid.to_bytes(2, "little"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReadByGroupTypeReq":
        """Decode from wire bytes."""
        if len(data) != 7:
            raise CodecError("READ_BY_GROUP_TYPE_REQ must be 7 bytes")
        return cls(int.from_bytes(data[1:3], "little"),
                   int.from_bytes(data[3:5], "little"),
                   int.from_bytes(data[5:7], "little"))


@dataclass(frozen=True)
class ReadByGroupTypeRsp:
    """Read By Group Type Response: (start, end, value) records."""

    records: tuple[tuple[int, int, bytes], ...]

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        if not self.records:
            raise CodecError("READ_BY_GROUP_TYPE_RSP needs records")
        value_len = len(self.records[0][2])
        if any(len(v) != value_len for *_, v in self.records):
            raise CodecError("READ_BY_GROUP_TYPE_RSP records must be uniform")
        out = bytearray([AttOpcode.READ_BY_GROUP_TYPE_RSP, 4 + value_len])
        for start, end, value in self.records:
            out += start.to_bytes(2, "little") + end.to_bytes(2, "little") + value
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReadByGroupTypeRsp":
        """Decode from wire bytes."""
        if len(data) < 6:
            raise CodecError("READ_BY_GROUP_TYPE_RSP too short")
        record_len = data[1]
        if record_len < 4 or (len(data) - 2) % record_len:
            raise CodecError("malformed READ_BY_GROUP_TYPE_RSP")
        records = tuple(
            (int.from_bytes(data[i : i + 2], "little"),
             int.from_bytes(data[i + 2 : i + 4], "little"),
             data[i + 4 : i + record_len])
            for i in range(2, len(data), record_len)
        )
        return cls(records)


@dataclass(frozen=True)
class ReadReq:
    """Read Request on a handle (Scenario A's confidentiality primitive)."""

    handle: int

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return bytes([AttOpcode.READ_REQ]) + self.handle.to_bytes(2, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReadReq":
        """Decode from wire bytes."""
        if len(data) != 3:
            raise CodecError("READ_REQ must be 3 bytes")
        return cls(int.from_bytes(data[1:3], "little"))


@dataclass(frozen=True)
class ReadRsp:
    """Read Response carrying the attribute value."""

    value: bytes

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return bytes([AttOpcode.READ_RSP]) + self.value

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReadRsp":
        """Decode from wire bytes."""
        return cls(data[1:])


@dataclass(frozen=True)
class WriteReq:
    """Write Request (Scenario A's integrity primitive)."""

    handle: int
    value: bytes

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return (bytes([AttOpcode.WRITE_REQ])
                + self.handle.to_bytes(2, "little") + self.value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteReq":
        """Decode from wire bytes."""
        if len(data) < 3:
            raise CodecError("WRITE_REQ too short")
        return cls(int.from_bytes(data[1:3], "little"), data[3:])


@dataclass(frozen=True)
class WriteRsp:
    """Write Response (no fields)."""

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return bytes([AttOpcode.WRITE_RSP])

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteRsp":
        """Decode from wire bytes."""
        if len(data) != 1:
            raise CodecError("WRITE_RSP must be 1 byte")
        return cls()


@dataclass(frozen=True)
class WriteCmd:
    """Write Command: unacknowledged write."""

    handle: int
    value: bytes

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return (bytes([AttOpcode.WRITE_CMD])
                + self.handle.to_bytes(2, "little") + self.value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteCmd":
        """Decode from wire bytes."""
        if len(data) < 3:
            raise CodecError("WRITE_CMD too short")
        return cls(int.from_bytes(data[1:3], "little"), data[3:])


@dataclass(frozen=True)
class HandleValueNtf:
    """Handle Value Notification (server-initiated, unacknowledged)."""

    handle: int
    value: bytes

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return (bytes([AttOpcode.HANDLE_VALUE_NTF])
                + self.handle.to_bytes(2, "little") + self.value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "HandleValueNtf":
        """Decode from wire bytes."""
        if len(data) < 3:
            raise CodecError("HANDLE_VALUE_NTF too short")
        return cls(int.from_bytes(data[1:3], "little"), data[3:])


@dataclass(frozen=True)
class HandleValueInd:
    """Handle Value Indication (server-initiated, acknowledged)."""

    handle: int
    value: bytes

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return (bytes([AttOpcode.HANDLE_VALUE_IND])
                + self.handle.to_bytes(2, "little") + self.value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "HandleValueInd":
        """Decode from wire bytes."""
        if len(data) < 3:
            raise CodecError("HANDLE_VALUE_IND too short")
        return cls(int.from_bytes(data[1:3], "little"), data[3:])


@dataclass(frozen=True)
class HandleValueCfm:
    """Handle Value Confirmation."""

    def to_bytes(self) -> bytes:
        """Encode to wire bytes."""
        return bytes([AttOpcode.HANDLE_VALUE_CFM])

    @classmethod
    def from_bytes(cls, data: bytes) -> "HandleValueCfm":
        """Decode from wire bytes."""
        if len(data) != 1:
            raise CodecError("HANDLE_VALUE_CFM must be 1 byte")
        return cls()


AttPdu = Union[
    ErrorRsp, ExchangeMtuReq, ExchangeMtuRsp, FindInformationReq,
    FindInformationRsp, ReadByTypeReq, ReadByTypeRsp, ReadByGroupTypeReq,
    ReadByGroupTypeRsp, ReadReq, ReadRsp, WriteReq, WriteRsp, WriteCmd,
    HandleValueNtf, HandleValueInd, HandleValueCfm,
]

_DECODERS = {
    AttOpcode.ERROR_RSP: ErrorRsp,
    AttOpcode.EXCHANGE_MTU_REQ: ExchangeMtuReq,
    AttOpcode.EXCHANGE_MTU_RSP: ExchangeMtuRsp,
    AttOpcode.FIND_INFORMATION_REQ: FindInformationReq,
    AttOpcode.FIND_INFORMATION_RSP: FindInformationRsp,
    AttOpcode.READ_BY_TYPE_REQ: ReadByTypeReq,
    AttOpcode.READ_BY_TYPE_RSP: ReadByTypeRsp,
    AttOpcode.READ_BY_GROUP_TYPE_REQ: ReadByGroupTypeReq,
    AttOpcode.READ_BY_GROUP_TYPE_RSP: ReadByGroupTypeRsp,
    AttOpcode.READ_REQ: ReadReq,
    AttOpcode.READ_RSP: ReadRsp,
    AttOpcode.WRITE_REQ: WriteReq,
    AttOpcode.WRITE_RSP: WriteRsp,
    AttOpcode.WRITE_CMD: WriteCmd,
    AttOpcode.HANDLE_VALUE_NTF: HandleValueNtf,
    AttOpcode.HANDLE_VALUE_IND: HandleValueInd,
    AttOpcode.HANDLE_VALUE_CFM: HandleValueCfm,
}


def decode_att_pdu(data: bytes) -> AttPdu:
    """Decode an ATT PDU from its bytes, dispatching on the opcode."""
    if not data:
        raise CodecError("empty ATT PDU")
    try:
        opcode = AttOpcode(data[0])
    except ValueError:
        raise CodecError(f"unknown ATT opcode 0x{data[0]:02X}") from None
    return _DECODERS[opcode].from_bytes(data)
