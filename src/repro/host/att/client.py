"""ATT client: request issuing, pending-request tracking, notifications.

The client is transport-agnostic: it is constructed with a ``send``
callable and fed incoming PDUs through :meth:`on_pdu`.  The host glue in
:mod:`repro.host.stack` wires it to a Link-Layer device; the attacker's
hijacking stacks wire the same class to their own raw transports.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import CodecError, HostError
from repro.host.att.pdus import (
    AttPdu,
    ErrorRsp,
    ExchangeMtuReq,
    FindInformationReq,
    HandleValueCfm,
    HandleValueInd,
    HandleValueNtf,
    ReadByGroupTypeReq,
    ReadByTypeReq,
    ReadReq,
    WriteCmd,
    WriteReq,
    decode_att_pdu,
)

#: Response callback type.
ResponseCallback = Callable[[AttPdu], None]


class AttClient:
    """Issues ATT requests and matches responses to callbacks.

    ATT allows one outstanding request at a time; further requests are
    queued and sent as responses arrive.

    Args:
        send: callable delivering raw ATT bytes to the peer.
    """

    def __init__(self, send: Callable[[bytes], None]):
        self._send = send
        self._pending: Optional[ResponseCallback] = None
        self._queue: deque[tuple[bytes, Optional[ResponseCallback]]] = deque()
        #: Called for every Handle Value Notification / Indication.
        self.on_notification: Optional[Callable[[int, bytes], None]] = None

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def _submit(self, pdu_bytes: bytes, callback: Optional[ResponseCallback]
                ) -> None:
        if self._pending is None:
            if callback is not None:
                self._pending = callback
            self._send(pdu_bytes)
        else:
            self._queue.append((pdu_bytes, callback))

    def exchange_mtu(self, mtu: int = 23,
                     callback: Optional[ResponseCallback] = None) -> None:
        """Send Exchange MTU Request."""
        self._submit(ExchangeMtuReq(mtu).to_bytes(), callback or (lambda _: None))

    def read(self, handle: int, callback: ResponseCallback) -> None:
        """Send Read Request for ``handle``."""
        self._submit(ReadReq(handle).to_bytes(), callback)

    def read_by_type(self, uuid: int, callback: ResponseCallback,
                     start: int = 1, end: int = 0xFFFF) -> None:
        """Send Read By Type Request (e.g. UUID 0x2A00 = Device Name)."""
        self._submit(ReadByTypeReq(start, end, uuid).to_bytes(), callback)

    def read_by_group_type(self, callback: ResponseCallback, start: int = 1,
                           end: int = 0xFFFF, uuid: int = 0x2800) -> None:
        """Send Read By Group Type Request (primary service discovery)."""
        self._submit(ReadByGroupTypeReq(start, end, uuid).to_bytes(), callback)

    def find_information(self, start: int, end: int,
                         callback: ResponseCallback) -> None:
        """Send Find Information Request."""
        self._submit(FindInformationReq(start, end).to_bytes(), callback)

    def write(self, handle: int, value: bytes,
              callback: Optional[ResponseCallback] = None) -> None:
        """Send Write Request for ``handle``."""
        self._submit(WriteReq(handle, value).to_bytes(),
                     callback or (lambda _: None))

    def write_command(self, handle: int, value: bytes) -> None:
        """Send Write Command (no response expected, bypasses the queue)."""
        self._send(WriteCmd(handle, value).to_bytes())

    # ------------------------------------------------------------------
    # Incoming traffic
    # ------------------------------------------------------------------

    def on_pdu(self, data: bytes) -> None:
        """Feed one incoming ATT PDU from the transport."""
        try:
            pdu = decode_att_pdu(data)
        except CodecError:
            return
        if isinstance(pdu, HandleValueNtf):
            if self.on_notification is not None:
                self.on_notification(pdu.handle, pdu.value)
            return
        if isinstance(pdu, HandleValueInd):
            if self.on_notification is not None:
                self.on_notification(pdu.handle, pdu.value)
            self._send(HandleValueCfm().to_bytes())
            return
        callback = self._pending
        self._pending = None
        if callback is not None:
            callback(pdu)
        self._drain()

    def _drain(self) -> None:
        if self._pending is not None or not self._queue:
            return
        pdu_bytes, callback = self._queue.popleft()
        if callback is not None:
            self._pending = callback
        self._send(pdu_bytes)

    @property
    def busy(self) -> bool:
        """Whether a request is outstanding."""
        return self._pending is not None
