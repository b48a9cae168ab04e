"""The Peripheral/Slave Link Layer.

Implements advertising, connection establishment as the Slave, and — most
importantly for InjectaBLE — the *receive window* state machine: at every
connection event the Slave opens a window widened by ``w`` (paper eq. 4/5)
around the predicted anchor point and accepts the **first** frame that
arrives in it with the connection's access address.  That first-frame rule
is the race the attacker wins.

Simplifications relative to a full stack (documented in DESIGN.md):

* one Master↔Slave exchange per connection event (the MD bit is decoded
  but multi-PDU events are not chained);
* slave latency is honoured in the widening arithmetic but the Slave
  listens at every event (latency 0 behaviour), as in the paper's setups;
* the encryption-setup three-way handshake is collapsed to
  ENC_REQ → ENC_RSP with both sides enabling CCM at the exchange's end.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.crypto.pairing import session_key_from_skd
from repro.crypto.session import LinkEncryption
from repro.errors import CodecError, ConnectionStateError
from repro.ll.connection import ConnectionParams, ConnectionState, Role
from repro.ll.device import LinkLayerDevice
from repro.ll.pdu.address import BdAddress
from repro.ll.pdu.advertising import (
    AdvInd,
    ConnectReq,
    ScanReq,
    ScanRsp,
    decode_advertising_pdu,
)
from repro.ll.access_address import ADVERTISING_ACCESS_ADDRESS
from repro.ll.connection import phy_mode_from_mask
from repro.ll.pdu.control import (
    ChannelMapInd,
    LengthReq,
    LengthRsp,
    PhyReq,
    PhyRsp,
    PhyUpdateInd,
    ClockAccuracyReq,
    ClockAccuracyRsp,
    ConnectionUpdateInd,
    ControlPdu,
    EncReq,
    EncRsp,
    FeatureReq,
    FeatureRsp,
    PingReq,
    PingRsp,
    TerminateInd,
    UnknownRsp,
    VersionInd,
    decode_control_pdu,
)
from repro.ll.pdu.data import DataPdu
from repro.ll.pdu.frame import compute_advertising_crc, verify_crc
from repro.ll.timing import transmit_window, window_widening_us
from repro.phy.crc import ADVERTISING_CRC_INIT
from repro.phy.signal import RadioFrame
from repro.sim.clock import ppm_to_sca_field
from repro.sim.events import Event
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.utils.units import T_IFS_US


class SlaveState(enum.Enum):
    """Lifecycle states of the Peripheral."""

    IDLE = "idle"
    ADVERTISING = "advertising"
    CONNECTED = "connected"


#: How long the advertiser listens after each ADV_IND for a request
#: (covers T_IFS plus a CONNECT_REQ's 352 µs air time with margin).
_ADV_RX_WINDOW_US = T_IFS_US + 420.0


class SlaveLinkLayer(LinkLayerDevice):
    """A Peripheral: advertiser + connection Slave.

    Args:
        sim, medium, name, address: see :class:`LinkLayerDevice`.
        adv_interval_ms: advertising interval (plus 0-10 ms random delay).
        adv_data: AD payload broadcast in ADV_IND.
        scan_data: payload returned in SCAN_RSP.
        ltk: long-term key enabling the encryption-setup procedure.
        readvertise_on_disconnect: restart advertising when a connection
            ends (real IoT devices usually do).
        use_csa2: accept CSA#2 connections (flag mirrored from CONNECT_REQ
            in a real stack; here a configuration choice).
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        address: BdAddress,
        adv_interval_ms: float = 100.0,
        adv_data: bytes = b"",
        scan_data: bytes = b"",
        ltk: Optional[bytes] = None,
        readvertise_on_disconnect: bool = False,
        use_csa2: bool = False,
        sca_ppm: float = 50.0,
        tx_power_dbm: float = 0.0,
        widening_scale: float = 1.0,
    ):
        super().__init__(sim, medium, name, address, sca_ppm=sca_ppm,
                         tx_power_dbm=tx_power_dbm)
        #: Mitigation knob (§VIII): scale factor on the computed window
        #: widening; 1.0 is the spec behaviour, smaller values shrink the
        #: injection opportunity at the cost of robustness to drift.
        self.widening_scale = widening_scale
        self.adv_interval_ms = adv_interval_ms
        self.adv_data = adv_data
        self.scan_data = scan_data
        self.ltk = ltk
        self.readvertise_on_disconnect = readvertise_on_disconnect
        self.use_csa2 = use_csa2
        self.state = SlaveState.IDLE
        self._adv_rng: np.random.Generator = sim.streams.get(f"adv-{name}")
        self._adv_channels: list[int] = []
        self._pending_events: list[Event] = []
        # Connection-event bookkeeping.
        self._anchor_local: Optional[float] = None
        self._events_since_anchor = 1
        self._window_close: Optional[Event] = None
        self._terminate_after_response: Optional[str] = None
        self._pending_encryption: Optional[LinkEncryption] = None

    # ------------------------------------------------------------------
    # Advertising
    # ------------------------------------------------------------------

    def start_advertising(self) -> None:
        """Begin the advertising cycle on channels 37, 38, 39."""
        if self.state is SlaveState.CONNECTED:
            raise ConnectionStateError(f"{self.name}: connected, cannot advertise")
        self.state = SlaveState.ADVERTISING
        self._schedule(self.sim.now, self._advertising_event, "adv-start")

    def stop_advertising(self) -> None:
        """Stop advertising (pending radio operations are cancelled)."""
        if self.state is SlaveState.ADVERTISING:
            self.state = SlaveState.IDLE
            self._cancel_pending()
            self.radio.stop_listening()

    def _schedule(self, time_us: float, handler, label: str) -> Event:
        event = self.sim.schedule_at(max(time_us, self.sim.now), handler, label)
        self._pending_events.append(event)
        if len(self._pending_events) > 64:
            # Amortised compaction: fired and cancelled handles are
            # inert (cancel() on them is a no-op), so dropping them
            # lazily keeps this O(1) per call instead of O(n).
            self._pending_events = [e for e in self._pending_events if e.pending]
        return event

    def _cancel_pending(self) -> None:
        for event in self._pending_events:
            event.cancel()
        self._pending_events.clear()

    def _advertising_event(self) -> None:
        if self.state is not SlaveState.ADVERTISING:
            return
        self._adv_channels = [37, 38, 39]
        self._advertise_next_channel()

    def _advertise_next_channel(self) -> None:
        if self.state is not SlaveState.ADVERTISING:
            return
        if not self._adv_channels:
            # Cycle done: schedule the next one with the spec's 0-10 ms
            # pseudo-random advDelay.
            delay_ms = self.adv_interval_ms + float(self._adv_rng.uniform(0.0, 10.0))
            self._schedule(self.sim.now + delay_ms * 1000.0,
                           self._advertising_event, "adv-cycle")
            return
        if self.radio.is_transmitting(self.sim.now):
            # A previous frame (e.g. the terminate acknowledgement) is
            # still on air; the radio is half duplex.
            self._schedule(self.sim.now + 200.0, self._advertise_next_channel,
                           "adv-defer")
            return
        channel = self._adv_channels.pop(0)
        pdu = AdvInd(self.address, self.adv_data).to_bytes()
        crc = compute_advertising_crc(pdu)
        frame = self.radio.transmit(ADVERTISING_ACCESS_ADDRESS, pdu, crc, channel)
        self._schedule(frame.end_us + 1.0,
                       lambda ch=channel: self._listen_after_adv(ch),
                       "adv-listen")

    def _listen_after_adv(self, channel: int) -> None:
        if self.state is not SlaveState.ADVERTISING:
            return
        self.radio.listen(channel)
        self._schedule(self.sim.now + _ADV_RX_WINDOW_US,
                       self._adv_listen_timeout, "adv-listen-timeout")

    def _adv_listen_timeout(self) -> None:
        if self.state is not SlaveState.ADVERTISING:
            return
        lock_end = self.medium.lock_end_of(self.radio)
        if lock_end is not None:
            self._schedule(lock_end + 2.0, self._adv_listen_timeout,
                           "adv-listen-extend")
            return
        self.radio.stop_listening()
        self._advertise_next_channel()

    def _on_advertising_frame(self, frame: RadioFrame) -> None:
        if frame.access_address != ADVERTISING_ACCESS_ADDRESS:
            return
        if not verify_crc(frame, ADVERTISING_CRC_INIT):
            return
        try:
            pdu = decode_advertising_pdu(frame.pdu)
        except CodecError:
            return
        if isinstance(pdu, ScanReq) and pdu.adv_addr.value == self.address.value:
            rsp = ScanRsp(self.address, self.scan_data).to_bytes()
            crc = compute_advertising_crc(rsp)
            self._schedule(
                frame.end_us + T_IFS_US,
                lambda: self._tx_adv_response(rsp, crc, frame.channel),
                "scan-rsp",
            )
        elif isinstance(pdu, ConnectReq) and pdu.adv_addr.value == self.address.value:
            self._enter_connection(pdu, frame)

    def _tx_adv_response(self, pdu: bytes, crc: int, channel: int) -> None:
        if self.state is not SlaveState.ADVERTISING:
            return
        self.radio.stop_listening()
        self.radio.transmit(ADVERTISING_ACCESS_ADDRESS, pdu, crc, channel)
        self._schedule(self.sim.now + 400.0, self._advertise_next_channel,
                       "adv-continue")

    # ------------------------------------------------------------------
    # Connection establishment (Slave side)
    # ------------------------------------------------------------------

    def _enter_connection(self, req: ConnectReq, frame: RadioFrame) -> None:
        self._cancel_pending()
        self.radio.stop_listening()
        params = ConnectionParams.from_ll_data(req.ll_data, use_csa2=self.use_csa2)
        self.peer_address = req.init_addr
        self.conn = ConnectionState(params, Role.SLAVE,
                                    created_local_us=self.local_now)
        self.state = SlaveState.CONNECTED
        self._anchor_local = None
        self._events_since_anchor = 1
        self._terminate_after_response = None
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "conn-created",
                                  aa=params.access_address, interval=params.interval)
        self._notify_connected()
        # Transmit window, paper eq. 1, measured from the CONNECT_REQ end.
        local_ref = self.local_now
        window = transmit_window(local_ref, params.win_offset, params.win_size)
        w = self.widening_scale * window_widening_us(
            params.master_sca_ppm, self.clock.sca_ppm,
            window.start_us - local_ref,
        )
        channel = self.conn.channel_for_next_event()
        self._open_window(window.start_us - w, window.end_us + w, channel)

    # ------------------------------------------------------------------
    # Connection events
    # ------------------------------------------------------------------

    def _open_window(self, open_local: float, close_local: float,
                     channel: int) -> None:
        self.schedule_local(open_local, lambda: self._window_open(channel),
                            f"{self.name}-window-open")
        self._window_close = self.schedule_local(
            close_local, self._window_timeout, f"{self.name}-window-close"
        )
        self._pending_events.append(self._window_close)

    def _window_open(self, channel: int) -> None:
        if not self.is_connected:
            return
        self.radio.listen(channel)
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "window-open",
                                  channel=channel,
                                  event_count=self.conn.event_count)

    def _window_timeout(self) -> None:
        if not self.is_connected:
            return
        lock_end = self.medium.lock_end_of(self.radio)
        if lock_end is not None:
            # Keep demodulating the frame we are synchronised to.
            self._window_close = self.sim.schedule_at(
                lock_end + 2.0, self._window_timeout, f"{self.name}-window-extend"
            )
            self._pending_events.append(self._window_close)
            return
        self.radio.stop_listening()
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "event-missed",
                                  event_count=self.conn.event_count)
        self._close_event(received=False)

    def _close_event(self, received: bool) -> None:
        """End the current connection event and set up the next one."""
        conn = self.conn
        if conn is None or conn.terminated:
            return
        if conn.supervision_expired(self.local_now):
            self.disconnect("supervision timeout")
            self._maybe_readvertise()
            return
        conn.event_count = (conn.event_count + 1) & 0xFFFF
        self._events_since_anchor += 1
        self._begin_event()

    def _begin_event(self) -> None:
        """Prepare the receive window of the (already incremented) event."""
        conn = self._require_conn()
        due_map = conn.take_due_channel_map()
        if due_map is not None:
            conn.apply_channel_map(due_map)
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "channel-map-applied",
                                      event_count=conn.event_count)
        due_phy = conn.take_due_phy()
        if due_phy is not None:
            self.phy = phy_mode_from_mask(due_phy.m_to_s_phy)
            self.radio.rx_phy = self.phy
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "phy-applied",
                                      event_count=conn.event_count,
                                      phy=self.phy.value)
        channel = conn.channel_for_next_event()
        anchor = self._anchor_local
        if anchor is None:
            # Never synchronised: extremely defensive fallback, supervision
            # will kill the connection shortly.
            anchor = self.local_now
        interval_us = conn.params.interval_us
        predicted = anchor + self._events_since_anchor * interval_us
        due_update = conn.take_due_update()
        if due_update is not None:
            # Connection update instant (paper Fig. 2): a fresh transmit
            # window computed against the old-schedule predicted anchor.
            window = transmit_window(predicted, due_update.win_offset,
                                     due_update.win_size)
            w = self.widening_scale * window_widening_us(
                conn.params.master_sca_ppm, self.clock.sca_ppm,
                window.start_us - anchor,
            )
            conn.apply_update(due_update)
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "conn-update-applied",
                                      event_count=conn.event_count,
                                      interval=conn.params.interval)
            # Re-base the anchor prediction on the window start so the
            # following events hop on the new interval from there.
            self._anchor_local = window.start_us
            self._events_since_anchor = 0
            self._open_window(window.start_us - w, window.end_us + w, channel)
            return
        w = self.widening_scale * window_widening_us(
            conn.params.master_sca_ppm, self.clock.sca_ppm, predicted - anchor
        )
        self._open_window(predicted - w, predicted + w, channel)

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------

    def _on_frame(self, frame: RadioFrame, rssi_dbm: float) -> None:
        if self.state is SlaveState.ADVERTISING:
            self._on_advertising_frame(frame)
        elif self.state is SlaveState.CONNECTED and self.is_connected:
            self._on_connection_frame(frame)

    def _on_connection_frame(self, frame: RadioFrame) -> None:
        conn = self._require_conn()
        if frame.access_address != conn.params.access_address:
            return
        if self._window_close is not None:
            self._window_close.cancel()
        self.radio.stop_listening()
        # Any AA-matching frame re-anchors the event timing, CRC-valid or
        # not (this is what makes the injected frame the new anchor point).
        self._anchor_local = self.clock.local_from_true(frame.start_us)
        self._events_since_anchor = 0
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "anchor",
                                  event_count=conn.event_count,
                                  anchor_us=frame.start_us,
                                  frame_id=frame.frame_id)
        crc_ok = verify_crc(frame, conn.params.crc_init)
        if crc_ok:
            pdu = DataPdu.from_bytes(frame.pdu)
            is_new, _acked = conn.on_received_bits(pdu.header.sn, pdu.header.nesn)
            conn.note_valid_rx(self.local_now)
            if is_new and len(pdu.payload) > 0:
                decrypted = self.decrypt_if_needed(pdu)
                if decrypted is None:
                    return  # MIC failure tore the connection down
                self._handle_payload(decrypted)
        else:
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "crc-error",
                                      event_count=conn.event_count,
                                      frame_id=frame.frame_id)
        if self.conn is None or self.conn.terminated:
            return
        # Respond T_IFS after the received frame's end, whatever the CRC
        # said (the flow-control bits communicate the failure).
        self.sim.schedule_at(
            frame.end_us + T_IFS_US + max(self.clock.sample_jitter(), -4.0),
            self._send_response, f"{self.name}-response",
        )

    def _handle_payload(self, pdu: DataPdu) -> None:
        if pdu.is_control:
            self._handle_control(decode_control_pdu(pdu.payload))
        else:
            self._deliver_data(pdu.payload)

    def _handle_control(self, control: ControlPdu) -> None:
        conn = self._require_conn()
        if self.on_control is not None:
            self.on_control(control)
        if isinstance(control, TerminateInd):
            self._terminate_after_response = (
                f"LL_TERMINATE_IND (0x{control.error_code:02X})"
            )
        elif isinstance(control, ConnectionUpdateInd):
            try:
                conn.schedule_update(control)
            except ConnectionStateError:
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, self.name,
                                          "update-rejected")
        elif isinstance(control, ChannelMapInd):
            try:
                conn.schedule_channel_map(control)
            except ConnectionStateError:
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, self.name,
                                          "chmap-rejected")
        elif isinstance(control, EncReq):
            self._handle_enc_req(control)
        elif isinstance(control, PhyReq):
            self.send_control(PhyRsp())
        elif isinstance(control, PhyUpdateInd):
            try:
                conn.schedule_phy(control)
            except ConnectionStateError:
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, self.name,
                                          "phy-update-rejected")
        elif isinstance(control, LengthReq):
            self.send_control(LengthRsp())
        elif isinstance(control, FeatureReq):
            self.send_control(FeatureRsp(features=0))
        elif isinstance(control, PingReq):
            self.send_control(PingRsp())
        elif isinstance(control, VersionInd):
            self.send_control(VersionInd())
        elif isinstance(control, ClockAccuracyReq):
            self.send_control(
                ClockAccuracyRsp(sca=ppm_to_sca_field(self.clock.sca_ppm))
            )
        elif isinstance(control, (EncRsp, ClockAccuracyRsp, FeatureRsp,
                                  PingRsp, UnknownRsp)):
            pass  # responses to procedures we initiated; nothing to do
        else:
            self.send_control(UnknownRsp(unknown_type=int(control.OPCODE)))

    def _handle_enc_req(self, req: EncReq) -> None:
        if self.ltk is None:
            self.send_control(UnknownRsp(unknown_type=int(req.OPCODE)))
            return
        rng = self.sim.streams.get(f"enc-{self.name}")
        skd_s = int(rng.integers(0, 1 << 63))
        iv_s = int(rng.integers(0, 1 << 32))
        session_key = session_key_from_skd(self.ltk, req.skd_m, skd_s)
        self._pending_encryption = LinkEncryption(
            session_key, req.iv_m, iv_s, is_master=False
        )
        self.send_control(EncRsp(skd_s=skd_s, iv_s=iv_s))

    # ------------------------------------------------------------------
    # Response transmission
    # ------------------------------------------------------------------

    def _send_response(self) -> None:
        if not self.is_connected:
            return
        conn = self._require_conn()
        assert conn.current_channel is not None
        pdu = self.next_pdu_to_send()
        self.transmit_pdu(pdu, conn.current_channel)
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "slave-response",
                                  sn=pdu.header.sn, nesn=pdu.header.nesn,
                                  event_count=conn.event_count)
        if (self._pending_encryption is not None and pdu.is_control
                and len(pdu.payload) > 0 and self.encryption is None):
            control = decode_control_pdu(pdu.payload)
            if isinstance(control, EncRsp):
                self.encryption = self._pending_encryption
                self._pending_encryption = None
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, self.name,
                                          "encryption-enabled")
        if self._terminate_after_response is not None:
            reason = self._terminate_after_response
            self._terminate_after_response = None
            self.disconnect(reason)
            self._maybe_readvertise()
            return
        self._close_event(received=True)

    def _maybe_readvertise(self) -> None:
        if self.readvertise_on_disconnect and self.state is not SlaveState.ADVERTISING:
            self.state = SlaveState.IDLE
            self.start_advertising()

    def disconnect(self, reason: str) -> None:
        """Tear down and fall back to idle (or advertising)."""
        self._cancel_pending()
        self.state = SlaveState.IDLE
        super().disconnect(reason)
