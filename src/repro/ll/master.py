"""The Central/Master Link Layer.

Implements scanning, connection initiation (CONNECT_REQ), and the Master
side of connection events: transmit at the anchor point on the Master's own
(drifting) clock, then listen for the Slave's response.  The Master also
drives the instant-based procedures (connection update, channel map update)
and the simplified encryption-setup exchange.

The Master's scheduling is deliberately oblivious to anything the attacker
does: like real hardware, it transmits at its predicted anchor whether or
not an injected frame beat it there — which is why a successful injection
leaves the legitimate Master "ignored" (paper §VI-B) rather than disturbed.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.crypto.pairing import session_key_from_skd
from repro.crypto.session import LinkEncryption
from repro.errors import CodecError, ConnectionStateError
from repro.ll.access_address import ADVERTISING_ACCESS_ADDRESS, generate_access_address
from repro.ll.connection import (
    ConnectionParams,
    ConnectionState,
    Role,
    phy_mode_from_mask,
)
from repro.ll.device import LinkLayerDevice
from repro.ll.pdu.address import BdAddress
from repro.ll.pdu.advertising import AdvInd, ConnectReq, LLData, decode_advertising_pdu
from repro.ll.pdu.control import (
    ChannelMapInd,
    LengthReq,
    LengthRsp,
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
    StartEncReq,
    StartEncRsp,
    TerminateInd,
    UnknownRsp,
    VersionInd,
    decode_control_pdu,
)
from repro.ll.pdu.data import DataPdu
from repro.ll.pdu.frame import compute_advertising_crc, verify_crc
from repro.phy.crc import ADVERTISING_CRC_INIT
from repro.phy.signal import RadioFrame
from repro.sim.clock import ppm_to_sca_field
from repro.sim.events import Event
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.utils.units import SLOT_US, T_IFS_US


class MasterState(enum.Enum):
    """Lifecycle states of the Central."""

    IDLE = "idle"
    SCANNING = "scanning"
    CONNECTED = "connected"


#: Grace period beyond T_IFS during which the Master waits for a response
#: to start (generous, so responses re-anchored by an injected frame are
#: still heard and the connection survives the injection).
_RESPONSE_GRACE_US = 400.0


class MasterLinkLayer(LinkLayerDevice):
    """A Central: scanner/initiator + connection Master.

    Args:
        sim, medium, name, address: see :class:`LinkLayerDevice`.
        interval: hop interval (1.25 ms slots) proposed in CONNECT_REQ.
        latency: slave latency proposed in CONNECT_REQ.
        timeout: supervision timeout (10 ms units) proposed in CONNECT_REQ.
        win_size / win_offset: transmit window parameters.
        hop_increment: CSA#1 increment; ``None`` draws one of 5-16.
        channel_map: 37-bit used-channel mask.
        use_csa2: initiate with CSA#2 instead of CSA#1.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        address: BdAddress,
        interval: int = 36,
        latency: int = 0,
        timeout: int = 100,
        win_size: int = 2,
        win_offset: int = 1,
        hop_increment: Optional[int] = None,
        channel_map: int = (1 << 37) - 1,
        use_csa2: bool = False,
        sca_ppm: float = 50.0,
        tx_power_dbm: float = 0.0,
    ):
        super().__init__(sim, medium, name, address, sca_ppm=sca_ppm,
                         tx_power_dbm=tx_power_dbm)
        self._rng: np.random.Generator = sim.streams.get(f"master-{name}")
        self.interval = interval
        self.latency = latency
        self.timeout = timeout
        self.win_size = win_size
        self.win_offset = win_offset
        self.hop_increment = (
            hop_increment if hop_increment is not None
            else int(self._rng.integers(5, 17))
        )
        self.channel_map = channel_map
        self.use_csa2 = use_csa2
        self.state = MasterState.IDLE
        self._target: Optional[BdAddress] = None
        self._pending_events: list[Event] = []
        self._anchor_local: Optional[float] = None
        self._response_deadline: Optional[Event] = None
        self._awaiting_response = False
        self._pending_encryption: Optional[LinkEncryption] = None
        self._enc_req: Optional[EncReq] = None
        self._ltk: Optional[bytes] = None

    # ------------------------------------------------------------------
    # Scanning / initiating
    # ------------------------------------------------------------------

    def connect(self, target: BdAddress) -> None:
        """Scan for ``target`` and initiate a connection when heard."""
        if self.state is MasterState.CONNECTED:
            raise ConnectionStateError(f"{self.name}: already connected")
        self._target = target
        self.state = MasterState.SCANNING
        self._scan_channel_index = 0
        self._scan_hop()

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

    def _scan_hop(self) -> None:
        if self.state is not MasterState.SCANNING:
            return
        channel = (37, 38, 39)[self._scan_channel_index % 3]
        self._scan_channel_index += 1
        self.radio.listen(channel)
        self._schedule(self.sim.now + 30_000.0, self._scan_hop, "scan-hop")

    def _on_advertising_frame(self, frame: RadioFrame) -> None:
        if frame.access_address != ADVERTISING_ACCESS_ADDRESS:
            return
        if not verify_crc(frame, ADVERTISING_CRC_INIT):
            return
        try:
            pdu = decode_advertising_pdu(frame.pdu)
        except CodecError:
            return
        if not isinstance(pdu, AdvInd):
            return
        if self._target is None or pdu.adv_addr.value != self._target.value:
            return
        self._cancel_pending()
        self.radio.stop_listening()
        self.peer_address = pdu.adv_addr
        req = self._build_connect_req(pdu.adv_addr)
        self._schedule(
            frame.end_us + T_IFS_US,
            lambda: self._transmit_connect_req(req, frame.channel),
            "connect-req",
        )

    def _build_connect_req(self, adv_addr: BdAddress) -> ConnectReq:
        ll_data = LLData(
            access_address=generate_access_address(self._rng),
            crc_init=int(self._rng.integers(0, 1 << 24)),
            win_size=self.win_size,
            win_offset=self.win_offset,
            interval=self.interval,
            latency=self.latency,
            timeout=self.timeout,
            channel_map=self.channel_map,
            hop_increment=self.hop_increment,
            sca=ppm_to_sca_field(self.clock.sca_ppm),
        )
        return ConnectReq(init_addr=self.address, adv_addr=adv_addr,
                          ll_data=ll_data)

    def _transmit_connect_req(self, req: ConnectReq, channel: int) -> None:
        if self.state is not MasterState.SCANNING:
            return
        pdu = req.to_bytes()
        crc = compute_advertising_crc(pdu)
        frame = self.radio.transmit(ADVERTISING_ACCESS_ADDRESS, pdu, crc, channel)
        params = ConnectionParams.from_ll_data(req.ll_data, use_csa2=self.use_csa2)
        self._schedule(frame.end_us + 1.0,
                       lambda: self._enter_connection(params, frame.end_us),
                       "enter-connection")

    def _enter_connection(self, params: ConnectionParams,
                          req_end_true_us: float) -> None:
        self.state = MasterState.CONNECTED
        self.conn = ConnectionState(params, Role.MASTER,
                                    created_local_us=self.local_now)
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "conn-created",
                                  aa=params.access_address, interval=params.interval)
        # First anchor: the start of the transmit window (paper eq. 1).
        local_ref = self.clock.local_from_true(req_end_true_us)
        first_anchor = local_ref + SLOT_US + params.win_offset * SLOT_US
        self._anchor_local = first_anchor
        self._notify_connected()
        self.schedule_local(first_anchor, self._connection_event,
                            f"{self.name}-event")

    # ------------------------------------------------------------------
    # Connection events (Master side)
    # ------------------------------------------------------------------

    def _connection_event(self) -> None:
        if not self.is_connected:
            return
        conn = self._require_conn()
        if conn.supervision_expired(self.local_now):
            self.disconnect("supervision timeout")
            return
        due_map = conn.take_due_channel_map()
        if due_map is not None:
            conn.apply_channel_map(due_map)
        due_phy = conn.take_due_phy()
        if due_phy is not None:
            self.phy = phy_mode_from_mask(due_phy.m_to_s_phy)
            self.radio.rx_phy = self.phy
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "phy-applied",
                                      event_count=conn.event_count,
                                      phy=self.phy.value)
        channel = conn.channel_for_next_event()
        pdu = self.next_pdu_to_send()
        frame = self.transmit_pdu(pdu, channel)
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "master-tx",
                                  event_count=conn.event_count,
                                  sn=pdu.header.sn, nesn=pdu.header.nesn,
                                  channel=channel)
        self._check_enc_activation(pdu)
        if pdu.is_control and len(pdu.payload) > 0 and self.encryption is None:
            control = decode_control_pdu(pdu.payload)
            if isinstance(control, TerminateInd):
                # Sender side of the terminate procedure: leave once the
                # PDU is on air (ack-waiting elided; see DESIGN.md).
                self._schedule(frame.end_us + 2.0,
                               lambda: self.disconnect("local terminate"),
                               "terminate-local")
                return
        self._awaiting_response = True
        self._schedule(frame.end_us + 1.0,
                       lambda ch=channel: self.radio.listen(ch),
                       "master-rx-on")
        self._response_deadline = self._schedule(
            frame.end_us + T_IFS_US + _RESPONSE_GRACE_US,
            self._response_timeout, "master-response-deadline",
        )

    def _check_enc_activation(self, pdu: DataPdu) -> None:
        """Track our own encryption-start control traffic."""
        if not pdu.is_control or len(pdu.payload) == 0:
            return
        if self.encryption is not None:
            return
        control = decode_control_pdu(pdu.payload)
        if isinstance(control, EncReq):
            self._enc_req = control

    def _response_timeout(self) -> None:
        if not self.is_connected or not self._awaiting_response:
            return
        lock_end = self.medium.lock_end_of(self.radio)
        if lock_end is not None:
            self._response_deadline = self._schedule(
                lock_end + 2.0, self._response_timeout, "master-rx-extend"
            )
            return
        self.radio.stop_listening()
        self._awaiting_response = False
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "response-missed",
                                  event_count=self._require_conn().event_count)
        self._end_event()

    def _on_frame(self, frame: RadioFrame, rssi_dbm: float) -> None:
        if self.state is MasterState.SCANNING:
            self._on_advertising_frame(frame)
        elif self.state is MasterState.CONNECTED and self.is_connected:
            self._on_connection_frame(frame)

    def _on_connection_frame(self, frame: RadioFrame) -> None:
        conn = self._require_conn()
        if frame.access_address != conn.params.access_address:
            return
        if not self._awaiting_response:
            return
        if self._response_deadline is not None:
            self._response_deadline.cancel()
        self.radio.stop_listening()
        self._awaiting_response = False
        if verify_crc(frame, conn.params.crc_init):
            pdu = DataPdu.from_bytes(frame.pdu)
            is_new, _acked = conn.on_received_bits(pdu.header.sn, pdu.header.nesn)
            conn.note_valid_rx(self.local_now)
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "slave-heard",
                                      event_count=conn.event_count,
                                      sn=pdu.header.sn, nesn=pdu.header.nesn)
            if is_new and len(pdu.payload) > 0:
                decrypted = self.decrypt_if_needed(pdu)
                if decrypted is None:
                    return
                self._handle_payload(decrypted)
        else:
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "crc-error",
                                      event_count=conn.event_count)
        if self.is_connected:
            self._end_event()

    def _handle_payload(self, pdu: DataPdu) -> None:
        if pdu.is_control:
            self._handle_control(decode_control_pdu(pdu.payload))
        else:
            self._deliver_data(pdu.payload)

    def _handle_control(self, control: ControlPdu) -> None:
        if self.on_control is not None:
            self.on_control(control)
        if isinstance(control, TerminateInd):
            self.disconnect(f"peer terminated (0x{control.error_code:02X})")
        elif isinstance(control, EncRsp):
            if self._enc_req is not None and self._ltk is not None:
                session_key = session_key_from_skd(
                    self._ltk, self._enc_req.skd_m, control.skd_s
                )
                self.encryption = LinkEncryption(
                    session_key, self._enc_req.iv_m, control.iv_s,
                    is_master=True,
                )
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, self.name,
                                          "encryption-enabled")
        elif isinstance(control, FeatureReq):
            self.send_control(FeatureRsp(features=0))
        elif isinstance(control, LengthReq):
            self.send_control(LengthRsp())
        elif isinstance(control, (PhyRsp, LengthRsp)):
            pass
        elif isinstance(control, PingReq):
            self.send_control(PingRsp())
        elif isinstance(control, ClockAccuracyReq):
            self.send_control(
                ClockAccuracyRsp(sca=ppm_to_sca_field(self.clock.sca_ppm))
            )
        elif isinstance(control, (FeatureRsp, PingRsp, VersionInd,
                                  ClockAccuracyRsp, StartEncReq,
                                  StartEncRsp, UnknownRsp)):
            pass
        else:
            self.send_control(UnknownRsp(unknown_type=int(control.OPCODE)))

    def _end_event(self) -> None:
        conn = self._require_conn()
        assert self._anchor_local is not None
        old_interval_us = conn.params.interval_us
        conn.event_count = (conn.event_count + 1) & 0xFFFF
        predicted = self._anchor_local + old_interval_us
        due_update = conn.take_due_update()
        if due_update is not None:
            conn.apply_update(due_update)
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name,
                                      "conn-update-applied",
                                      event_count=conn.event_count,
                                      interval=conn.params.interval)
            predicted = predicted + SLOT_US + due_update.win_offset * SLOT_US
        self._anchor_local = predicted
        self.schedule_local(predicted, self._connection_event,
                            f"{self.name}-event")

    # ------------------------------------------------------------------
    # Procedures the Master can initiate
    # ------------------------------------------------------------------

    def request_connection_update(
        self,
        interval: int,
        win_size: int = 2,
        win_offset: int = 1,
        latency: int = 0,
        timeout: Optional[int] = None,
        instant_delta: int = 8,
    ) -> ConnectionUpdateInd:
        """Queue an LL_CONNECTION_UPDATE_IND and arm it locally."""
        conn = self._require_conn()
        update = ConnectionUpdateInd(
            win_size=win_size,
            win_offset=win_offset,
            interval=interval,
            latency=latency,
            timeout=timeout if timeout is not None else conn.params.timeout,
            instant=(conn.event_count + instant_delta) & 0xFFFF,
        )
        conn.schedule_update(update)
        self.send_control(update)
        return update

    def request_channel_map_update(
        self, channel_map: int, instant_delta: int = 8
    ) -> ChannelMapInd:
        """Queue an LL_CHANNEL_MAP_IND and arm it locally."""
        conn = self._require_conn()
        update = ChannelMapInd(
            channel_map=channel_map,
            instant=(conn.event_count + instant_delta) & 0xFFFF,
        )
        conn.schedule_channel_map(update)
        self.send_control(update)
        return update

    def request_phy_update(self, phy_mask: int, instant_delta: int = 8
                           ) -> PhyUpdateInd:
        """Switch both directions to a new PHY at a future instant."""
        conn = self._require_conn()
        update = PhyUpdateInd(
            m_to_s_phy=phy_mask, s_to_m_phy=phy_mask,
            instant=(conn.event_count + instant_delta) & 0xFFFF,
        )
        conn.schedule_phy(update)
        self.send_control(update)
        return update

    def start_encryption(self, ltk: bytes) -> None:
        """Kick off the (simplified) encryption-setup procedure."""
        self._require_conn()
        self._ltk = ltk
        skd_m = int(self._rng.integers(0, 1 << 63))
        iv_m = int(self._rng.integers(0, 1 << 32))
        rand = int(self._rng.integers(0, 1 << 63))
        ediv = int(self._rng.integers(0, 1 << 16))
        self.send_control(EncReq(rand=rand, ediv=ediv, skd_m=skd_m, iv_m=iv_m))

    def request_clock_accuracy(self) -> None:
        """Send LL_CLOCK_ACCURACY_REQ (leaks our SCA to any sniffer)."""
        self.send_control(ClockAccuracyReq(sca=ppm_to_sca_field(self.clock.sca_ppm)))

    def terminate(self, error_code: int = 0x13) -> None:
        """Queue LL_TERMINATE_IND and drop the connection after sending."""
        self.send_control(TerminateInd(error_code=error_code))

    def disconnect(self, reason: str) -> None:
        """Tear down and return to idle.

        If the connection setup never completed (the CONNECT_REQ or the
        first exchanges were lost — e.g. to a collision with another
        advertiser), the initiator goes back to scanning for its target,
        as real Centrals do.
        """
        never_established = (
            self.conn is not None and not self.conn.established
        )
        self._cancel_pending()
        self.state = MasterState.IDLE
        self._awaiting_response = False
        super().disconnect(reason)
        if never_established and self._target is not None:
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name,
                                      "reconnect-attempt")
            self.connect(self._target)
