"""The built-in detectors of the defense bench.

Three are the paper's §VIII monitor signatures (double frames, anchor
anomalies, jamming), ported from the original single-file IDS onto the
scored-verdict protocol; two are new:

* **response-time** — BLEKeeper's MITM signal: a per-connection model of
  the ATT request→response round-trip, scored with a CUSUM of the excess
  over a budget derived from the learned connection interval.  A relayed
  connection (scenario D) answers one-to-two connection events late; a
  direct peer answers within the same event.
* **hop-conformance** — protocol-conformance checks a wideband monitor
  can make for free: data frames on channels outside the connection's
  advertised channel map, and same-SN retransmissions whose content
  changed (real retransmissions repeat the PDU verbatim; an injected
  frame forging the expected SN does not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.defense.api import (
    Detector,
    DetectorDef,
    FrameView,
    Verdict,
    register_detector,
)
from repro.errors import CodecError
from repro.host.att.opcodes import AttOpcode
from repro.host.l2cap import CID_ATT
from repro.ll.access_address import ADVERTISING_ACCESS_ADDRESS
from repro.ll.pdu.advertising import ConnectReq, decode_advertising_pdu
from repro.ll.pdu.data import LLID, DataPdu
from repro.ll.timing import window_widening_us
from repro.utils.bits import bytes_to_int_le
from repro.utils.units import SLOT_US

#: ATT request opcode → its success-response opcode (requests that get a
#: response at all; commands and notifications are fire-and-forget).
ATT_REQUEST_RESPONSE: Dict[int, int] = {
    int(AttOpcode.EXCHANGE_MTU_REQ): int(AttOpcode.EXCHANGE_MTU_RSP),
    int(AttOpcode.FIND_INFORMATION_REQ): int(AttOpcode.FIND_INFORMATION_RSP),
    int(AttOpcode.READ_BY_TYPE_REQ): int(AttOpcode.READ_BY_TYPE_RSP),
    int(AttOpcode.READ_REQ): int(AttOpcode.READ_RSP),
    int(AttOpcode.READ_BY_GROUP_TYPE_REQ):
        int(AttOpcode.READ_BY_GROUP_TYPE_RSP),
    int(AttOpcode.WRITE_REQ): int(AttOpcode.WRITE_RSP),
}

#: Response-time budget as a multiple of the learned connection interval:
#: a direct peer answers within the event it was asked in (far under one
#: interval); a MITM relay needs at least a full round on the second
#: connection, i.e. two intervals or more.
RTT_BUDGET_INTERVALS = 1.5


def _att_opcode(pdu: bytes) -> Optional[int]:
    """The ATT opcode of a data PDU, or ``None`` for non-ATT traffic.

    Parses the unencrypted L2CAP framing the way a wideband monitor
    would: 2-byte length, 2-byte CID, then the ATT opcode.  Fragments
    and encrypted payloads simply fail the checks and return ``None``.
    """
    try:
        decoded = DataPdu.from_bytes(pdu)
    except CodecError:
        return None
    if decoded.header.llid is not LLID.DATA_START:
        return None
    payload = decoded.payload
    if len(payload) < 5:
        return None
    cid = bytes_to_int_le(payload[2:4])
    if cid != CID_ATT:
        return None
    return payload[4]


class DoubleFrameDetector(Detector):
    """The paper's core signature: two same-AA frames overlapping on air.

    A legitimate connection never has two simultaneous transmissions
    under one access address on one channel; the InjectaBLE race
    produces exactly that (Fig. 5, situation b), so every occurrence
    scores a full alert.
    """

    name = "double-frame"

    def on_frame(self, view: FrameView) -> List[Verdict]:
        if view.is_advertising:
            return []
        frame = view.frame
        verdicts = []
        for other in view.overlaps:
            if (other.channel == frame.channel
                    and other.access_address == frame.access_address):
                verdicts.append(self._verdict(
                    view, 1.0, "double-frame",
                    f"two AA={frame.access_address:#010x} frames overlap "
                    f"on channel {frame.channel}"))
        return verdicts


class JammingDetector(Detector):
    """Cross-AA collisions against a known connection (BTLEJack signature).

    Distinct connections land on the same channel extremely rarely, so
    repeated data-AA collisions mean someone is transmitting over the
    victim's frames.  Each collision is a full-score verdict; ambient
    worlds measure how often dense legitimate traffic trips it.
    """

    name = "jamming"

    def on_frame(self, view: FrameView) -> List[Verdict]:
        if view.is_advertising:
            return []
        frame = view.frame
        verdicts = []
        for other in view.overlaps:
            if other.channel != frame.channel:
                continue
            if other.access_address == frame.access_address:
                continue  # the double-frame detector's case
            if other.access_address == ADVERTISING_ACCESS_ADDRESS:
                continue
            victim = (frame.access_address if view.known_connection
                      else other.access_address)
            verdicts.append(self._verdict(
                view, 1.0, "jamming",
                f"cross-AA collision with AA={victim:#010x} "
                f"on channel {frame.channel}", access_address=victim))
        return verdicts


@dataclass
class _AnchorModel:
    """Per-AA anchor-timing state the anchor detector learns online."""

    last_anchor_us: Optional[float] = None
    interval_estimate_us: Optional[float] = None
    #: Anchors left to skip while an observed re-timing procedure (an
    #: LL_CONNECTION_UPDATE_IND / LL_CHANNEL_MAP_IND) settles.
    suppress_anchors: int = 0


class AnchorAnomalyDetector(Detector):
    """Frames arriving earlier than clock drift allows (situation a).

    Learns each connection's interval from inter-anchor gaps, allows for
    the drift-budget window widening plus constant slack, and scores an
    early anchor by how far it beats the allowance (``score = early /
    allowance``, so 1.0 is exactly the alert boundary).

    Args:
        drift_budget_ppm: combined Master+Slave SCA budget.
        anchor_slack_us: constant slack added to the drift allowance.
    """

    name = "anchor-anomaly"

    def __init__(self, drift_budget_ppm: float = 100.0,
                 anchor_slack_us: float = 40.0):
        self.drift_budget_ppm = drift_budget_ppm
        self.anchor_slack_us = anchor_slack_us
        self._models: Dict[int, _AnchorModel] = {}

    def on_frame(self, view: FrameView) -> List[Verdict]:
        if view.is_advertising or not view.new_event:
            return []
        frame = view.frame
        model = self._models.setdefault(frame.access_address, _AnchorModel())
        verdicts = self._check_anchor(view, model)
        model.last_anchor_us = frame.start_us
        self._scan_for_procedures(frame.pdu, model)
        return verdicts

    def _check_anchor(self, view: FrameView,
                      model: _AnchorModel) -> List[Verdict]:
        if model.last_anchor_us is None:
            return []
        if model.suppress_anchors > 0:
            model.suppress_anchors -= 1
            return []
        delta = view.frame.start_us - model.last_anchor_us
        if model.interval_estimate_us is None:
            # Learn the interval from the first inter-anchor gap, snapped
            # to the 1.25 ms grid.
            slots = max(6.0, round(delta / SLOT_US))
            model.interval_estimate_us = slots * SLOT_US
            return []
        interval = model.interval_estimate_us
        events = max(1, round(delta / interval))
        expected = events * interval
        allowance = (window_widening_us(self.drift_budget_ppm, 0.0, expected)
                     + self.anchor_slack_us)
        early_by = expected - delta
        verdicts = []
        if early_by > allowance:
            verdicts.append(self._verdict(
                view, early_by / allowance, "anchor-anomaly",
                f"anchor {early_by:.1f} µs early "
                f"(allowance {allowance:.1f} µs)"))
        # Track slow drift by updating the reference interval estimate.
        if abs(delta - expected) < allowance and events == 1:
            model.interval_estimate_us = 0.9 * interval + 0.1 * delta
        return verdicts

    def _scan_for_procedures(self, pdu: bytes, model: _AnchorModel) -> None:
        """Suppress anchor checks while a visible re-timing procedure
        (plaintext LL_CONNECTION_UPDATE_IND / LL_CHANNEL_MAP_IND) settles;
        the interval is re-learned afterwards.  Encrypted control traffic
        is opaque — a documented limitation shared with real monitors."""
        try:
            decoded = DataPdu.from_bytes(pdu)
        except CodecError:
            return
        if decoded.header.llid is not LLID.CONTROL or not decoded.payload:
            return
        opcode = decoded.payload[0]
        if opcode in (0x00, 0x01):  # connection update / channel map
            model.suppress_anchors = 80
            model.interval_estimate_us = None


@dataclass
class _RttModel:
    """Per-AA request/response state of the response-time detector."""

    last_anchor_us: Optional[float] = None
    interval_estimate_us: Optional[float] = None
    #: Outstanding ATT request: (expected response opcode, send time).
    outstanding: Optional[Tuple[int, float]] = None
    #: CUSUM of response-time excess over the budget, µs.
    cusum_us: float = 0.0


class ResponseTimeDetector(Detector):
    """BLEKeeper-style MITM detection from request→response latency.

    Pairs each plaintext ATT request with its response on the same
    connection and scores the round-trip against a budget of
    ``rtt_budget_intervals`` learned connection intervals.  A direct
    peer answers T_IFS after being polled — far inside one interval; a
    MITM relay must forward the request over its second connection and
    relay the answer back, adding one-to-two intervals of latency
    (exactly the BLEKeeper observation PAPERS.md describes).

    Every paired response emits a verdict (``score = max(rtt, cusum) /
    budget``), so benign traffic produces a low-scoring stream the ROC
    analysis uses for the false-positive axis, and sustained relay
    latency escalates through the CUSUM term.

    Args:
        rtt_budget_intervals: budget as a multiple of the learned
            connection interval.
    """

    name = "response-time"

    def __init__(self,
                 rtt_budget_intervals: float = RTT_BUDGET_INTERVALS):
        self.rtt_budget_intervals = rtt_budget_intervals
        self._models: Dict[int, _RttModel] = {}

    def on_frame(self, view: FrameView) -> List[Verdict]:
        if view.is_advertising:
            return []
        frame = view.frame
        model = self._models.setdefault(frame.access_address, _RttModel())
        if view.new_event:
            self._learn_interval(frame.start_us, model)
        opcode = _att_opcode(frame.pdu)
        if opcode is None:
            return []
        expected = ATT_REQUEST_RESPONSE.get(opcode)
        if expected is not None:
            # A copy of the in-flight request (a link-layer retransmission,
            # or a MITM relay re-emitting it on the far half of a forked
            # connection) must not rewind the clock: the requester has
            # been waiting since the first copy.
            if model.outstanding is None or model.outstanding[0] != expected:
                model.outstanding = (expected, frame.start_us)
            return []
        return self._match_response(view, model, opcode)

    def _learn_interval(self, anchor_us: float, model: _RttModel) -> None:
        if model.last_anchor_us is not None:
            delta = anchor_us - model.last_anchor_us
            if model.interval_estimate_us is None:
                slots = max(6.0, round(delta / SLOT_US))
                model.interval_estimate_us = slots * SLOT_US
            elif round(delta / model.interval_estimate_us) == 1:
                model.interval_estimate_us = \
                    0.9 * model.interval_estimate_us + 0.1 * delta
        model.last_anchor_us = anchor_us

    def _match_response(self, view: FrameView, model: _RttModel,
                        opcode: int) -> List[Verdict]:
        if model.outstanding is None:
            return []
        expected, sent_us = model.outstanding
        if opcode != expected and opcode != int(AttOpcode.ERROR_RSP):
            return []
        model.outstanding = None
        if model.interval_estimate_us is None:
            return []  # no timing model yet; nothing to judge against
        rtt = view.frame.start_us - sent_us
        budget = self.rtt_budget_intervals * model.interval_estimate_us
        model.cusum_us = max(0.0, model.cusum_us + (rtt - budget))
        score = max(rtt, model.cusum_us) / budget
        return [self._verdict(
            view, score, "slow-response",
            f"ATT rtt {rtt:.0f} µs (budget {budget:.0f} µs, "
            f"cusum {model.cusum_us:.0f} µs)")]


@dataclass
class _HopModel:
    """Per-AA conformance state of the hop-conformance detector."""

    channel_map: int = 0
    #: (direction slot → (SN bit, LLID, payload)) of the last data PDU.
    last_pdu: Dict[int, Tuple[int, int, bytes]] = field(default_factory=dict)


class HopConformanceDetector(Detector):
    """Channel-map conformance and SN-consistency checks.

    Learns each connection's 37-bit channel map from its CONNECT_REQ
    (and visible LL_CHANNEL_MAP_IND updates) and flags data frames on
    channels the map forbids — a hopping-sequence violation no
    spec-conforming device produces.  Independently, it tracks the 1-bit
    ARQ per direction: a frame repeating the previous SN must be a
    verbatim retransmission, so same-SN frames whose content changed
    reveal an injected PDU forged with the sequence number the victim
    expects.
    """

    name = "hop-conformance"

    def __init__(self) -> None:
        self._models: Dict[int, _HopModel] = {}

    def on_frame(self, view: FrameView) -> List[Verdict]:
        frame = view.frame
        if view.is_advertising:
            self._learn_connect_req(frame.pdu)
            return []
        model = self._models.get(frame.access_address)
        if model is None:
            model = self._models[frame.access_address] = _HopModel()
        verdicts = []
        if model.channel_map and not (model.channel_map >> frame.channel) & 1:
            verdicts.append(self._verdict(
                view, 1.0, "bad-channel",
                f"data frame on channel {frame.channel}, outside the "
                f"connection's channel map {model.channel_map:#011x}"))
        verdicts.extend(self._check_sequence(view, model))
        self._track_map_update(frame.pdu, model)
        return verdicts

    def _learn_connect_req(self, pdu: bytes) -> None:
        try:
            decoded = decode_advertising_pdu(pdu)
        except CodecError:
            return
        if isinstance(decoded, ConnectReq):
            model = self._models.setdefault(
                decoded.ll_data.access_address, _HopModel())
            model.channel_map = decoded.ll_data.channel_map
            model.last_pdu.clear()

    def _track_map_update(self, pdu: bytes, model: _HopModel) -> None:
        """Follow visible LL_CHANNEL_MAP_IND updates so a legitimate map
        change does not turn into a stream of bad-channel verdicts."""
        try:
            decoded = DataPdu.from_bytes(pdu)
        except CodecError:
            return
        if decoded.header.llid is not LLID.CONTROL:
            return
        payload = decoded.payload
        if len(payload) >= 6 and payload[0] == 0x01:  # LL_CHANNEL_MAP_IND
            model.channel_map = bytes_to_int_le(payload[1:6])

    def _check_sequence(self, view: FrameView,
                        model: _HopModel) -> List[Verdict]:
        try:
            decoded = DataPdu.from_bytes(view.frame.pdu)
        except CodecError:
            return []
        header = decoded.header
        # Even in-event indices are Master transmissions, odd are Slave;
        # each direction runs its own SN stream.
        slot = view.index_in_event % 2
        previous = model.last_pdu.get(slot)
        model.last_pdu[slot] = (header.sn, int(header.llid), decoded.payload)
        if previous is None:
            return []
        prev_sn, prev_llid, prev_payload = previous
        if header.sn != prev_sn:
            return []
        if (int(header.llid), decoded.payload) == (prev_llid, prev_payload):
            return []  # verbatim retransmission: spec behaviour
        return [self._verdict(
            view, 1.0, "sn-reuse",
            f"SN={header.sn} reused with different content "
            f"({len(decoded.payload)} vs {len(prev_payload)} payload bytes)")]


def _register_builtins() -> None:
    """Register the built-in detectors (import side effect of the package)."""
    register_detector(DetectorDef(
        "double-frame", DoubleFrameDetector,
        "same-AA frames overlapping on air (InjectaBLE collision, §VIII)"))
    register_detector(DetectorDef(
        "anchor-anomaly", AnchorAnomalyDetector,
        "frames earlier than the drift allowance permits (§VIII)"))
    register_detector(DetectorDef(
        "jamming", JammingDetector,
        "cross-AA collisions against a known connection (BTLEJack)"))
    register_detector(DetectorDef(
        "response-time", ResponseTimeDetector,
        "ATT request→response latency model with CUSUM (BLEKeeper)"))
    register_detector(DetectorDef(
        "hop-conformance", HopConformanceDetector,
        "channel-map conformance + SN-reuse-with-changed-content checks"))


_register_builtins()
