"""Analytic fast-forward of quiet BLE connection-event and advertising
cycles.

The post-injection phase of a trial is *quiet*: Master and Slave exchange
empty data PDUs (poll / ack) every connection interval while the attacker's
radio sits idle, and the trial still has to run out its ~120 s deadline so
the survival checks observe a representative stretch of the hijacked (or
untouched) connection.  Event-by-event, each such connection event costs
6-7 heap operations, two ``RadioFrame`` allocations, closures, and medium
lock bookkeeping — and the quiet phase dominates a trial's wall clock by
two orders of magnitude.

:class:`QuietCycleEngine` replaces that stretch with closed-form
arithmetic.  Whenever the event queue holds *exactly* the steady-state trio
(the Slave's window-open and window-close events and the Master's
connection event) and a conservative eligibility audit passes, the engine
computes each cycle directly — CSA channel, SN/NESN ARQ bits, SleepClock
drift/jitter, path-loss shadowing — emitting the *same* trace records,
metric increments and RNG stream consumption the reference path would
produce, then writes the end state back and lets the reference engine
resume.  Anything it cannot replicate bit-for-bit (pending procedures,
queued data, an attacker radio in play, a window edge within float
tolerance of a frame boundary) disengages it *before* any RNG draw, so the
reference path takes over mid-trial with no divergence.

The same engine has a second closed-form mode for the *idle advertising
tail*: after an ``LL_TERMINATE_IND`` the Peripheral drops the connection
and re-advertises until the deadline with nobody listening.  Whenever the
advertiser's next ``adv-cycle`` is the only live event and an audit proves
nothing can hear or perturb it (no frame on air, no receiver lock, no tap,
no radio in RX, the advertiser not transmitting and with no TX-complete
hook), the engine computes whole cycles directly — three ADV_IND frames on
channels 37, 38, 39 with their listen windows, then the 0-10 ms advDelay
draw — emitting the same ``tx`` trace records, metric increments, frame
ids, transmission counters and ``adv-`` RNG consumption, and hands the
reference path the re-created next cycle.  It stops before any cycle that
would cross the run horizon or use up the event budget.

Correctness contract (enforced by ``tests/test_engine_differential.py``):
byte-identical traces and bit-identical results against the reference
engine.  See DESIGN.md, "Epoch scheduler & analytic fast-forward", for the
invariants and the full bail-out list.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.ll.access_address import ADVERTISING_ACCESS_ADDRESS
from repro.ll.csa1 import NUM_DATA_CHANNELS
from repro.ll.master import _RESPONSE_GRACE_US, MasterState
from repro.ll.pdu.advertising import AdvInd
from repro.ll.pdu.data import LLID, DataPdu
from repro.ll.pdu.frame import compute_advertising_crc, compute_crc
from repro.ll.slave import _ADV_RX_WINDOW_US, SlaveState
from repro.ll.timing import WINDOW_WIDENING_CONSTANT_US
from repro.phy import signal as _signal
from repro.phy.modulation import PhyMode, air_time_us
from repro.phy.signal import RadioFrame
from repro.sim.events import TIME_EPS_US, Event
from repro.sim.medium import (
    LINK_MARGIN_SIGMAS,
    RECENT_HORIZON_US,
    Medium,
    _ActiveTransmission,
)
from repro.sim.simulator import Simulator
from repro.utils.units import PPM, T_IFS_US

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ll.master import MasterLinkLayer
    from repro.ll.slave import SlaveLinkLayer

#: Environment variable consulted by :func:`resolve_engine`.  The CLI's
#: ``--engine`` flag sets it so worker processes inherit the choice.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Engine names accepted by :func:`resolve_engine`.
ENGINE_FAST = "fast"
ENGINE_REFERENCE = "reference"
_VALID_ENGINES = (ENGINE_FAST, ENGINE_REFERENCE)

#: The empty data PDU's LLID as an int (header byte arithmetic).
_LLID_EMPTY = int(LLID.DATA_CONTINUATION)
_LLID_CONTROL = int(LLID.CONTROL)

#: How far below a frame's start the Slave's scheduled-response clamp may
#: reach (mirrors the ``max(jitter, -4.0)`` clamp in ``slave.py``).
_RESPONSE_JITTER_FLOOR_US = -4.0

#: Link-margin multiple of the shadowing sigma required for engagement
#: (shared with the medium's indexed-pruning margin).  At 8 sigma the
#: probability of a single fade dropping a frame below the sensitivity
#: floor is ~1e-15 per cycle; the engine still hard-checks every sampled
#: power and raises if the impossible happens.
_LINK_MARGIN_SIGMAS = LINK_MARGIN_SIGMAS

#: Frames that ended longer ago than this no longer matter for collision
#: resolution; the medium's recent-window pruning horizon.
_RECENT_HORIZON_US = RECENT_HORIZON_US

#: Advertising channels in the order one advertising cycle visits them.
_ADV_CHANNELS = (37, 38, 39)

#: Events one advertising cycle fires: ``adv-cycle`` plus, per channel,
#: ``medium-finish``, ``adv-listen`` and ``adv-listen-timeout``.
_ADV_CYCLE_EVENTS = 1 + 3 * len(_ADV_CHANNELS)

_events_fast_forwarded = 0


def events_fast_forwarded() -> int:
    """Total simulator events replaced by fast-forward, process-wide.

    Units run on :class:`repro.runner.WorkerPool` workers are credited
    back here (:func:`credit_fast_forward_count`), so this counts every
    unit the process ran or dispatched, at any ``--jobs``.  Benchmarks
    reset via :func:`reset_fast_forward_count` and read this after a panel.
    """
    return _events_fast_forwarded


def credit_fast_forward_count(events: int) -> None:
    """Add ``events`` a worker process fast-forwarded to this one's count."""
    global _events_fast_forwarded
    _events_fast_forwarded += events


def reset_fast_forward_count() -> None:
    """Zero the process-wide :func:`events_fast_forwarded` counter."""
    global _events_fast_forwarded
    _events_fast_forwarded = 0


def resolve_engine(explicit: Optional[str] = None) -> str:
    """Resolve the simulation engine choice.

    Args:
        explicit: engine name passed programmatically; overrides the
            environment.  ``None`` falls back to ``$REPRO_ENGINE`` and
            then to the default (``"fast"``).

    Returns:
        ``"fast"`` or ``"reference"``.

    Raises:
        ConfigurationError: for any other name.
    """
    engine = explicit if explicit is not None \
        else os.environ.get(ENGINE_ENV_VAR, ENGINE_FAST)
    if engine not in _VALID_ENGINES:
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; "
            f"expected one of {_VALID_ENGINES}"
        )
    return engine


def install_engine(
    sim: Simulator,
    medium: Medium,
    master: "MasterLinkLayer",
    slave: "SlaveLinkLayer",
    engine: Optional[str] = None,
) -> Optional["QuietCycleEngine"]:
    """Attach a :class:`QuietCycleEngine` to ``sim`` if the resolved engine
    is ``"fast"``; a no-op (returning ``None``) for ``"reference"``."""
    if resolve_engine(engine) != ENGINE_FAST:
        return None
    quiet_engine = QuietCycleEngine(sim, medium, master, slave)
    sim.install_fast_forward(quiet_engine)
    return quiet_engine


class _StreamBuffer:
    """Block-buffered draws of one distribution, bit-identical to per-call
    draws.

    ``numpy.random.Generator.normal(a, b, n)`` and ``uniform(a, b, n)``
    consume the bit stream exactly as ``n`` scalar ``normal(a, b)`` /
    ``uniform(a, b)`` calls do (same values, same end state), so the engine
    can amortise RNG overhead by drawing blocks — and, once done, rewind to
    the saved state and replay exactly the consumed count so the reference
    path continues on an identical stream.  With ``rng`` ``None`` nothing
    is drawn and every value is ``a`` (a zero-sigma normal).
    """

    __slots__ = ("_rng", "_draw", "_a", "_b", "_values", "_pos",
                 "_consumed", "_saved_state")

    _BLOCK = 512

    def __init__(self, rng, method: str, a: float, b: float):
        self._rng = rng
        self._draw = None if rng is None else getattr(rng, method)
        self._a = a
        self._b = b
        self._values: list = []
        self._pos = 0
        self._consumed = 0
        self._saved_state = None

    def _refill(self) -> None:
        """Draw the next block, saving the pre-engagement state once."""
        if self._saved_state is None:
            self._saved_state = self._rng.bit_generator.state
        self._values = self._draw(self._a, self._b, self._BLOCK).tolist()
        self._pos = 0

    def next(self) -> float:
        """The next draw (``a``, consuming nothing, without an rng)."""
        if self._draw is None:
            return self._a
        if self._pos == len(self._values):
            self._refill()
        value = self._values[self._pos]
        self._pos += 1
        self._consumed += 1
        return value

    def unwind(self) -> None:
        """Leave the stream exactly where per-call draws would have."""
        if self._saved_state is None:
            return
        self._rng.bit_generator.state = self._saved_state
        if self._consumed:
            self._draw(self._a, self._b, self._consumed)
        self._saved_state = None
        self._values = []
        self._pos = 0
        self._consumed = 0


def _jitter_buffer(clock) -> _StreamBuffer:
    """Buffered ``clock.sample_jitter()`` draws (none at zero jitter)."""
    sigma = clock.jitter_us
    return _StreamBuffer(clock._rng if sigma > 0.0 else None,
                         "normal", 0.0, sigma)


class QuietCycleEngine:
    """Closed-form batch execution of quiet Master/Slave poll cycles and of
    the Slave's idle advertising cycles.

    Installed on a :class:`~repro.sim.simulator.Simulator` via
    :meth:`~repro.sim.simulator.Simulator.install_fast_forward`; the run
    loop consults :meth:`advance` once per iteration.  Three live events
    that form the connected trio select the quiet-cycle mode; one live
    event that is the Slave's next advertising cycle selects the
    advertising mode.  The engine is default-closed: every condition it
    cannot prove is a disengage, checked *before* any RNG or frame-id
    consumption for the cycle in question, and neither mode forwards the
    event that would use up the run's ``max_events`` budget.
    """

    __slots__ = ("sim", "medium", "master", "slave", "_pdu_cache",
                 "_wo_label", "_master_handler", "_adv_handler")

    def __init__(self, sim: Simulator, medium: Medium,
                 master: "MasterLinkLayer", slave: "SlaveLinkLayer"):
        self.sim = sim
        self.medium = medium
        self.master = master
        self.slave = slave
        # (llid, md, sn, nesn, crc_init) -> (pdu_bytes, crc)
        self._pdu_cache: dict = {}
        self._wo_label = f"{slave.name}-window-open"
        self._master_handler = master._connection_event
        self._adv_handler = slave._advertising_event

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def advance(self, until_us: Optional[float], budget: int) -> int:
        """Fast-forward as many quiet or advertising cycles as provable; 0
        if none.

        Called by the run loop before every event pop.  Must be cheap when
        the world is not in fast-forwardable shape: the first check is an
        O(1) live-event count (3 for the connected trio, 1 for the
        advertiser's next cycle).
        """
        queue = self.sim._queue
        live = queue._live
        if live == 3:
            if budget <= 6:
                return 0
            trio = self._classify_trio(queue)
            if trio is None or not self._eligible():
                return 0
            return self._run(trio, until_us, budget)
        if live == 1 and budget > _ADV_CYCLE_EVENTS:
            event = self._sole_advertising_event(queue)
            if event is None or not self._advertising_eligible():
                return 0
            return self._run_advertising(event, until_us, budget)
        return 0

    def _classify_trio(self, queue):
        """Match the live events against the steady-state trio."""
        window_close = self.slave._window_close
        if window_close is None or not window_close.pending:
            return None
        ev_open: Optional[Event] = None
        ev_master: Optional[Event] = None
        for entry in queue._heap:
            event = entry[2]
            if event._queue is None or event is window_close:
                continue
            if event.handler == self._master_handler:
                ev_master = event
            elif event.label == self._wo_label:
                ev_open = event
            else:
                return None
        if ev_open is None or ev_master is None:
            return None
        return ev_open, window_close, ev_master

    # ------------------------------------------------------------------
    # Eligibility (static per engagement; default-closed)
    # ------------------------------------------------------------------

    def _eligible(self) -> bool:
        master, slave, medium = self.master, self.slave, self.medium
        if master.state is not MasterState.CONNECTED or not master.is_connected:
            return False
        if slave.state is not SlaveState.CONNECTED or not slave.is_connected:
            return False
        mconn, sconn = master.conn, slave.conn
        if not (mconn.established and sconn.established):
            return False
        if mconn.terminated or sconn.terminated:
            return False
        if master._awaiting_response:
            return False
        if master._tx_queue or slave._tx_queue:
            return False
        if slave._terminate_after_response is not None:
            return False
        if master._pending_encryption is not None \
                or slave._pending_encryption is not None:
            return False
        if master.encryption is not None or slave.encryption is not None:
            return False
        for conn in (mconn, sconn):
            if conn.pending_update is not None \
                    or conn.pending_channel_map is not None \
                    or conn.pending_phy is not None:
                return False
            if not self._retransmit_state_ok(conn):
                return False
            if conn.last_valid_rx_local_us is None:
                return False
        if slave._anchor_local is None or slave._events_since_anchor != 1:
            return False
        if master._anchor_local is None:
            return False
        mp, sp = mconn.params, sconn.params
        if (mp.access_address != sp.access_address
                or mp.crc_init != sp.crc_init
                or mp.interval != sp.interval
                or mp.use_csa2 != sp.use_csa2
                or mp.master_sca_ppm != sp.master_sca_ppm):
            return False
        if mconn.event_count != sconn.event_count:
            return False
        mr, sr = master.radio, slave.radio
        if master.phy is not slave.phy:
            return False
        if mr.rx_phy is not master.phy or sr.rx_phy is not slave.phy:
            return False
        if mp.interval_us < 2_000.0 or mp.timeout_us < 5_000.0:
            return False
        # The next window must open strictly after the previous response
        # frame ends; bound the widening so it provably cannot reach back.
        drift_k = (mp.master_sca_ppm + slave.clock.sca_ppm) / PPM
        widening = slave.widening_scale * (
            drift_k * mp.interval_us + WINDOW_WIDENING_CONSTANT_US)
        if widening >= 0.25 * mp.interval_us:
            return False
        if not self._channels_lockstep(mconn, sconn):
            return False
        # Medium must be silent and stay silent: no frame in flight, no
        # receiver locked, no wideband tap observing transmissions.
        if medium._active or medium._locks or medium._taps:
            return False
        now = self.sim.now
        for rx in medium._transceivers.values():
            if rx is mr or rx is sr:
                continue
            if rx._rx_channel is not None or rx.is_transmitting(at_us=now):
                return False
        if mr._rx_channel is not None or sr._rx_channel is not None:
            return False
        if mr.on_tx_complete is not None or sr.on_tx_complete is not None:
            return False
        # Both links need enough margin that shadowing can never fade a
        # frame below the sensitivity floor (hard-checked per draw anyway).
        path_loss = medium.path_loss
        topology = medium.topology
        sigma = path_loss.shadowing_sigma_db
        margin = _LINK_MARGIN_SIGMAS * sigma
        mean_m_to_s = path_loss.mean_loss_db(
            topology.distance(mr.name, sr.name),
            topology.walls_between(mr.name, sr.name))
        mean_s_to_m = path_loss.mean_loss_db(
            topology.distance(sr.name, mr.name),
            topology.walls_between(sr.name, mr.name))
        floor_s = max(medium.sensitivity_dbm, sr.sensitivity_dbm)
        floor_m = max(medium.sensitivity_dbm, mr.sensitivity_dbm)
        if mr.tx_power_dbm - mean_m_to_s - floor_s <= margin:
            return False
        if sr.tx_power_dbm - mean_s_to_m - floor_m <= margin:
            return False
        return True

    @staticmethod
    def _retransmit_state_ok(conn) -> bool:
        """The last sent PDU must be replayable as an empty-PDU cycle."""
        last = conn._last_sent
        if last is None:
            return True
        header = last.header
        return header.length == 0 and int(header.llid) != _LLID_CONTROL

    @staticmethod
    def _channels_lockstep(mconn, sconn) -> bool:
        """Both selectors must produce the shared hop sequence in lockstep.

        The Slave runs one selector step ahead (it advances when scheduling
        the window, the Master when the event fires), so the Master's
        unmapped index plus one hop must land on the Slave's.
        """
        m_sel, s_sel = mconn.selector, sconn.selector
        if sconn.current_channel is None:
            return False
        if mconn.params.use_csa2:
            if not (sconn._selector_is_csa2 and mconn._selector_is_csa2):
                return False
            if m_sel._ch_id != s_sel._ch_id:
                return False
            if m_sel._channel_map != s_sel._channel_map:
                return False
            return s_sel.channel_for_event(sconn.event_count) \
                == sconn.current_channel
        if sconn._selector_is_csa2 or mconn._selector_is_csa2:
            return False
        if m_sel.hop_increment != s_sel.hop_increment:
            return False
        if m_sel._channel_map != s_sel._channel_map:
            return False
        hop = s_sel.hop_increment
        if (m_sel._last_unmapped + hop) % NUM_DATA_CHANNELS \
                != s_sel._last_unmapped:
            return False
        return s_sel._map(s_sel._last_unmapped) == sconn.current_channel

    # ------------------------------------------------------------------
    # The batched cycle loop
    # ------------------------------------------------------------------

    def _pdu_bytes(self, llid: int, md: int, sn: int, nesn: int,
                   crc_init: int):
        """Header bytes + CRC of an empty data PDU, memoised."""
        key = (llid, md, sn, nesn, crc_init)
        hit = self._pdu_cache.get(key)
        if hit is None:
            byte0 = llid | (nesn << 2) | (sn << 3) | (md << 4)
            pdu = bytes((byte0, 0))
            hit = (pdu, compute_crc(pdu, crc_init))
            self._pdu_cache[key] = hit
        return hit

    def _run(self, trio, until_us: Optional[float], budget: int) -> int:
        sim, medium, master, slave = self.sim, self.medium, self.master, self.slave
        ev_open, ev_close, ev_master = trio
        mconn, sconn = master.conn, slave.conn
        mp = mconn.params
        phy = master.phy
        frame_dur = air_time_us(2, phy)
        aa, crc_init = mp.access_address, mp.crc_init
        interval_us = mp.interval_us
        timeout_us = mp.timeout_us
        rate_m = master.clock.rate
        rate_s = slave.clock.rate
        drift_k = (mp.master_sca_ppm + slave.clock.sca_ppm) / PPM
        widen_scale = slave.widening_scale
        # Latest event of a cycle is the Slave response's end, which the
        # deadline invariant bounds below end_m + T_IFS + grace.
        horizon_pad = frame_dur + T_IFS_US + _RESPONSE_GRACE_US

        use_csa2 = mp.use_csa2
        m_sel, s_sel = mconn.selector, sconn.selector
        hop = 0 if use_csa2 else s_sel.hop_increment
        unmapped = 0 if use_csa2 else s_sel._last_unmapped
        channel = sconn.current_channel

        mr, sr = master.radio, slave.radio
        path_loss = medium.path_loss
        topology = medium.topology
        sigma = path_loss.shadowing_sigma_db
        draw_shadow = sigma > 0.0

        # Only the counterpart links matter for a quiet cycle (eligibility
        # proved nobody else is listening).  Shadowing draws come from the
        # medium's per-link substreams indexed by the sender's transmission
        # counter, so skipping every off-link draw is exact — a draw's
        # value depends only on (link, index), never on what other links
        # consumed.  Geometry is frozen while engaged (nothing else runs),
        # so the mean losses are engagement-wide.
        mr_tid, sr_tid = mr.medium_id, sr.medium_id
        mean_m_to_s = path_loss.mean_loss_db(
            topology.distance(mr.name, sr.name),
            topology.walls_between(mr.name, sr.name))
        mean_s_to_m = path_loss.mean_loss_db(
            topology.distance(sr.name, mr.name),
            topology.walls_between(sr.name, mr.name))
        ms_shadow = medium._link_shadow(mr, sr_tid) if draw_shadow else None
        sm_shadow = medium._link_shadow(sr, mr_tid) if draw_shadow else None
        m_seq = medium._tx_seq.get(mr_tid, 0)
        s_seq = medium._tx_seq.get(sr_tid, 0)
        floor_s = max(medium.sensitivity_dbm, sr.sensitivity_dbm)
        floor_m = max(medium.sensitivity_dbm, mr.sensitivity_dbm)
        m_tx_power = mr.tx_power_dbm
        s_tx_power = sr.tx_power_dbm

        s_jitter = _jitter_buffer(slave.clock)
        m_jitter = _jitter_buffer(master.clock)

        event_count = sconn.event_count
        t_open, t_close, t_master = \
            ev_open.time_us, ev_close.time_us, ev_master.time_us
        m_ts, m_ne = mconn.transmit_seq_num, mconn.next_expected_seq_num
        s_ts, s_ne = sconn.transmit_seq_num, sconn.next_expected_seq_num
        m_pal = mconn._peer_acked_last
        s_pal = sconn._peer_acked_last
        m_desc = None if mconn._last_sent is None else (
            int(mconn._last_sent.header.llid), mconn._last_sent.header.md)
        s_desc = None if sconn._last_sent is None else (
            int(sconn._last_sent.header.llid), sconn._last_sent.header.md)
        m_lv = mconn.last_valid_rx_local_us
        s_lv = sconn.last_valid_rx_local_us
        m_anchor = master._anchor_local

        trace = sim.trace
        metrics = medium._metrics
        next_frame_id = _signal._frame_ids.__next__
        retained: deque = deque()
        fired = 0
        cycles = 0
        # Final-cycle snapshots for write-back.
        last_t_master = last_end_m = last_end_r = 0.0
        last_anchor_s = 0.0
        last_channel = 0
        last_unmapped = 0
        last_m_bits = last_s_bits = (0, 0)

        while True:
            # -- pre-draw bail-outs: disengage with zero side effects ----
            if not (t_open <= t_master < t_close):
                break
            end_m = t_master + frame_dur
            if end_m - TIME_EPS_US <= t_close <= end_m:
                break  # window edge within float tolerance of the frame end
            cycle_events = 7 if t_close < end_m else 6
            if fired + cycle_events >= budget:
                break  # the reference loop must fire the budget's last event
            if until_us is not None and t_master + horizon_pad > until_us:
                break
            if t_master * rate_m - m_lv > timeout_us:
                break  # Master supervision would expire: reference path

            # -- pure ARQ/PDU arithmetic (still reversible) --------------
            if not m_pal and m_desc is not None:
                m_llid, m_md = m_desc
            else:
                m_llid, m_md = _LLID_EMPTY, 0
            m_sn, m_nesn = m_ts, m_ne
            m_desc = (m_llid, m_md)
            m_bytes, m_crc = self._pdu_bytes(m_llid, m_md, m_sn, m_nesn,
                                             crc_init)
            # Slave receives the Master frame (always CRC-valid here).
            if m_sn == s_ne:
                s_ne ^= 1
            if m_nesn != s_ts:
                s_ts ^= 1
                s_pal = True
            else:
                s_pal = False
            if not s_pal and s_desc is not None:
                s_llid, s_md = s_desc
            else:
                s_llid, s_md = _LLID_EMPTY, 0
            s_sn, s_nesn = s_ts, s_ne
            s_desc = (s_llid, s_md)
            s_pal = False  # note_sent
            s_bytes, s_crc = self._pdu_bytes(s_llid, s_md, s_sn, s_nesn,
                                             crc_init)
            # Master receives the Slave response.
            if s_sn == m_ne:
                m_ne_next = m_ne ^ 1
            else:
                m_ne_next = m_ne
            if s_nesn != m_ts:
                m_ts_next = m_ts ^ 1
                m_pal_next = True
            else:
                m_ts_next = m_ts
                m_pal_next = False

            # -- draws: the cycle is now committed -----------------------
            frame_id_m = next_frame_id()
            seq_m = m_seq
            m_seq += 1
            loss = mean_m_to_s + ms_shadow.value(seq_m) if draw_shadow \
                else mean_m_to_s
            p_slave = m_tx_power - loss
            if p_slave < floor_s:
                raise SimulationError(
                    "fast-forward: master frame faded below the slave's "
                    "sensitivity floor despite the engagement margin")
            response_jitter = s_jitter.next()
            t_response = end_m + T_IFS_US \
                + max(response_jitter, _RESPONSE_JITTER_FLOOR_US)
            frame_id_s = next_frame_id()
            seq_s = s_seq
            s_seq += 1
            loss = mean_s_to_m + sm_shadow.value(seq_s) if draw_shadow \
                else mean_s_to_m
            p_master = s_tx_power - loss
            if p_master < floor_m:
                raise SimulationError(
                    "fast-forward: slave frame faded below the master's "
                    "sensitivity floor despite the engagement margin")
            end_r = t_response + frame_dur
            deadline = end_m + T_IFS_US + _RESPONSE_GRACE_US
            if end_r >= deadline:
                raise SimulationError(
                    "fast-forward: slave response would miss the master's "
                    "response deadline")
            anchor_s = t_master * rate_s
            s_lv = end_m * rate_s
            predicted_s = anchor_s + 1 * interval_us
            widening = widen_scale * (
                drift_k * (predicted_s - anchor_s)
                + WINDOW_WIDENING_CONSTANT_US)
            next_open = max(
                (predicted_s - widening) / rate_s + s_jitter.next(),
                t_response)
            next_close = max(
                (predicted_s + widening) / rate_s + s_jitter.next(),
                t_response)
            m_lv = end_r * rate_m
            m_anchor = m_anchor + interval_us
            next_master = max(m_anchor / rate_m + m_jitter.next(), end_r)
            if next_open < end_r or next_close < end_r or next_master < end_r:
                raise SimulationError(
                    "fast-forward: next cycle's events would fire before "
                    "the current response completes")

            # -- observable side effects, exactly as the reference -------
            if trace.enabled:
                s_name, m_name = slave.name, master.name
                trace.record(t_open, s_name, "window-open",
                             channel=channel, event_count=event_count)
                trace.record(t_master, s_name, "rx-lock",
                             frame_id=frame_id_m, channel=channel,
                             rssi_dbm=p_slave)
                trace.record(t_master, m_name, "tx",
                             channel=channel, aa=aa, pdu_len=2,
                             frame_id=frame_id_m)
                trace.record(t_master, m_name, "master-tx",
                             event_count=event_count, sn=m_sn, nesn=m_nesn,
                             channel=channel)
                trace.record(end_m, s_name, "rx",
                             frame_id=frame_id_m, corrupted=False,
                             rssi_dbm=p_slave)
                trace.record(end_m, s_name, "anchor",
                             event_count=event_count, anchor_us=t_master,
                             frame_id=frame_id_m)
                trace.record(t_response, m_name, "rx-lock",
                             frame_id=frame_id_s, channel=channel,
                             rssi_dbm=p_master)
                trace.record(t_response, s_name, "tx",
                             channel=channel, aa=aa, pdu_len=2,
                             frame_id=frame_id_s)
                trace.record(t_response, s_name, "slave-response",
                             sn=s_sn, nesn=s_nesn, event_count=event_count)
                trace.record(end_r, m_name, "rx",
                             frame_id=frame_id_s, corrupted=False,
                             rssi_dbm=p_master)
                trace.record(end_r, m_name, "slave-heard",
                             event_count=event_count, sn=s_sn, nesn=s_nesn)
            if metrics.enabled:
                medium._m_tx.inc()
                airtime = medium._m_airtime.get(channel)
                if airtime is None:
                    airtime = medium._m_airtime[channel] = metrics.counter(
                        f"medium.airtime_us.ch{channel:02d}")
                airtime.inc(frame_dur)
                medium._m_tx.inc()
                airtime.inc(frame_dur)
                medium._m_rx.inc()
                medium._m_rx.inc()

            retained.append((frame_id_m, t_master, end_m, channel,
                             m_bytes, m_crc, p_slave, mr, sr_tid, seq_m))
            retained.append((frame_id_s, t_response, end_r, channel,
                             s_bytes, s_crc, p_master, sr, mr_tid, seq_s))
            prune_before = end_r - _RECENT_HORIZON_US
            while retained and retained[0][2] < prune_before:
                retained.popleft()

            # -- roll the loop state to the next cycle -------------------
            fired += cycle_events
            cycles += 1
            m_ne, m_ts, m_pal = m_ne_next, m_ts_next, m_pal_next
            last_t_master, last_end_m, last_end_r = t_master, end_m, end_r
            last_anchor_s = anchor_s
            last_channel = channel
            last_unmapped = unmapped
            last_m_bits = (m_sn, m_nesn)
            last_s_bits = (s_sn, s_nesn)
            event_count = (event_count + 1) & 0xFFFF
            if use_csa2:
                channel = s_sel.channel_for_event(event_count)
            else:
                unmapped = (unmapped + hop) % NUM_DATA_CHANNELS
                channel = s_sel._map(unmapped)
            t_open, t_close, t_master = next_open, next_close, next_master

        if cycles == 0:
            return 0

        # ------------------------------------------------------------------
        # Materialise: write the end-of-stretch state back so the reference
        # engine resumes as if it had executed every cycle itself.  The
        # per-link shadowing substreams need no unwind: their draws are
        # indexed by transmission counter, so the reference path picks up
        # at the written-back counters with identical values.
        # ------------------------------------------------------------------
        s_jitter.unwind()
        m_jitter.unwind()

        sim._now = last_end_r
        ev_open.cancel()
        ev_close.cancel()
        ev_master.cancel()
        # Recreate the trio in the reference's creation order (window-open,
        # window-close, master event) so time ties break identically.
        sim.schedule_at(t_open,
                        lambda ch=channel: slave._window_open(ch),
                        self._wo_label)
        new_close = sim.schedule_at(t_close, slave._window_timeout,
                                    f"{slave.name}-window-close")
        sim.schedule_at(t_master, self._master_handler,
                        f"{master.name}-event")
        slave._window_close = new_close
        slave._pending_events.append(new_close)

        mconn.event_count = event_count
        sconn.event_count = event_count
        mconn.transmit_seq_num, mconn.next_expected_seq_num = m_ts, m_ne
        sconn.transmit_seq_num, sconn.next_expected_seq_num = s_ts, s_ne
        mconn._peer_acked_last = m_pal
        sconn._peer_acked_last = s_pal
        mconn._last_sent = DataPdu.make(
            LLID(m_desc[0]), b"", sn=last_m_bits[0], nesn=last_m_bits[1],
            md=m_desc[1])
        sconn._last_sent = DataPdu.make(
            LLID(s_desc[0]), b"", sn=last_s_bits[0], nesn=last_s_bits[1],
            md=s_desc[1])
        mconn.last_valid_rx_local_us = m_lv
        sconn.last_valid_rx_local_us = s_lv
        mconn.current_channel = last_channel
        sconn.current_channel = channel
        if not use_csa2:
            m_sel._last_unmapped = last_unmapped
            s_sel._last_unmapped = unmapped
        master._anchor_local = m_anchor
        master._awaiting_response = False
        master._response_deadline = None
        slave._anchor_local = last_anchor_s
        slave._events_since_anchor = 1

        mr._tx_until_us = last_end_m
        sr._tx_until_us = last_end_r
        mr._rx_channel = mr._rx_since_us = None
        sr._rx_channel = sr._rx_since_us = None

        medium._tx_seq[mr_tid] = m_seq
        medium._tx_seq[sr_tid] = s_seq
        for frame_id, start, _end, frame_ch, pdu_bytes, crc, power, sender, \
                rx_tid, seq in retained:
            frame = RadioFrame(
                access_address=aa, pdu=pdu_bytes, crc=crc, channel=frame_ch,
                start_us=start, tx_power_dbm=sender.tx_power_dbm, phy=phy,
                sender_id=sender.medium_id, frame_id=frame_id)
            transmission = _ActiveTransmission(frame, sender, seq)
            transmission.rx_power_dbm[rx_tid] = power
            medium._append_recent(transmission)

        global _events_fast_forwarded
        _events_fast_forwarded += fired
        return fired

    # ------------------------------------------------------------------
    # Idle advertising cycles
    # ------------------------------------------------------------------

    def _sole_advertising_event(self, queue) -> Optional[Event]:
        """The only live event, if it is the advertiser's next cycle."""
        heap = queue._heap
        while heap[0][2].cancelled:
            heapq.heappop(heap)  # discarded by the next pop_due anyway
        event = heap[0][2]
        return event if event.handler == self._adv_handler else None

    def _advertising_eligible(self) -> bool:
        """Nothing in the world can hear or perturb an advertising cycle."""
        slave, medium = self.slave, self.medium
        if slave.state is not SlaveState.ADVERTISING or slave._adv_channels:
            return False
        if medium._active or medium._locks or medium._taps:
            return False
        for rx in medium._transceivers.values():
            if rx._rx_channel is not None:
                return False
        return slave.radio.on_tx_complete is None

    def _run_advertising(self, event: Event, until_us: Optional[float],
                         budget: int) -> int:
        """Replay whole ADV_IND cycles on channels 37, 38, 39.

        Per channel the reference transmits at ``t``, finishes at
        ``t + dur``, listens 1 µs later and times out ``_ADV_RX_WINDOW_US``
        after that, where the next channel starts; after channel 39 it
        draws the 0-10 ms advDelay and schedules the next cycle.
        """
        sim, medium, slave = self.sim, self.medium, self.slave
        radio = slave.radio
        t_cycle = max(sim._now, event.time_us)
        if radio.is_transmitting(t_cycle):
            return 0  # the reference defers the first channel instead
        pdu = AdvInd(slave.address, slave.adv_data).to_bytes()
        pdu_len = len(pdu)
        dur = air_time_us(pdu_len, PhyMode.LE_1M)
        interval_ms = slave.adv_interval_ms
        name = slave.name
        trace = sim.trace
        metrics = medium._metrics
        tid = radio.medium_id
        seq = medium._tx_seq.get(tid, 0)
        delays = _StreamBuffer(slave._adv_rng, "uniform", 0.0, 10.0)
        next_frame_id = _signal._frame_ids.__next__
        aa = ADVERTISING_ACCESS_ADDRESS
        rx_window = _ADV_RX_WINDOW_US
        fired = 0
        last_done = last_end = 0.0
        last_frames: tuple = ()

        while True:
            # -- pre-draw bail-outs: disengage with zero side effects ----
            if fired + _ADV_CYCLE_EVENTS >= budget:
                break  # the reference loop must fire the budget's last event
            t37 = t_cycle
            end37 = t37 + dur
            t38 = end37 + 1.0 + rx_window
            end38 = t38 + dur
            t39 = end38 + 1.0 + rx_window
            end39 = t39 + dur
            t_done = end39 + 1.0 + rx_window
            if until_us is not None and t_done > until_us:
                break

            # -- the cycle is now committed ------------------------------
            fid37 = next_frame_id()
            fid38 = next_frame_id()
            fid39 = next_frame_id()
            if trace.enabled:
                trace.record(t37, name, "tx", channel=37, aa=aa,
                             pdu_len=pdu_len, frame_id=fid37)
                trace.record(t38, name, "tx", channel=38, aa=aa,
                             pdu_len=pdu_len, frame_id=fid38)
                trace.record(t39, name, "tx", channel=39, aa=aa,
                             pdu_len=pdu_len, frame_id=fid39)
            if metrics.enabled:
                for channel in _ADV_CHANNELS:
                    medium._m_tx.inc()
                    airtime = medium._m_airtime.get(channel)
                    if airtime is None:
                        airtime = medium._m_airtime[channel] = \
                            metrics.counter(
                                f"medium.airtime_us.ch{channel:02d}")
                    airtime.inc(dur)
            last_frames = ((fid37, 37, t37, seq), (fid38, 38, t38, seq + 1),
                           (fid39, 39, t39, seq + 2))
            last_done, last_end = t_done, end39
            seq += 3
            fired += _ADV_CYCLE_EVENTS
            delay_ms = interval_ms + delays.next()
            t_cycle = max(t_done + delay_ms * 1000.0, t_done)

        if fired == 0:
            return 0

        # Write back the state the reference leaves after channel 39's
        # listen timeout, then hand it the re-created next cycle.
        delays.unwind()
        sim._now = last_done
        event.cancel()
        medium._tx_seq[tid] = seq
        crc = compute_advertising_crc(pdu)
        for frame_id, channel, start, frame_seq in last_frames:
            frame = RadioFrame(
                access_address=aa, pdu=pdu, crc=crc,
                channel=channel, start_us=start,
                tx_power_dbm=radio.tx_power_dbm, phy=PhyMode.LE_1M,
                sender_id=tid, frame_id=frame_id)
            medium._append_recent(_ActiveTransmission(frame, radio, frame_seq))
        radio._tx_until_us = last_end
        slave._adv_channels = []
        slave._schedule(t_cycle, self._adv_handler, "adv-cycle")

        global _events_fast_forwarded
        _events_fast_forwarded += fired
        return fired
