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
computes the cycles directly — CSA channel, SN/NESN ARQ bits, SleepClock
drift/jitter, path-loss shadowing — emitting the *same* trace records,
metric increments and RNG stream consumption the reference path would
produce, then writes the end state back and lets the reference engine
resume.  It works in numpy blocks of up to ``_BLOCK_CYCLES`` cycles: one
block draws its jitter as arrays, accumulates the Master anchors
sequentially, derives every other time elementwise in the reference's
float-operation order, and commits exactly the cycles before the first
one it cannot replicate bit-for-bit (the Master outside the Slave's
window, a window edge within float tolerance of a frame boundary, the
event budget, the run horizon, supervision).  Uncommitted cycles have no
side effect: their buffered jitter draws are replayed away on unwind, and
shadowing draws and frame ids are claimed only for committed cycles.
State the audit rules out (pending procedures, queued data, an attacker
radio in play) keeps the engine disengaged, so the reference path takes
over mid-trial with no divergence.

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
from collections import Counter, deque
from itertools import islice
from typing import TYPE_CHECKING, Optional

import numpy as np

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

#: Connection events one block of the quiet-cycle mode computes at most;
#: bounds the engine's arrays whatever the stretch length.
_BLOCK_CYCLES = 512

#: A lower bound on a connection interval's true length as a fraction of
#: its nominal length (clock drift plus jitter), used only to size blocks.
_MIN_PERIOD_FRACTION = 0.99

_NO_DRAWS = np.empty(0)

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
    path continues on an identical stream.  :meth:`peek` hands out the next
    draws as an array without consuming them; :meth:`consume` commits a
    prefix of them.  With ``rng`` ``None`` nothing is drawn and every value
    is ``a`` (a zero-sigma normal).
    """

    __slots__ = ("_rng", "_draw", "_a", "_b", "_values", "_pos",
                 "_consumed", "_saved_state")

    _BLOCK = 512

    def __init__(self, rng, method: str, a: float, b: float):
        self._rng = rng
        self._draw = None if rng is None else getattr(rng, method)
        self._a = a
        self._b = b
        self._values = _NO_DRAWS
        self._pos = 0
        self._consumed = 0
        self._saved_state = None

    def _refill(self, need: int = 1) -> None:
        """Draw another block so at least ``need`` unconsumed values are
        buffered, saving the pre-engagement state once."""
        if self._saved_state is None:
            self._saved_state = self._rng.bit_generator.state
        rest = self._values[self._pos:]
        block = self._draw(self._a, self._b,
                           max(self._BLOCK, need - len(rest)))
        self._values = np.concatenate((rest, block)) if len(rest) else block
        self._pos = 0

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` draws, not yet consumed."""
        if self._draw is None:
            return np.full(n, self._a)
        if self._pos + n > len(self._values):
            self._refill(n)
        return self._values[self._pos:self._pos + n]

    def consume(self, n: int) -> None:
        """Commit the first ``n`` values the last :meth:`peek` returned."""
        self._pos += n
        self._consumed += n

    def next(self) -> float:
        """The next draw, consumed."""
        value = float(self.peek(1)[0])
        self.consume(1)
        return value

    def unwind(self) -> None:
        """Leave the stream exactly where per-call draws would have."""
        if self._saved_state is None:
            return
        self._rng.bit_generator.state = self._saved_state
        if self._consumed:
            self._draw(self._a, self._b, self._consumed)
        self._saved_state = None
        self._values = _NO_DRAWS
        self._pos = 0
        self._consumed = 0


def _jitter_buffer(clock) -> _StreamBuffer:
    """Buffered ``clock.sample_jitter()`` draws (none at zero jitter)."""
    sigma = clock.jitter_us
    return _StreamBuffer(clock._rng if sigma > 0.0 else None,
                         "normal", 0.0, sigma)


def _first_true(mask: np.ndarray) -> int:
    """Index of the first true entry of ``mask``; its length if none."""
    index = int(mask.argmax())
    return index if mask[index] else len(mask)


def _add_repeated(counter, amount: float, times: int) -> None:
    """``counter.inc(amount)`` ``times`` times, in one addition where that
    is provably the same float: integer-valued operands and sums below
    2**53 never round."""
    total = counter.value + amount * times
    if float(amount).is_integer() and float(counter.value).is_integer() \
            and abs(total) < 2.0 ** 53:
        counter.value = total
        return
    for _ in range(times):
        counter.inc(amount)


class _ArqSchedule:
    """The SN/NESN bits of a quiet exchange, cycle by cycle.

    In a quiet stretch every frame arrives CRC-valid, so the acknowledgement
    state — both sides' ``transmitSeqNum``/``nextExpectedSeqNum``, whether
    the peer acked the last PDU, and the LLID/MD a retransmission would
    replay — follows a recurrence independent of timing.  Its state space
    is tiny, so it is iterated once per engagement until a state repeats;
    every later cycle indexes the periodic part.

    A state is ``(m_ts, m_ne, m_pal, m_desc, s_ts, s_ne, s_pal, s_desc)``
    (``*_desc`` is the last sent PDU's ``(llid, md)`` or ``None``); a
    cycle's bits are ``((llid, md, sn, nesn) of the Master frame, the same
    of the Slave response)``.
    """

    __slots__ = ("_states", "_bits", "_start")

    def __init__(self, state: tuple):
        states, bits, seen = [state], [], {state: 0}
        while True:
            m_ts, m_ne, m_pal, m_desc, s_ts, s_ne, _, s_desc = state
            # The Master replays an unacknowledged PDU's LLID/MD.
            if m_pal or m_desc is None:
                m_desc = (_LLID_EMPTY, 0)
            m_sn, m_nesn = m_ts, m_ne
            # Slave receives the Master frame (always CRC-valid here).
            if m_sn == s_ne:
                s_ne ^= 1
            s_pal = m_nesn != s_ts
            if s_pal:
                s_ts ^= 1
            if s_pal or s_desc is None:
                s_desc = (_LLID_EMPTY, 0)
            s_sn, s_nesn = s_ts, s_ne
            # Master receives the Slave response.
            if s_sn == m_ne:
                m_ne ^= 1
            m_pal = s_nesn != m_ts
            if m_pal:
                m_ts ^= 1
            bits.append((m_desc + (m_sn, m_nesn), s_desc + (s_sn, s_nesn)))
            # The Slave's note_sent clears its peer-acked flag.
            state = (m_ts, m_ne, m_pal, m_desc, s_ts, s_ne, False, s_desc)
            if state in seen:
                break
            seen[state] = len(states)
            states.append(state)
        self._states = states
        self._bits = bits
        self._start = seen[state]

    def _index(self, cycle: int) -> int:
        if cycle < len(self._bits):
            return cycle
        start = self._start
        return start + (cycle - start) % (len(self._bits) - start)

    def state(self, cycle: int) -> tuple:
        """The state before ``cycle`` (0 = the engagement's first)."""
        return self._states[self._index(cycle)]

    def bits(self, cycle: int) -> tuple:
        """The PDU bits both frames of ``cycle`` carry."""
        return self._bits[self._index(cycle)]


def _sent_descriptor(conn) -> Optional[tuple]:
    """``(llid, md)`` of the connection's last sent PDU, if any."""
    last = conn._last_sent
    return None if last is None else (int(last.header.llid), last.header.md)


class _HopSequence:
    """An engagement's connection events by cycle (0 = its first): event
    counters, CSA#1 unmapped channels and data channels, from the Slave's
    side of the connection (one selector step ahead of the Master's)."""

    __slots__ = ("_first_event", "_csa2", "_unmapped0", "_hop", "_table")

    def __init__(self, conn):
        selector = conn.selector
        self._first_event = conn.event_count
        self._csa2 = selector if conn.params.use_csa2 else None
        if self._csa2 is None:
            self._unmapped0 = selector._last_unmapped
            self._hop = selector.hop_increment
            self._table = np.array([selector._map(unmapped) for unmapped
                                    in range(NUM_DATA_CHANNELS)])

    def event_count(self, cycle: int) -> int:
        return (self._first_event + cycle) & 0xFFFF

    def unmapped(self, cycle: int) -> int:
        """CSA#1's unmapped channel of ``cycle``."""
        return (self._unmapped0 + cycle * self._hop) % NUM_DATA_CHANNELS

    def channel(self, cycle: int) -> int:
        if self._csa2 is not None:
            return self._csa2.channel_for_event(self.event_count(cycle))
        return int(self._table[self.unmapped(cycle)])

    def channels(self, cycle: int, n: int) -> list:
        """The channels of cycles ``cycle .. cycle + n - 1``."""
        if self._csa2 is not None:
            return [self.channel(c) for c in range(cycle, cycle + n)]
        unmapped = (self._unmapped0 + np.arange(cycle, cycle + n) * self._hop
                    ) % NUM_DATA_CHANNELS
        return self._table[unmapped].tolist()


#: What the per-cycle reference would raise, in its check order, if an
#: invariant the engagement margins guarantee failed anyway: a master frame
#: faded out, a slave frame faded out, a missed response deadline, or the
#: next cycle's events firing before the response completes.
_INVARIANT_MESSAGES = (
    "fast-forward: master frame faded below the slave's sensitivity floor "
    "despite the engagement margin",
    "fast-forward: slave frame faded below the master's sensitivity floor "
    "despite the engagement margin",
    "fast-forward: slave response would miss the master's response deadline",
    "fast-forward: next cycle's events would fire before the current "
    "response completes",
)


def _check_invariants(faults: tuple) -> None:
    """Raise the error of the first failing cycle, as the reference would.

    ``faults`` holds one boolean mask per :data:`_INVARIANT_MESSAGES` entry.
    """
    first = min(_first_true(mask) for mask in faults)
    if first == len(faults[0]):
        return
    for mask, message in zip(faults, _INVARIANT_MESSAGES):
        if mask[first]:
            raise SimulationError(message)


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
    # The block computation
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
        """Forward quiet connection events in blocks of at most
        ``_BLOCK_CYCLES`` cycles.

        A block computes every cycle's timing as numpy arrays: the Master
        anchors by a sequential ``np.add.accumulate`` (bit-identical to
        repeated addition), everything else by elementwise IEEE arithmetic
        in the reference's operation order, assuming the Master's next
        event is not clamped to the end of the Slave's response.  It then
        finds the first cycle a bail-out stops (window order, a window edge
        within float tolerance of the frame end, the event budget, the run
        horizon, supervision) and the first cycle whose clamp is active,
        and commits exactly the cycles before the stop — or through the
        clamped cycle, after which the next block starts from the clamped
        time.  Only committed cycles claim shadowing draws and frame ids
        and produce trace records, metrics and the recent-frame tail; the
        jitter draws of uncommitted cycles stay buffered and are dropped
        by the unwind.
        """
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
        min_period = interval_us * _MIN_PERIOD_FRACTION
        hops = _HopSequence(sconn)

        mr, sr = master.radio, slave.radio
        path_loss = medium.path_loss
        topology = medium.topology
        draw_shadow = path_loss.shadowing_sigma_db > 0.0

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
        arq = _ArqSchedule((
            mconn.transmit_seq_num, mconn.next_expected_seq_num,
            mconn._peer_acked_last, _sent_descriptor(mconn),
            sconn.transmit_seq_num, sconn.next_expected_seq_num,
            sconn._peer_acked_last, _sent_descriptor(sconn)))

        t_open, t_close, t_master = \
            ev_open.time_us, ev_close.time_us, ev_master.time_us
        m_anchor = master._anchor_local
        m_lv = mconn.last_valid_rx_local_us
        trace = sim.trace
        metrics = medium._metrics
        retained: deque = deque()
        fired = 0
        cycles = 0
        # Last committed cycle, for write-back.
        last_t_master = last_end_m = last_end_r = 0.0

        while True:
            # Size the block to what the budget and the horizon allow (a
            # short estimate only costs another block).
            n = min(_BLOCK_CYCLES, (budget - fired) // 6 + 1)
            if until_us is not None \
                    and until_us - t_master < _BLOCK_CYCLES * min_period:
                n = min(n, int((until_us - t_master) / min_period) + 2)
            n = max(n, 1)

            # -- timing of n cycles, before any side effect --------------
            # Slave jitters per cycle: response, next window open, close.
            jitter_s = s_jitter.peek(3 * n).reshape(n, 3)
            jitter_m = m_jitter.peek(n)
            steps = np.full(n + 1, interval_us)
            steps[0] = m_anchor
            anchors = np.add.accumulate(steps)
            # The Master's next event, before its clamp to the response end.
            free_master = anchors[1:] / rate_m + jitter_m
            t_m = np.concatenate(((t_master,), free_master[:-1]))
            end_m = t_m + frame_dur
            after_ifs = end_m + T_IFS_US
            t_resp = after_ifs + np.maximum(jitter_s[:, 0],
                                            _RESPONSE_JITTER_FLOOR_US)
            end_r = t_resp + frame_dur
            anchor_s = t_m * rate_s
            predicted_s = anchor_s + interval_us
            widening = widen_scale * (
                drift_k * (predicted_s - anchor_s)
                + WINDOW_WIDENING_CONSTANT_US)
            next_open = np.maximum(
                (predicted_s - widening) / rate_s + jitter_s[:, 1], t_resp)
            next_close = np.maximum(
                (predicted_s + widening) / rate_s + jitter_s[:, 2], t_resp)
            t_o = np.concatenate(((t_open,), next_open[:-1]))
            t_c = np.concatenate(((t_close,), next_close[:-1]))
            lv_m = np.concatenate(((m_lv,), end_r[:-1] * rate_m))
            used = fired + np.cumsum(np.where(t_c < end_m, 7, 6))

            # -- where the block ends -------------------------------------
            stop = (t_o > t_m) | (t_m >= t_c)
            # A window edge within float tolerance of the frame end.
            stop |= (end_m - TIME_EPS_US <= t_c) & (t_c <= end_m)
            # The reference loop must fire the budget's last event.
            stop |= used >= budget
            if until_us is not None:
                stop |= t_m + horizon_pad > until_us
            # Master supervision would expire: reference path.
            stop |= t_m * rate_m - lv_m > timeout_us
            stop_at = _first_true(stop)
            clamp_at = _first_true(free_master < end_r)
            k = stop_at if stop_at <= clamp_at else clamp_at + 1
            if k == 0:
                break

            # -- the first k cycles are now committed ---------------------
            if draw_shadow:
                p_slave = m_tx_power - (
                    mean_m_to_s + ms_shadow.values(m_seq, k))
                p_master = s_tx_power - (
                    mean_s_to_m + sm_shadow.values(s_seq, k))
            else:
                p_slave = np.full(k, m_tx_power - mean_m_to_s)
                p_master = np.full(k, s_tx_power - mean_s_to_m)
            end_r_k = end_r[:k]
            _check_invariants((
                p_slave < floor_s,
                p_master < floor_m,
                end_r_k >= after_ifs[:k] + _RESPONSE_GRACE_US,
                (next_open[:k] < end_r_k) | (next_close[:k] < end_r_k)))
            s_jitter.consume(3 * k)
            m_jitter.consume(k)
            frame_ids = _signal._frame_ids
            first_id = next(frame_ids)
            next(islice(frame_ids, 2 * k - 1, 2 * k - 1), None)

            channels = hops.channels(cycles, k) \
                if trace.enabled or metrics.enabled else None
            if trace.enabled:
                self._trace_block(arq, hops, cycles, first_id, aa, channels,
                                  t_o[:k].tolist(), t_m[:k].tolist(),
                                  end_m[:k].tolist(), t_resp[:k].tolist(),
                                  end_r_k.tolist(), p_slave.tolist(),
                                  p_master.tolist())
            if metrics.enabled:
                medium._m_tx.inc(2 * k)
                medium._m_rx.inc(2 * k)
                for channel, count in Counter(channels).items():
                    airtime = medium._m_airtime.get(channel)
                    if airtime is None:
                        airtime = medium._m_airtime[channel] = \
                            metrics.counter(
                                f"medium.airtime_us.ch{channel:02d}")
                    _add_repeated(airtime, frame_dur, 2 * count)

            # The recent-frame tail: frames ending within the collision
            # horizon of the last response (frame ends only grow).
            last = k - 1
            last_end_r = float(end_r[last])
            prune_before = last_end_r - _RECENT_HORIZON_US
            while retained and retained[0][2] < prune_before:
                retained.popleft()
            for i in range(int(np.searchsorted(end_r_k, prune_before)), k):
                channel = hops.channel(cycles + i)
                m_bits, s_bits = arq.bits(cycles + i)
                if end_m[i] >= prune_before:
                    retained.append((
                        first_id + 2 * i, float(t_m[i]), float(end_m[i]),
                        channel, *self._pdu_bytes(*m_bits, crc_init),
                        float(p_slave[i]), mr, sr_tid, m_seq + i))
                retained.append((
                    first_id + 2 * i + 1, float(t_resp[i]), float(end_r[i]),
                    channel, *self._pdu_bytes(*s_bits, crc_init),
                    float(p_master[i]), sr, mr_tid, s_seq + i))

            # -- roll the state to the block's next cycle -----------------
            t_open = float(next_open[last])
            t_close = float(next_close[last])
            t_master = max(float(free_master[last]), last_end_r)
            m_anchor = float(anchors[k])
            m_lv = last_end_r * rate_m
            last_t_master = float(t_m[last])
            last_end_m = float(end_m[last])
            m_seq += k
            s_seq += k
            fired = int(used[last])
            cycles += k
            if k == stop_at < n:
                break  # a bail-out, not a clamp or the block's end

        s_jitter.unwind()
        m_jitter.unwind()
        if cycles == 0:
            return 0

        # ------------------------------------------------------------------
        # Materialise: write the end-of-stretch state back so the reference
        # engine resumes as if it had executed every cycle itself.  The
        # per-link shadowing substreams need no unwind: their draws are
        # indexed by transmission counter, so the reference path picks up
        # at the written-back counters with identical values.
        # ------------------------------------------------------------------
        sim._now = last_end_r
        ev_open.cancel()
        ev_close.cancel()
        ev_master.cancel()
        # Recreate the trio in the reference's creation order (window-open,
        # window-close, master event) so time ties break identically.
        channel = hops.channel(cycles)
        sim.schedule_at(t_open,
                        lambda ch=channel: slave._window_open(ch),
                        self._wo_label)
        new_close = sim.schedule_at(t_close, slave._window_timeout,
                                    f"{slave.name}-window-close")
        sim.schedule_at(t_master, self._master_handler,
                        f"{master.name}-event")
        slave._window_close = new_close
        slave._pending_events.append(new_close)

        m_ts, m_ne, m_pal, m_desc, s_ts, s_ne, s_pal, s_desc = \
            arq.state(cycles)
        m_bits, s_bits = arq.bits(cycles - 1)
        event_count = hops.event_count(cycles)
        mconn.event_count = event_count
        sconn.event_count = event_count
        mconn.transmit_seq_num, mconn.next_expected_seq_num = m_ts, m_ne
        sconn.transmit_seq_num, sconn.next_expected_seq_num = s_ts, s_ne
        mconn._peer_acked_last = m_pal
        sconn._peer_acked_last = s_pal
        mconn._last_sent = DataPdu.make(
            LLID(m_desc[0]), b"", sn=m_bits[2], nesn=m_bits[3], md=m_desc[1])
        sconn._last_sent = DataPdu.make(
            LLID(s_desc[0]), b"", sn=s_bits[2], nesn=s_bits[3], md=s_desc[1])
        mconn.last_valid_rx_local_us = m_lv
        sconn.last_valid_rx_local_us = last_end_m * rate_s
        mconn.current_channel = hops.channel(cycles - 1)
        sconn.current_channel = channel
        if not mp.use_csa2:
            mconn.selector._last_unmapped = hops.unmapped(cycles - 1)
            sconn.selector._last_unmapped = hops.unmapped(cycles)
        master._anchor_local = m_anchor
        master._awaiting_response = False
        master._response_deadline = None
        slave._anchor_local = last_t_master * rate_s
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

    def _trace_block(self, arq: "_ArqSchedule", hops: "_HopSequence",
                     cycle0: int, first_id: int, aa: int, channels: list,
                     t_open: list, t_master: list, end_m: list,
                     t_response: list, end_r: list, p_slave: list,
                     p_master: list) -> None:
        """The trace records of a block's committed cycles, in the
        reference's order."""
        record = self.sim.trace.record
        s_name, m_name = self.slave.name, self.master.name
        for i, channel in enumerate(channels):
            event_count = hops.event_count(cycle0 + i)
            m_bits, s_bits = arq.bits(cycle0 + i)
            frame_id_m = first_id + 2 * i
            frame_id_s = frame_id_m + 1
            t_m, t_r = t_master[i], t_response[i]
            record(t_open[i], s_name, "window-open",
                   channel=channel, event_count=event_count)
            record(t_m, s_name, "rx-lock", frame_id=frame_id_m,
                   channel=channel, rssi_dbm=p_slave[i])
            record(t_m, m_name, "tx", channel=channel, aa=aa, pdu_len=2,
                   frame_id=frame_id_m)
            record(t_m, m_name, "master-tx", event_count=event_count,
                   sn=m_bits[2], nesn=m_bits[3], channel=channel)
            record(end_m[i], s_name, "rx", frame_id=frame_id_m,
                   corrupted=False, rssi_dbm=p_slave[i])
            record(end_m[i], s_name, "anchor", event_count=event_count,
                   anchor_us=t_m, frame_id=frame_id_m)
            record(t_r, m_name, "rx-lock", frame_id=frame_id_s,
                   channel=channel, rssi_dbm=p_master[i])
            record(t_r, s_name, "tx", channel=channel, aa=aa, pdu_len=2,
                   frame_id=frame_id_s)
            record(t_r, s_name, "slave-response", sn=s_bits[2],
                   nesn=s_bits[3], event_count=event_count)
            record(end_r[i], m_name, "rx", frame_id=frame_id_s,
                   corrupted=False, rssi_dbm=p_master[i])
            record(end_r[i], m_name, "slave-heard", event_count=event_count,
                   sn=s_bits[2], nesn=s_bits[3])

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
