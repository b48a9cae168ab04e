"""The traced run: per-layer metrics for one workload.

Four passes over the same grid, then the codec and event-queue
microbenches:

A. ``run_campaign`` at ``jobs=2``, untraced: the executor's wall time;
B. ``serve_campaign`` with two managed workers; only
   ``Coordinator.handle_message`` (in this process) is wrapped, for the
   message count and handling cost;
C. serial, in process, untraced: each unit's host time;
D. serial, in process, with every wrapper of :func:`install` in place:
   spans, counters and trial phases.

Every pass must render the same report and unit results (the digest
gate), so the wrappers are shown not to change what the program
computes.
"""

from __future__ import annotations

import inspect
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from tracer import Tracer
from workloads import (
    JOBS,
    GridRun,
    Workload,
    digests,
    gate,
    run_real,
    run_serial,
)

PHASES = ("ambient", "connect", "inject", "settle")

#: Live events in the queue of a dense (16 background pairs + 3 Wi-Fi)
#: apartment world: 51-57 at the trial's run boundaries.  The
#: event-queue microbench holds this depth.
DENSE_QUEUE_DEPTH = 56


class PhaseTracker:
    """Maps a unit's successive ``Simulator.run`` calls to trial phases.

    * ``ambient``: runs before the victim Central's first ``connect``
      issued from outside the event loop (background connects are
      scheduled events, so they happen inside a run and do not count);
    * ``connect``: from that connect until the attack starts;
    * ``inject``: from the first ``Attacker.inject`` issued outside the
      event loop until its completion callback fires, so it holds the
      injection race, the quiet tail and any re-advertising;
    * ``settle``: runs after that, plus a defense trial's final polling
      window.
    """

    def __init__(self) -> None:
        self.begin_unit(None)

    def begin_unit(self, trial: Any) -> None:
        """Reset for the next unit."""
        self.trial = trial
        self.phase = "ambient"
        self.attack_done = False
        self.in_run = 0
        self.runs: List[Dict[str, Any]] = []

    def start_run(self) -> Dict[str, Any]:
        """A run starts: return its (mutable) span detail."""
        if self.phase == "inject" and self.attack_done:
            self.phase = "settle"
        detail = {"phase": self.phase, "events": 0, "sim_s": 0.0}
        self.runs.append(detail)
        return detail

    def connect_issued(self) -> None:
        """A Central started connecting."""
        if not self.in_run and self.phase == "ambient":
            self.phase = "connect"

    def attack_issued(self) -> bool:
        """An attack was requested; True if it starts the inject phase."""
        if self.in_run or self.phase not in ("ambient", "connect"):
            return False
        self.phase = "inject"
        return True

    def end_unit(self) -> None:
        """Apply the end-of-unit rule for defense trials."""
        from repro.experiments.defense import DefenseTrial

        if isinstance(self.trial, DefenseTrial) and self.runs:
            self.runs[-1]["phase"] = "settle"


def install(tracer: Tracer, phases: PhaseTracker) -> None:
    """Wrap the public entry points of every layer for the traced pass."""
    from repro.campaign.journal import JournalWriter
    from repro.core.attacker import Attacker
    from repro.core.state import SniffedConnection
    from repro.defense.api import Detector
    from repro.ll.connection import ConnectionState
    from repro.ll.master import MasterLinkLayer
    from repro.sim.fastforward import QuietCycleEngine
    from repro.sim.medium import Medium
    from repro.sim.simulator import Simulator
    from repro.sim.transceiver import Transceiver

    import repro.defense.detectors  # noqa: F401  (registers the detectors)

    enter, exit_, counts = tracer.enter, tracer.exit, tracer.counts

    def make_run(original: Callable[..., Any]) -> Callable[..., Any]:
        def run(sim: Any, *args: Any, **kwargs: Any) -> int:
            detail = phases.start_run()
            now = sim.now
            phases.in_run += 1
            frame = enter("sim.run", True)
            try:
                fired = original(sim, *args, **kwargs)
                detail["events"] = fired
                return fired
            finally:
                exit_(frame, detail)
                phases.in_run -= 1
                detail["sim_s"] = (sim.now - now) / 1e6
        return run

    def make_advance(original: Callable[..., Any]) -> Callable[..., Any]:
        def advance(engine: Any, until_us: Optional[float],
                    budget: int) -> int:
            frame = enter("ff.advance", False)
            try:
                forwarded = original(engine, until_us, budget)
            finally:
                exit_(frame)
            if forwarded > 0:
                counts["ff.engaged"] += 1
            return forwarded
        return advance

    def make_transmit(original: Callable[..., Any]) -> Callable[..., Any]:
        def transmit(medium: Any, frame_: Any, sender: Any) -> None:
            if frame_.channel >= 37:
                counts["ll.adv_tx"] += 1
            frame = enter("medium.transmit", False)
            try:
                original(medium, frame_, sender)
            finally:
                exit_(frame)
        return transmit

    def make_add_tap(original: Callable[..., Any]) -> Callable[..., Any]:
        def add_tap(medium: Any, tap: Callable[[Any], Any]) -> None:
            def traced_tap(frame_: Any) -> Any:
                frame = enter("medium.tap", False)
                try:
                    return tap(frame_)
                finally:
                    exit_(frame)
            original(medium, traced_tap)
        return add_tap

    def make_connect(original: Callable[..., Any]) -> Callable[..., Any]:
        def connect(master: Any, *args: Any, **kwargs: Any) -> Any:
            phases.connect_issued()
            return original(master, *args, **kwargs)
        return connect

    def make_inject(original: Callable[..., Any]) -> Callable[..., Any]:
        signature = inspect.signature(original)

        def inject(attacker: Any, *args: Any, **kwargs: Any) -> Any:
            if not phases.attack_issued():
                return original(attacker, *args, **kwargs)
            bound = signature.bind(attacker, *args, **kwargs)
            on_done = bound.arguments.get("on_done")

            def done(report: Any) -> None:
                phases.attack_done = True
                if on_done is not None:
                    on_done(report)
            bound.arguments["on_done"] = done
            return original(*bound.args, **bound.kwargs)
        return inject

    tracer.patch(Simulator, "run", make_run)
    tracer.patch(QuietCycleEngine, "advance", make_advance)
    tracer.patch(Medium, "transmit", make_transmit)
    tracer.patch(Medium, "add_tap", make_add_tap)
    tracer.patch(Transceiver, "deliver", tracer.count_wrapper("medium.rx"))
    tracer.patch(ConnectionState, "channel_for_next_event",
                 tracer.count_wrapper("ll.conn_events"))
    tracer.patch(SniffedConnection, "note_anchor",
                 tracer.count_wrapper("sniffer.anchors"))
    tracer.patch(MasterLinkLayer, "connect", make_connect)
    tracer.patch(Attacker, "inject", make_inject)
    tracer.patch(JournalWriter, "record_unit",
                 tracer.span_wrapper("campaign.record_unit", keep=True))
    install_service(tracer)
    pending = list(Detector.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "on_frame" in cls.__dict__:
            tracer.patch(cls, "on_frame",
                         tracer.span_wrapper("defense.on_frame"))


def install_service(tracer: Tracer) -> None:
    """Wrap ``Coordinator.handle_message``: one kept span per message."""
    from repro.campaign.service import Coordinator

    enter, exit_ = tracer.enter, tracer.exit

    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        def handle_message(coordinator: Any,
                           message: Dict[str, Any]) -> Dict[str, Any]:
            frame = enter("service.handle_message", True)
            try:
                return original(coordinator, message)
            finally:
                exit_(frame, message.get("op"))
        return handle_message

    tracer.patch(Coordinator, "handle_message", make)


# ----------------------------------------------------------------------
# Microbenches
# ----------------------------------------------------------------------

def _ns_per_op(body: Callable[[], None], ops: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the ns per op of one ``body()`` call."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        body()
        samples.append((time.perf_counter_ns() - start) / ops)
    return statistics.median(samples)


def microbenches() -> Dict[str, float]:
    """Codec kernels and the event queue on fixed inputs."""
    from repro.crypto.aes import aes128_encrypt_block
    from repro.host.att.pdus import WriteReq, decode_att_pdu
    from repro.ll import csa2
    from repro.ll.pdu.address import BdAddress
    from repro.ll.pdu.advertising import AdvInd, decode_advertising_pdu
    from repro.ll.pdu.control import ConnectionUpdateInd, decode_control_pdu
    from repro.phy.crc import crc24
    from repro.phy.whitening import whiten
    from repro.sim.events import EventQueue

    frame = bytes((7 * i + 3) & 0xFF for i in range(64))
    key, block = bytes(range(16)), bytes(range(16, 32))
    att = WriteReq(0x0012, bytes(9)).to_bytes()
    control = ConnectionUpdateInd(win_size=1, win_offset=2, interval=36,
                                  latency=0, timeout=300,
                                  instant=100).to_payload()
    adv = AdvInd(BdAddress.from_str("C0:FF:EE:00:00:02"),
                 b"\x02\x01\x06").to_bytes()
    calls = 2000

    def loop(fn: Callable[..., Any], *args: Any) -> Callable[[], None]:
        def body() -> None:
            for _ in range(calls):
                fn(*args)
        return body

    def csa2_schedule() -> None:
        csa2.clear_schedule_cache()
        selector = csa2.Csa2(0x71764129)
        for event in range(1000):
            selector.channel_for_event(event)

    queue = EventQueue()

    def handler() -> None:
        pass

    for i in range(DENSE_QUEUE_DEPTH):
        queue.push(float((i * 7919) % 50_000), handler)
    state = [12345]

    def queue_ops() -> None:
        x = state[0]
        for _ in range(calls):
            event = queue.pop_due(None)
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            queue.push(event.time_us + 1.0 + x % 50_000, handler)
        state[0] = x

    return {
        "codec.crc24_ns_per_byte":
            _ns_per_op(loop(crc24, frame, 0x555555), calls * len(frame)),
        "codec.whiten_ns_per_byte":
            _ns_per_op(loop(whiten, frame, 17), calls * len(frame)),
        "codec.csa2_ns_per_event": _ns_per_op(csa2_schedule, 1000),
        "codec.aes128_ns_per_block":
            _ns_per_op(loop(aes128_encrypt_block, key, block), calls),
        "codec.att_decode_ns": _ns_per_op(loop(decode_att_pdu, att), calls),
        "codec.ll_control_decode_ns":
            _ns_per_op(loop(decode_control_pdu, control), calls),
        "codec.adv_decode_ns":
            _ns_per_op(loop(decode_advertising_pdu, adv), calls),
        "sim.queue_ns_per_op": _ns_per_op(queue_ops, 2 * calls),
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_us(durations_ns: List[int]) -> float:
    return statistics.median(durations_ns) / 1e3 if durations_ns else 0.0


def traced_run(workload: Workload, spec: Any, work: Path,
               expected: Optional[Dict[str, str]], trace_out: Path
               ) -> Tuple[Dict[str, float], int, int]:
    """Run passes A-D and the microbenches; returns (metrics, attempted,
    failed).  ``expected`` are pinned digests (``None``: pass C's)."""
    from repro.sim.fastforward import events_fast_forwarded

    pass_a = run_real(workload, spec, work / "a.jsonl", path="campaign")

    service_tracer = Tracer()
    install_service(service_tracer)
    try:
        pass_b = run_real(workload, spec, work / "b.jsonl",
                          path="service")
    finally:
        service_tracer.uninstall()

    # One untimed unit per configuration first, so that lazy imports and
    # first-call set-up in this process land in neither C nor D.
    from repro.campaign.engine import expand_units
    from repro.campaign.registry import run_unit_trial

    warmed = set()
    for unit in expand_units(spec):
        if (unit.axis, unit.config_key) not in warmed:
            warmed.add((unit.axis, unit.config_key))
            run_unit_trial(unit.trial)
    pass_c = run_serial(spec, work / "c.jsonl")

    tracer = Tracer()
    phases = PhaseTracker()

    def around_unit(unit: Any, call: Callable[[], Any]) -> Any:
        tracer.unit = unit.unit_id
        phases.begin_unit(unit.trial)
        frame = tracer.enter("unit", True)
        try:
            return call()
        finally:
            tracer.exit(frame)
            phases.end_unit()
            tracer.unit = None

    def around_report(call: Callable[[], Any]) -> Any:
        frame = tracer.enter("campaign.report", True)
        try:
            return call()
        finally:
            tracer.exit(frame)

    forwarded_before = events_fast_forwarded()
    install(tracer, phases)
    try:
        pass_d = run_serial(spec, work / "d.jsonl", around_unit,
                            around_report)
    finally:
        tracer.uninstall()
    forwarded = events_fast_forwarded() - forwarded_before
    tracer.write(trace_out)

    units = len(pass_c.state.units)
    attempted, failed = gate([pass_a, pass_b, pass_c, pass_d],
                             expected or digests(pass_c))

    metrics = _layer_metrics(tracer, service_tracer, pass_a, pass_b,
                             pass_c, pass_d, forwarded, units)
    metrics.update(microbenches())
    return metrics, attempted, failed


def _layer_metrics(tracer: Tracer, service: Tracer, pass_a: GridRun,
                   pass_b: GridRun, pass_c: GridRun, pass_d: GridRun,
                   forwarded: int, units: int) -> Dict[str, float]:
    host_s = sum(pass_c.unit_host_s)
    runs = tracer.kept("sim.run")
    events = sum(span[5]["events"] for span in runs)
    sim_s = sum(span[5]["sim_s"] for span in runs)
    messages = service.kept("service.handle_message")

    def handle_ns(op: Optional[str]) -> List[int]:
        return [end - start for _, start, end, _, _, detail in messages
                if op is None or detail == op]

    m: Dict[str, float] = {
        "runner.busy_frac": _ratio(host_s, pass_a.wall_s * JOBS),
        "runner.overhead_ms_per_unit":
            (pass_a.wall_s * JOBS - host_s) / units * 1e3,
        "campaign.journal_append_us_p50": _p50_us(
            [end - start for _, start, end, *_ in
             tracer.kept("campaign.record_unit")]),
        "campaign.report_ms": tracer.total_ns("campaign.report") / 1e6,
        "service.handle_us_p50": _p50_us(handle_ns(None)),
        "service.handle_us_p50.lease": _p50_us(handle_ns("lease")),
        "service.handle_us_p50.result": _p50_us(handle_ns("result")),
        "service.messages_per_unit": len(messages) / units,
        "service.overhead_ms_per_unit":
            (pass_b.wall_s * JOBS - host_s) / units * 1e3,
    }
    for phase in PHASES:
        spans = [span for span in runs if span[5]["phase"] == phase]
        m[f"phase.{phase}.host_ms"] = sum(
            end - start for _, start, end, *_ in spans) / 1e6 / units
        m[f"phase.{phase}.events"] = sum(
            span[5]["events"] for span in spans) / units
        m[f"phase.{phase}.sim_s"] = sum(
            span[5]["sim_s"] for span in spans) / units
    unit_ms = sorted(s * 1e3 for s in pass_c.unit_host_s)
    deciles = statistics.quantiles(unit_ms, n=10) if units > 1 \
        else [unit_ms[0]] * 9
    transmits = tracer.calls("medium.transmit")
    advances = tracer.calls("ff.advance")
    on_frames = tracer.calls("defense.on_frame")
    records = [pass_d.state.records[u.unit_id] for u in pass_d.state.units]
    results = [r.result or {} for r in records]
    successes = sum(1 for r in results if r.get("success"))
    m.update({
        "trial.host_ms_p50": statistics.median(unit_ms),
        "trial.host_ms_p90": deciles[8],
        "trial.samples": float(units),
        "sim.events_per_unit": events / units,
        "sim.host_us_per_event": _ratio(host_s * 1e6, events),
        "sim.sim_s_per_host_s": _ratio(sim_s, host_s),
        "ff.forwarded_frac": _ratio(forwarded, events),
        "ff.engaged_frac": _ratio(tracer.counts["ff.engaged"], advances),
        "ff.advance_us_per_call":
            _ratio(tracer.total_ns("ff.advance") / 1e3, advances),
        "medium.transmit_per_unit": transmits / units,
        "medium.transmit_us_per_call":
            _ratio(tracer.self_ns("medium.transmit") / 1e3, transmits),
        "medium.tap_us_per_frame":
            _ratio(tracer.total_ns("medium.tap") / 1e3, transmits),
        "medium.rx_per_tx": _ratio(tracer.counts["medium.rx"], transmits),
        "ll.conn_events_per_unit": tracer.counts["ll.conn_events"] / units,
        "ll.adv_tx_per_unit": tracer.counts["ll.adv_tx"] / units,
        "inject.attempts_per_success": _ratio(
            sum(int(r.get("attempts", 0)) for r in results), successes),
        "sniffer.anchors_per_unit": tracer.counts["sniffer.anchors"] / units,
        "defense.on_frame_per_unit": on_frames / units,
        "defense.on_frame_us_per_call":
            _ratio(tracer.total_ns("defense.on_frame") / 1e3, on_frames),
        "trace.overhead_frac": pass_d.wall_s / pass_c.wall_s - 1.0,
    })
    return m
