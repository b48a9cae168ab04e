"""Differential tests: the fast engine must be indistinguishable.

The analytic fast-forward engine (:mod:`repro.sim.fastforward`) promises
*byte-identical traces* and *bit-identical results* against the reference
event-by-event path.  These tests hold it to that across a smoke panel of
all six experiment modules plus an adversarial world that forces the
engine to disengage mid-run and re-engage after the disturbance.

``run_both_engines`` is the reusable harness: give it a callable that
builds and runs a world for a named engine, and it asserts the two traces
serialize identically (after canonicalizing process-global frame ids).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    ablations,
    distance,
    hop_interval,
    payload_size,
    wall,
)
from repro.experiments.common import InjectionTrial, run_trial_world
from repro.experiments.scenarios import (
    ScenarioTrial,
    resolve_scenario,
    run_scenario_trial,
)
from repro.sim import fastforward
from repro.sim.medium import RECENT_HORIZON_US

#: Trace detail keys whose values are process-global frame ids.
FRAME_ID_KEYS = ("frame_id", "locked_to")


def canonical_trace(sim) -> list:
    """The trace as comparable tuples, frame ids remapped in first-seen
    order (the global frame-id counter differs between runs)."""
    remap: dict = {}
    out = []
    for rec in sim.trace:
        detail = dict(rec.detail)
        for key in FRAME_ID_KEYS:
            if key in detail:
                detail[key] = remap.setdefault(detail[key], len(remap))
        out.append((repr(rec.time_us), rec.source, rec.kind,
                    tuple((k, repr(v)) for k, v in detail.items())))
    return out


def run_both_engines(build_and_run):
    """Run ``build_and_run(engine)`` for both engines; assert byte-identical
    traces.  Returns the two simulators for further assertions.

    ``build_and_run`` must construct a *fresh* world (same seed) and return
    its :class:`~repro.sim.simulator.Simulator` with tracing enabled.
    """
    sim_ref = build_and_run(fastforward.ENGINE_REFERENCE)
    sim_fast = build_and_run(fastforward.ENGINE_FAST)
    assert_same_trace(canonical_trace(sim_ref), canonical_trace(sim_fast))
    return sim_ref, sim_fast


def assert_same_trace(ref: list, fast: list) -> None:
    """Assert two canonical traces are identical, reporting only the
    first divergence (a full diff of two long traces is very slow)."""
    for i, (a, b) in enumerate(zip(ref, fast)):
        assert a == b, f"trace diverged at record {i}:\n ref: {a}\nfast: {b}"
    assert len(ref) == len(fast), (
        f"trace length diverged: reference={len(ref)} fast={len(fast)}")


def _first_trial(units) -> InjectionTrial:
    return units[0][1]


def _assert_trial_differential(trial: InjectionTrial) -> dict:
    results = {}

    def build_and_run(engine):
        result, sim = run_trial_world(trial, engine=engine,
                                      trace_enabled=True)
        results[engine] = result
        return sim

    fastforward.reset_fast_forward_count()
    sim_ref, sim_fast = run_both_engines(build_and_run)
    assert results["reference"] == results["fast"]
    assert sim_ref.now == sim_fast.now
    assert fastforward.events_fast_forwarded() > 0, (
        "fast engine never engaged — the differential test is vacuous")
    return results


class TestExperimentPanels:
    """One trial from each sweep module, reference vs fast."""

    def test_hop_interval(self):
        _assert_trial_differential(_first_trial(
            hop_interval.trial_units(n_connections=1)))

    def test_payload_size(self):
        # A payload that keeps the connection up: the quiet-cycle mode.
        units = payload_size.trial_units(n_connections=1)
        trial = next(t for _, t in units if t.pdu_len >= 9)
        _assert_trial_differential(trial)

    def test_payload_size_terminate(self):
        # pdu_len=4 is an LL_TERMINATE_IND: the bulb drops the connection
        # and re-advertises until the deadline, the advertising mode's
        # tail.  Metrics on, so the snapshots in the results must match.
        units = payload_size.trial_units(n_connections=1,
                                         payload_sizes=(4,),
                                         collect_metrics=True)
        trial = _first_trial(units)
        assert trial.pdu_len == 4
        results = _assert_trial_differential(trial)
        assert results["fast"].metrics
        assert not results["fast"].connection_survived

    def test_distance(self):
        _assert_trial_differential(_first_trial(
            distance.trial_units(n_connections=1)))

    def test_wall(self):
        _assert_trial_differential(_first_trial(
            wall.trial_units(n_connections=1)))

    def test_ablations(self):
        _assert_trial_differential(_first_trial(
            ablations.trial_units(n_connections=1)))

    @pytest.mark.parametrize("scenario", ["A", "B", "C", "D"])
    def test_scenarios(self, scenario, monkeypatch):
        trial = ScenarioTrial(seed=5, scenario=resolve_scenario(scenario),
                              device="lightbulb")
        monkeypatch.setenv(fastforward.ENGINE_ENV_VAR,
                           fastforward.ENGINE_REFERENCE)
        ref = run_scenario_trial(trial)
        monkeypatch.setenv(fastforward.ENGINE_ENV_VAR,
                           fastforward.ENGINE_FAST)
        fast = run_scenario_trial(trial)
        assert ref == fast


class TestAdversarialDisengage:
    """A foreign transmission mid-quiet-phase must not perturb anything."""

    @staticmethod
    def _build(engine, attacker_tx_at=None, connect_only=False, on_tx=None):
        from repro.devices.lightbulb import Lightbulb
        from repro.ll.master import MasterLinkLayer
        from repro.ll.pdu.address import BdAddress
        from repro.sim.fastforward import install_engine
        from repro.sim.medium import Medium
        from repro.sim.simulator import Simulator
        from repro.sim.topology import Topology
        from repro.sim.transceiver import Transceiver

        sim = Simulator(seed=11, trace_enabled=True)
        topo = Topology()
        topo.place("peripheral", 0.0, 0.0)
        topo.place("central", 2.0, 0.0)
        topo.place("attacker", -2.0, 0.0)
        medium = Medium(sim, topo)
        bulb = Lightbulb(sim, medium, "peripheral")
        central = MasterLinkLayer(
            sim, medium, "central",
            BdAddress.from_str("C0:FF:EE:00:00:02"),
            interval=36, timeout=300)
        attacker_radio = Transceiver(sim, medium, "attacker")
        install_engine(sim, medium, central, bulb.ll, engine=engine)
        bulb.power_on()
        central.connect(bulb.address)
        sim.run(until_us=2_000_000)
        assert central.is_connected and bulb.ll.is_connected
        if connect_only:
            return sim
        if attacker_tx_at is not None:
            def rogue_tx():
                if on_tx is not None:
                    on_tx()
                conn = central.conn
                attacker_radio.transmit(
                    conn.params.access_address, b"\x01\x00",
                    0xBADBAD, conn.current_channel or 0)
            sim.schedule_at(attacker_tx_at, rogue_tx, "attacker-rogue-tx")
        sim.run(until_us=30_000_000)
        return sim

    @pytest.mark.parametrize("max_events", range(40, 48))
    def test_event_budget_boundary(self, max_events):
        # Quiet cycles are 6 or 7 events, so across 8 consecutive budgets
        # one cycle ends exactly on the budget: the reference loop, not
        # the engine, must fire that last event and trip max_events.
        from repro.errors import SimulationError

        def build_and_run(engine):
            sim = self._build(engine, connect_only=True)
            with pytest.raises(SimulationError, match="exceeded"):
                sim.run(until_us=30_000_000, max_events=max_events)
            return sim

        fastforward.reset_fast_forward_count()
        run_both_engines(build_and_run)
        assert fastforward.events_fast_forwarded() > 0

    def test_quiet_world_fast_forwards(self):
        fastforward.reset_fast_forward_count()
        ref, fast = run_both_engines(self._build)
        assert fastforward.events_fast_forwarded() > 0

    def test_mid_window_attacker_tx_bails_out_cleanly(self):
        # The rogue frame adds a 4th live event, so the engine must stand
        # down, let the reference path absorb the disturbance (collisions,
        # retransmissions, missed events and all), then re-engage — with
        # traces still byte-identical throughout.
        at_disturbance = {}

        def build_and_run(engine):
            def note_counter():
                at_disturbance[engine] = fastforward.events_fast_forwarded()

            return self._build(engine, attacker_tx_at=10_000_000.0,
                               on_tx=note_counter)

        fastforward.reset_fast_forward_count()
        run_both_engines(build_and_run)
        # Engaged before the rogue frame, and again after it.
        assert at_disturbance[fastforward.ENGINE_FAST] > 0
        assert fastforward.events_fast_forwarded() \
            > at_disturbance[fastforward.ENGINE_FAST]


class TestIndexedVsBroadcast:
    """The indexed medium must be a pure optimisation: same traces, same
    results as the O(world) broadcast medium, under both engines."""

    @staticmethod
    def _build(engine, indexed):
        from repro.core.attacker import Attacker
        from repro.core.injection import InjectionConfig
        from repro.devices.lightbulb import Lightbulb
        from repro.ll.master import MasterLinkLayer
        from repro.ll.pdu.address import BdAddress
        from repro.sim.fastforward import install_engine
        from repro.sim.interference import WifiInterferer
        from repro.sim.medium import Medium
        from repro.sim.simulator import Simulator
        from repro.sim.topology import Topology

        sim = Simulator(seed=23, trace_enabled=True)
        topo = Topology()
        topo.place("peripheral", 0.0, 0.0)
        topo.place("central", 2.0, 0.0)
        topo.place("attacker", -2.0, 0.0)
        topo.place("wifi", 1.0, 3.0)
        medium = Medium(sim, topo, indexed=indexed)
        bulb = Lightbulb(sim, medium, "peripheral")
        central = MasterLinkLayer(
            sim, medium, "central",
            BdAddress.from_str("C0:FF:EE:00:00:02"),
            interval=36, timeout=300)
        attacker = Attacker(sim, medium, "attacker",
                            injection_config=InjectionConfig(max_attempts=100))
        # Co-located Wi-Fi bursts give collision resolution real work, so
        # the equivalence covers the interference path too.
        WifiInterferer(sim, medium, "wifi", duty_cycle=0.10).start()
        install_engine(sim, medium, central, bulb.ll, engine=engine)
        attacker.sniff_new_connections()
        bulb.power_on()
        central.connect(bulb.address)
        sim.run(until_us=2_000_000)
        if attacker.synchronized:
            handle = bulb.gatt.find_characteristic(0xFF11).value_handle
            from repro.experiments.common import build_injection_payload

            payload, llid = build_injection_payload(14, handle)
            attacker.inject(payload, llid)
        sim.run(until_us=10_000_000)
        return sim

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_traces_byte_identical(self, engine):
        indexed = canonical_trace(self._build(engine, indexed=True))
        broadcast = canonical_trace(self._build(engine, indexed=False))
        assert len(indexed) == len(broadcast), (
            f"trace length diverged: indexed={len(indexed)} "
            f"broadcast={len(broadcast)}")
        for i, (a, b) in enumerate(zip(indexed, broadcast)):
            assert a == b, (
                f"trace diverged at record {i}:\n  indexed: {a}\nbroadcast: {b}")

    def test_trial_results_bit_identical(self, monkeypatch):
        # The stock experiment world, forced through each medium mode.
        from repro.sim.medium import Medium

        trial = InjectionTrial(seed=21)
        original_init = Medium.__init__
        outcomes = {}
        for mode in (True, False):
            def patched(self, sim, topology=None, *args, _mode=mode, **kwargs):
                kwargs.setdefault("indexed", _mode)
                original_init(self, sim, topology, *args, **kwargs)

            monkeypatch.setattr(Medium, "__init__", patched)
            result, sim = run_trial_world(trial, engine="reference",
                                          trace_enabled=True)
            outcomes[mode] = (result, canonical_trace(sim))
        assert outcomes[True] == outcomes[False]


class TestEngineSelection:
    def test_resolve_engine_explicit(self):
        assert fastforward.resolve_engine("reference") == "reference"
        assert fastforward.resolve_engine("fast") == "fast"

    def test_resolve_engine_env(self, monkeypatch):
        monkeypatch.setenv(fastforward.ENGINE_ENV_VAR, "reference")
        assert fastforward.resolve_engine() == "reference"
        monkeypatch.delenv(fastforward.ENGINE_ENV_VAR)
        assert fastforward.resolve_engine() == "fast"

    def test_resolve_engine_rejects_unknown(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fastforward.resolve_engine("warp")

    def test_install_engine_reference_is_noop(self):
        from repro.sim.simulator import Simulator

        sim = Simulator(seed=1)
        assert fastforward.install_engine(
            sim, None, None, None, engine="reference") is None
        assert sim._fast_forward is None


class TestAdvertisingTail:
    """The advertising mode on bare advertiser worlds, randomized.

    The horizon is split across several ``run()`` calls (partial cycles,
    the run horizon) under small event budgets (the reference loop's
    ``max_events`` trip), with metrics on and off.
    """

    @staticmethod
    def _build(engine, seed, adv_interval_ms, metrics):
        from repro.ll.master import MasterLinkLayer
        from repro.ll.pdu.address import BdAddress
        from repro.ll.slave import SlaveLinkLayer
        from repro.sim.fastforward import install_engine
        from repro.sim.medium import Medium
        from repro.sim.simulator import Simulator
        from repro.sim.topology import Topology

        sim = Simulator(seed=seed, trace_enabled=True,
                        metrics_enabled=metrics)
        topo = Topology()
        topo.place("peripheral", 0.0, 0.0)
        topo.place("central", 2.0, 0.0)
        medium = Medium(sim, topo)
        slave = SlaveLinkLayer(
            sim, medium, "peripheral",
            BdAddress.from_str("A4:C1:38:00:00:01"),
            adv_interval_ms=adv_interval_ms, adv_data=b"\x02\x01\x06")
        central = MasterLinkLayer(
            sim, medium, "central",
            BdAddress.from_str("C0:FF:EE:00:00:03"),
            interval=36, timeout=300)
        install_engine(sim, medium, central, slave, engine=engine)
        slave.start_advertising()
        return sim, medium, slave, central

    @staticmethod
    def _observe(sim, medium, slave) -> tuple:
        """Everything a later event could depend on, comparable."""
        live = sorted((e.time_us, e.label) for _, _, e in sim._queue._heap
                      if e.pending)
        return (canonical_trace(sim), sim.now, live,
                repr(slave._adv_rng.bit_generator.state),
                dict(medium._tx_seq), slave.radio._tx_until_us,
                slave.radio._rx_channel, sim.metrics.snapshot())

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           adv_interval_ms=st.floats(0.0, 400.0),
           horizons=st.lists(st.floats(0.0, 3_000_000.0), min_size=1,
                             max_size=4),
           max_events=st.one_of(st.none(), st.integers(1, 300)),
           metrics=st.booleans())
    def test_randomized_advertiser_worlds(self, seed, adv_interval_ms,
                                          horizons, max_events, metrics):
        from repro.errors import SimulationError

        observed = {}
        fastforward.reset_fast_forward_count()
        for engine in (fastforward.ENGINE_REFERENCE, fastforward.ENGINE_FAST):
            sim, medium, slave, _ = self._build(engine, seed,
                                                adv_interval_ms, metrics)
            returns = []
            for until in sorted(horizons):
                try:
                    if max_events is None:
                        returns.append(sim.run(until_us=until))
                    else:
                        returns.append(sim.run(until_us=until,
                                               max_events=max_events))
                except SimulationError as exc:
                    returns.append(str(exc))
            observed[engine] = (returns, self._observe(sim, medium, slave))
        assert observed[fastforward.ENGINE_REFERENCE] \
            == observed[fastforward.ENGINE_FAST]

    @pytest.mark.parametrize("max_events", [10, 11, 20, 21, 40])
    def test_event_budget_boundary(self, max_events):
        # The world starts in shape, so the engine sees the whole budget;
        # a cycle that would use it up exactly must be left to the
        # reference loop, which trips max_events on that cycle's last event.
        from repro.errors import SimulationError

        def build_and_run(engine):
            sim, _, _, _ = self._build(engine, 5, 30.0, False)
            with pytest.raises(SimulationError, match="exceeded"):
                sim.run(until_us=10_000_000, max_events=max_events)
            return sim

        fastforward.reset_fast_forward_count()
        run_both_engines(build_and_run)
        if max_events > 11:
            assert fastforward.events_fast_forwarded() > 0

    def test_engages_on_long_tail(self):
        fastforward.reset_fast_forward_count()
        sim, _, _, _ = self._build(fastforward.ENGINE_FAST, 3, 100.0, True)
        sim.run(until_us=5_000_000)
        # ~46 cycles of 10 events; all but a partial first stretch skipped.
        assert fastforward.events_fast_forwarded() >= 400

    def test_connect_mid_tail(self):
        # A scheduled connect is a second live event: the engine must stand
        # down while it is pending, and the connection must form exactly
        # as on the reference path.
        connect_at = 1_234_567.0
        engaged_while_pending = []
        worlds = {}

        def build_and_run(engine):
            sim, medium, slave, central = self._build(engine, 7, 60.0, True)
            sim.run(until_us=1_000_000)
            pending = sim.schedule_at(
                connect_at, lambda: central.connect(slave.address),
                "late-connect")
            inner = sim._fast_forward
            if inner is not None:
                class Spy:
                    def advance(self, until_us, budget):
                        forwarded = inner.advance(until_us, budget)
                        if forwarded and pending.pending:
                            engaged_while_pending.append(sim.now)
                        return forwarded
                sim.install_fast_forward(Spy())
            sim.run(until_us=4_000_000)
            worlds[engine] = (slave, central, self._observe(sim, medium,
                                                            slave))
            return sim

        fastforward.reset_fast_forward_count()
        run_both_engines(build_and_run)
        assert engaged_while_pending == []
        assert fastforward.events_fast_forwarded() > 0
        ref, fast = worlds["reference"], worlds["fast"]
        assert ref[2] == fast[2]
        for slave, central, _ in (ref, fast):
            assert slave.is_connected and central.is_connected
        assert ref[0].conn.params == fast[0].conn.params


class TestQuietConnection:
    """The quiet-cycle mode on bare Master/Slave worlds, randomized.

    Connection parameters, clock accuracies, window widening, the channel
    selection algorithm and a reduced channel map vary; after the
    connection forms, the horizon is split across several ``run()`` calls
    under small event budgets, with metrics and the trace on and off.  With
    the trace off (the campaign path) everything a later event could
    depend on is compared instead.
    """

    @staticmethod
    def _build(engine, seed, interval, master_sca, slave_sca,
               widening_scale, use_csa2, channel_map, metrics, trace):
        from repro.ll.master import MasterLinkLayer
        from repro.ll.pdu.address import BdAddress
        from repro.ll.slave import SlaveLinkLayer
        from repro.sim.fastforward import install_engine
        from repro.sim.medium import Medium
        from repro.sim.simulator import Simulator
        from repro.sim.topology import Topology

        sim = Simulator(seed=seed, trace_enabled=trace,
                        metrics_enabled=metrics)
        topo = Topology()
        topo.place("peripheral", 0.0, 0.0)
        topo.place("central", 2.0, 0.0)
        medium = Medium(sim, topo)
        slave = SlaveLinkLayer(
            sim, medium, "peripheral",
            BdAddress.from_str("A4:C1:38:00:00:02"),
            adv_interval_ms=20.0, use_csa2=use_csa2, sca_ppm=slave_sca,
            widening_scale=widening_scale)
        central = MasterLinkLayer(
            sim, medium, "central",
            BdAddress.from_str("C0:FF:EE:00:00:04"),
            interval=interval, timeout=500, channel_map=channel_map,
            use_csa2=use_csa2, sca_ppm=master_sca)
        install_engine(sim, medium, central, slave, engine=engine)
        slave.start_advertising()
        central.connect(slave.address)
        return sim, medium, central, slave

    @staticmethod
    def _conn_state(conn):
        if conn is None:
            return None
        state = dict(vars(conn))
        selector = state.pop("selector")
        state["selector"] = {k: v for k, v in vars(selector).items()
                             if k != "_blocks"}
        return state

    @classmethod
    def _observe(cls, sim, medium, central, slave) -> tuple:
        """Everything a later event could depend on, trace aside."""
        live = sorted((e.time_us, e.label) for _, _, e in sim._queue._heap
                      if e.pending)
        tx_seq = dict(medium._tx_seq)
        next_shadowing = [
            medium._link_shadow(sender, receiver.medium_id).value(
                tx_seq.get(sender.medium_id, 0))
            for sender, receiver in ((central.radio, slave.radio),
                                     (slave.radio, central.radio))]
        # Frames a later collision could still overlap (older ones may
        # linger on idle channels, unobservably).
        recent = sorted(
            (tx.frame.end_us, tx.frame.start_us, tx.frame.channel,
             tx.frame.pdu, tx.frame.crc, tx.frame.sender_id, tx.tx_seq,
             tx.rx_power_dbm)
            for frames in medium._recent_by_channel.values()
            for tx in frames
            if tx.frame.end_us >= sim.now - RECENT_HORIZON_US)
        return (sim.now, live,
                repr(central.clock._rng.bit_generator.state),
                repr(slave.clock._rng.bit_generator.state),
                tx_seq, next_shadowing, recent,
                cls._conn_state(central.conn), cls._conn_state(slave.conn),
                central._anchor_local, slave._anchor_local,
                sim.metrics.snapshot())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           interval=st.integers(6, 60),
           master_sca=st.floats(0.0, 500.0),
           slave_sca=st.floats(0.0, 500.0),
           widening_scale=st.floats(0.5, 1.5),
           use_csa2=st.booleans(),
           channels=st.sets(st.integers(0, 36), min_size=2),
           horizons=st.lists(st.floats(0.0, 8_000_000.0), min_size=1,
                             max_size=4),
           max_events=st.one_of(st.none(), st.integers(1, 400)),
           metrics=st.booleans(),
           trace=st.booleans(),
           block=st.one_of(st.integers(1, 16), st.just(512)))
    def test_randomized_quiet_connections(
            self, seed, interval, master_sca, slave_sca, widening_scale,
            use_csa2, channels, horizons, max_events, metrics, trace, block):
        from repro.errors import SimulationError

        channel_map = sum(1 << channel for channel in channels)
        observed = {}
        for engine in (fastforward.ENGINE_REFERENCE, fastforward.ENGINE_FAST):
            sim, medium, central, slave = self._build(
                engine, seed, interval, master_sca, slave_sca,
                widening_scale, use_csa2, channel_map, metrics, trace)
            returns = []
            # Small blocks put many block boundaries inside one stretch.
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fastforward, "_BLOCK_CYCLES", block)
                sim.run(until_us=500_000)
                for offset in sorted(horizons):
                    try:
                        if max_events is None:
                            returns.append(sim.run(until_us=500_000 + offset))
                        else:
                            returns.append(sim.run(until_us=500_000 + offset,
                                                   max_events=max_events))
                    except SimulationError as exc:
                        returns.append(str(exc))
            observed[engine] = (
                returns, self._observe(sim, medium, central, slave),
                canonical_trace(sim) if trace else None)
        ref, fast = (observed[fastforward.ENGINE_REFERENCE],
                     observed[fastforward.ENGINE_FAST])
        assert ref[0] == fast[0]
        for a, b in zip(ref[1], fast[1]):
            assert a == b
        if trace:
            assert_same_trace(ref[2], fast[2])

    @pytest.mark.parametrize("use_csa2", [False, True])
    @pytest.mark.parametrize("trace", [False, True])
    def test_engages(self, use_csa2, trace):
        # A reduced map (CSA#1 remaps, CSA#2 remaps by its own rule) and
        # a long quiet stretch: several blocks of cycles are forwarded.
        channel_map = (1 << 37) - 1 - 0b1011 - (1 << 20) - (0xFF << 28)
        observed = {}
        fastforward.reset_fast_forward_count()
        for engine in (fastforward.ENGINE_REFERENCE, fastforward.ENGINE_FAST):
            sim, medium, central, slave = self._build(
                engine, 13, 6, 50.0, 100.0, 1.0, use_csa2, channel_map,
                True, trace)
            sim.run(until_us=12_000_000)
            assert central.is_connected and slave.is_connected
            assert central.conn._selector_is_csa2 is use_csa2
            observed[engine] = (self._observe(sim, medium, central, slave),
                                canonical_trace(sim) if trace else [])
        ref, fast = (observed[fastforward.ENGINE_REFERENCE],
                     observed[fastforward.ENGINE_FAST])
        for a, b in zip(ref[0], fast[0]):
            assert a == b
        assert_same_trace(ref[1], fast[1])
        # 12 s at 7.5 ms is ~1,600 cycles: more than three blocks.
        assert fastforward.events_fast_forwarded() \
            > 3 * fastforward._BLOCK_CYCLES * 6

    def test_clamped_master_event(self):
        # Pull the Master's anchor back one interval: its next event is
        # then clamped to the end of the Slave's response, a cross-cycle
        # dependency a block cannot precompute.  The clamped cycle is
        # committed, the engine hands over at the clamped time, and the
        # reference absorbs the missed event.
        observed = {}
        fastforward.reset_fast_forward_count()
        for engine in (fastforward.ENGINE_REFERENCE, fastforward.ENGINE_FAST):
            sim, medium, central, slave = self._build(
                engine, 21, 24, 50.0, 50.0, 1.0, False, (1 << 37) - 1,
                False, True)
            sim.run(until_us=2_000_000)
            assert central.is_connected
            central._anchor_local -= central.conn.params.interval_us
            sim.run(until_us=sim.now + 2 * central.conn.params.interval_us)
            if engine == fastforward.ENGINE_FAST:
                assert fastforward.events_fast_forwarded() > 0
                fastforward.reset_fast_forward_count()
            sim.run(until_us=4_000_000)
            observed[engine] = (self._observe(sim, medium, central, slave),
                                canonical_trace(sim))
        ref, fast = (observed[fastforward.ENGINE_REFERENCE],
                     observed[fastforward.ENGINE_FAST])
        for a, b in zip(ref[0], fast[0]):
            assert a == b
        assert_same_trace(ref[1], fast[1])


class TestBlockArithmetic:
    """The array building blocks of the quiet-cycle mode."""

    def test_accumulate_matches_repeated_addition(self):
        import numpy as np

        rng = np.random.default_rng(2024)
        for _ in range(200):
            start = float(rng.uniform(0.0, 2e8))
            step = float(rng.choice([1250.0, 7500.0, 45_000.0,
                                     rng.uniform(1.0, 5e6)]))
            n = int(rng.integers(1, 700))
            steps = np.full(n + 1, step)
            steps[0] = start
            accumulated = np.add.accumulate(steps).tolist()
            value = start
            expected = [value]
            for _ in range(n):
                value = value + step
                expected.append(value)
            assert accumulated == expected

    @pytest.mark.parametrize("requests", [
        [(0, 1), (1, 40), (41, 3)],
        [(5, 10), (15, 600), (2, 1)],
        [(0, 31), (40, 2), (31, 9), (42, 100)],
    ])
    def test_link_shadow_values_match_value(self, requests):
        import numpy as np

        from repro.sim.medium import _LinkShadow

        bulk = _LinkShadow(np.random.default_rng(3), 4.0)
        single = _LinkShadow(np.random.default_rng(3), 4.0)
        for start, n in requests:
            values = bulk.values(start, n)
            assert values.tolist() == [single.value(seq) for seq
                                       in range(start, start + n)]
        # Whatever is still unclaimed is the same, from either side.
        for seq in range(0, 800):
            if seq in single._pending or seq >= single._produced:
                assert bulk.value(seq) == single.value(seq)

    def test_arq_schedule_repeats(self):
        empty = (fastforward._LLID_EMPTY, 0)
        start = (0, 0, True, None, 0, 0, True, None)
        schedule = fastforward._ArqSchedule(start)
        # Steady state: every frame acks the previous one, both SN bits
        # toggle each cycle, so the bits repeat with period 2.
        assert schedule.bits(0) == (empty + (0, 0), empty + (0, 1))
        for cycle in range(2, 50):
            assert schedule.bits(cycle) == schedule.bits(cycle - 2)
        # The state repeats once the first cycle's PDU is on record.
        for cycle in range(3, 50):
            assert schedule.state(cycle) == schedule.state(cycle - 2)


class TestStreamBuffer:
    """Block-buffered draws must leave the generator where per-call draws
    would, whatever was drawn and consumed."""

    @staticmethod
    def _pair(seed=9):
        import numpy as np

        return np.random.default_rng(seed), np.random.default_rng(seed)

    @pytest.mark.parametrize("consumed", [1, 7, 512, 513, 1300])
    def test_uniform_blocks_match_per_call_draws(self, consumed):
        buffered, per_call = self._pair()
        buffer = fastforward._StreamBuffer(buffered, "uniform", 0.0, 10.0)
        values = [buffer.next() for _ in range(consumed)]
        expected = [float(per_call.uniform(0.0, 10.0))
                    for _ in range(consumed)]
        assert values == expected
        buffer.unwind()
        assert buffered.bit_generator.state == per_call.bit_generator.state
        assert float(buffered.uniform(0.0, 10.0)) \
            == float(per_call.uniform(0.0, 10.0))

    def test_block_drawn_nothing_consumed(self):
        buffered, untouched = self._pair()
        buffer = fastforward._StreamBuffer(buffered, "uniform", 0.0, 10.0)
        buffer._refill()
        assert buffered.bit_generator.state != untouched.bit_generator.state
        buffer.unwind()
        assert buffered.bit_generator.state == untouched.bit_generator.state

    def test_unwind_is_reusable(self):
        buffered, per_call = self._pair()
        buffer = fastforward._StreamBuffer(buffered, "normal", 0.0, 2.5)
        for n in (3, 600):
            values = [buffer.next() for _ in range(n)]
            buffer.unwind()
            assert values == [float(per_call.normal(0.0, 2.5))
                              for _ in range(n)]
            assert buffered.bit_generator.state \
                == per_call.bit_generator.state

    def test_no_rng_draws_nothing(self):
        buffer = fastforward._StreamBuffer(None, "normal", 0.0, 0.0)
        assert [buffer.next() for _ in range(3)] == [0.0, 0.0, 0.0]
        buffer.unwind()
