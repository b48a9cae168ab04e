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
    ref, fast = canonical_trace(sim_ref), canonical_trace(sim_fast)
    assert len(ref) == len(fast), (
        f"trace length diverged: reference={len(ref)} fast={len(fast)}")
    for i, (a, b) in enumerate(zip(ref, fast)):
        assert a == b, f"trace diverged at record {i}:\n ref: {a}\nfast: {b}"
    return sim_ref, sim_fast


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
    def _build(engine, attacker_tx_at=None, connect_only=False):
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
        fastforward.reset_fast_forward_count()
        run_both_engines(
            lambda engine: self._build(engine, attacker_tx_at=10_000_000.0))
        assert fastforward.events_fast_forwarded() > 0
        counter_after_disturbance = fastforward.events_fast_forwarded()
        assert counter_after_disturbance > 0


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
