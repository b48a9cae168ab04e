"""Tests for the pluggable detector framework and the defense ROC bench.

Three tiers:

* pure-unit tests of the registry (`repro.defense.api`) and the ROC
  arithmetic (`repro.analysis.roc`);
* a golden-report test pinning `summarize_defense` +
  `render_roc_table` output for synthetic results;
* simulation tests on small monitored worlds: detector behaviour on an
  injection, and the determinism contract — verdict streams
  bit-identical (by SHA-256 digest) across simulation engines and
  worker counts.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import render_roc_table
from repro.analysis.roc import (
    auc,
    false_positive_rate,
    latency_curve,
    quantile,
    roc_points,
    true_positive_rate,
)
from repro.defense import (
    ALERT_SCORE,
    DETECTORS,
    Detector,
    DetectorDef,
    detector_names,
    get_detector,
    make_detectors,
    register_detector,
    verdict_stream_digest,
)
from repro.defense.bank import DetectorBank
from repro.errors import ConfigurationError
from repro.experiments.common import TrialResult, run_trial_units
from repro.experiments.defense import (
    TRAFFIC_KINDS,
    DefenseTrial,
    resolve_traffic,
    run_defense_trial_world,
    summarize_defense,
    trial_units,
)
from repro.ll.access_address import ADVERTISING_ACCESS_ADDRESS
from repro.sim.interference import NOISE_ACCESS_ADDRESS

DATA_DIR = Path(__file__).parent / "data"

BUILTINS = ("double-frame", "anchor-anomaly", "jamming", "response-time",
            "hop-conformance")


class TestRegistry:
    def test_builtins_registered_in_order(self):
        names = [n for n in detector_names() if n in BUILTINS]
        assert tuple(names) == BUILTINS

    def test_duplicate_registration_rejected(self):
        defn = get_detector("double-frame")
        with pytest.raises(ConfigurationError):
            register_detector(defn)
        register_detector(defn, replace=True)  # idempotent with replace
        assert get_detector("double-frame") is defn

    def test_unknown_detector_names_the_known_ones(self):
        with pytest.raises(ConfigurationError, match="double-frame"):
            get_detector("no-such-detector")

    def test_make_detectors_builds_fresh_instances(self):
        first = make_detectors(["response-time"])
        second = make_detectors(["response-time"])
        assert first[0] is not second[0]
        assert [d.name for d in make_detectors()] == detector_names()

    def test_third_party_registration_round_trip(self):
        class Null(Detector):
            name = "test-null"

            def on_frame(self, view):
                return []

        register_detector(DetectorDef("test-null", Null, "no-op"))
        try:
            assert make_detectors(["test-null"])[0].name == "test-null"
            assert "test-null" in detector_names()
        finally:
            DETECTORS.pop("test-null")


class TestHostileFrames:
    """Frames come off the air from anyone in range: whatever bytes a
    PDU carries, no detector may raise (each catches only CodecError)."""

    @settings(max_examples=60, deadline=None)
    @given(frames=st.lists(st.tuples(
        st.sampled_from((ADVERTISING_ACCESS_ADDRESS, 0x50654A2B,
                         0x71764129, NOISE_ACCESS_ADDRESS)),
        st.integers(0, 39),
        st.floats(0.0, 4_000.0),  # start gap: overlapping to idle
        st.binary(max_size=40)), min_size=1, max_size=40))
    def test_on_frame_survives_arbitrary_pdu_bytes(self, frames):
        from repro.phy.signal import RadioFrame
        from repro.sim.medium import Medium
        from repro.sim.simulator import Simulator
        from repro.sim.topology import Topology

        sim = Simulator(seed=3)
        medium = Medium(sim, Topology.equilateral_triangle(("a", "b", "c")))
        bank = DetectorBank(sim, medium)  # every registered detector
        start_us = 0.0
        for access_address, channel, gap_us, pdu in frames:
            start_us += gap_us
            # _on_frame is the tap the medium calls at every frame start.
            bank._on_frame(RadioFrame(access_address, pdu, 0, channel,
                                      start_us, 0.0))
        assert {d.name for d in bank.detectors} == set(detector_names())


class TestRocMath:
    def test_auc_separation_and_ties(self):
        assert auc([1.0, 2.0], [0.0, 0.5]) == 1.0
        assert auc([0.0], [1.0]) == 0.0
        assert auc([0.5, 0.5], [0.5, 0.5]) == 0.5
        assert auc([1.0, 0.0], [0.5, 0.5]) == 0.5

    def test_auc_undefined_on_empty_class(self):
        assert auc([], [1.0]) is None
        assert auc([1.0], []) is None

    def test_rates_at_the_alert_threshold(self):
        assert true_positive_rate([ALERT_SCORE, 0.2]) == 0.5
        assert false_positive_rate([0.0, 0.2, ALERT_SCORE + 1]) == 1 / 3
        assert true_positive_rate([]) is None
        assert false_positive_rate([]) is None

    def test_roc_points_endpoints_and_monotonicity(self):
        points = roc_points([0.9, 0.4], [0.1, 0.4])
        assert points[0] == (float("-inf"), 1.0, 1.0)
        assert points[-1] == (float("inf"), 0.0, 0.0)
        fprs = [p[1] for p in points]
        tprs = [p[2] for p in points]
        assert fprs == sorted(fprs, reverse=True)
        assert tprs == sorted(tprs, reverse=True)

    def test_latency_curve_merges_duplicates_and_plateaus(self):
        curve = latency_curve([100.0, 100.0, 300.0], total=4)
        assert curve == [(100.0, 0.5), (300.0, 0.75)]
        assert latency_curve([], total=0) == []

    def test_quantile_nearest_rank(self):
        values = [30.0, 10.0, 20.0]
        assert quantile(values, 0.0) == 10.0
        assert quantile(values, 0.5) == 20.0
        assert quantile(values, 1.0) == 30.0
        assert quantile([], 0.5) is None


class TestGrid:
    def test_full_grid_covers_every_traffic(self):
        units = trial_units(base_seed=17, n_connections=2)
        assert len(units) == 2 * len(TRAFFIC_KINDS)
        traffics = {t.traffic for _, t in units}
        assert traffics == set(TRAFFIC_KINDS)

    def test_subset_reproduces_full_grid_seeds(self):
        full = {(t.traffic, t.seed) for _, t in trial_units(n_connections=2)}
        subset = {(t.traffic, t.seed)
                  for _, t in trial_units(n_connections=2,
                                          traffics=["benign", "D"])}
        assert subset <= full
        assert {t for t, _ in subset} == {"benign", "D"}

    def test_resolve_traffic_aliases(self):
        assert resolve_traffic("clean") == "benign"
        assert resolve_traffic("ambient") == "dense-ambient"
        assert resolve_traffic("d") == "D"
        assert resolve_traffic("A (use feature)") == "A"
        with pytest.raises(KeyError):
            resolve_traffic("E")


def _detection(traffic, attack, scores, latency_us=None):
    """A synthetic TrialResult carrying a defense detection payload."""
    detectors = {
        name: {
            "verdicts": 1,
            "alerts": 1 if score >= ALERT_SCORE else 0,
            "max_score": score,
            "first_alert_us": latency_us,
            "latency_us": latency_us if score >= ALERT_SCORE else None,
            "stream_sha256": "0" * 64,
        }
        for name, score in scores.items()
    }
    return TrialResult(
        success=attack, attempts=0, effect_observed=False,
        connection_survived=not attack,
        detection={"traffic": traffic, "attack": attack,
                   "attack_start_us": 0.0 if attack else None,
                   "attack_success": attack, "polls_answered": 6,
                   "detectors": detectors})


class TestGoldenReport:
    """Pin the summarize + render pipeline on synthetic results."""

    def _results(self):
        return {
            "benign": [
                _detection("benign", False, {"det-a": 0.1, "det-b": 0.0}),
                _detection("benign", False, {"det-a": 0.3, "det-b": 1.0}),
            ],
            "D (MitM)": [
                _detection("D", True, {"det-a": 2.0, "det-b": 0.5},
                           latency_us=250_000.0),
                _detection("D", True, {"det-a": 1.5, "det-b": 0.5},
                           latency_us=750_000.0),
            ],
        }

    def test_summary_rows(self):
        rows = summarize_defense(self._results())
        by_detector = {r["detector"]: r for r in rows}
        assert set(by_detector) == {"det-a", "det-b"}
        a = by_detector["det-a"]
        assert a["traffic"] == "D (MitM)"
        assert a["auc"] == 1.0 and a["tpr"] == 1.0 and a["fpr"] == 0.0
        assert a["detected"] == 2
        assert a["latency_p50_us"] == 750_000.0
        b = by_detector["det-b"]
        assert b["auc"] == 0.5 and b["tpr"] == 0.0 and b["fpr"] == 0.5

    def test_rendered_table_matches_golden(self):
        rows = summarize_defense(self._results())
        text = render_roc_table("Defense bench (golden)", rows)
        golden = DATA_DIR / "defense_roc_golden.txt"
        assert text == golden.read_text()

    def test_table_handles_no_results(self):
        text = render_roc_table("Defense bench (empty)", [])
        assert "no completed monitored trials" in text


@pytest.fixture(scope="module")
def smoke_results():
    """A benign + scenario-D mini-grid, shared by the live-world tests."""
    units = trial_units(base_seed=17, n_connections=2,
                        traffics=["benign", "D"])
    return units, run_trial_units(units, jobs=1)


class TestLiveBench:
    def test_detection_payload_shape(self, smoke_results):
        _, results = smoke_results
        for trials in results.values():
            for t in trials:
                assert t.failure is None
                assert set(t.detection["detectors"]) == set(BUILTINS)
                for summary in t.detection["detectors"].values():
                    assert summary["verdicts"] >= summary["alerts"]
                    assert len(summary["stream_sha256"]) == 64

    def test_mitm_is_detected_and_benign_stays_quiet(self, smoke_results):
        _, results = smoke_results
        benign = next(v for k, v in results.items() if k == "benign")
        mitm = next(v for k, v in results.items() if k.startswith("D"))
        for t in benign:
            d = t.detection["detectors"]
            assert d["double-frame"]["alerts"] == 0
            assert d["anchor-anomaly"]["alerts"] == 0
            assert t.detection["polls_answered"] > 0
        for t in mitm:
            assert t.detection["attack_success"]
            assert t.detection["detectors"]["double-frame"]["alerts"] > 0

    def test_response_time_auc_on_mitm(self, smoke_results):
        """The BLEKeeper signal: relay latency must perfectly rank
        scenario D above benign traffic in the smoke grid."""
        _, results = smoke_results
        rows = summarize_defense(results)
        row = next(r for r in rows if r["detector"] == "response-time"
                   and r["traffic"].startswith("D"))
        assert row["auc"] is not None and row["auc"] > 0.9

    def test_results_identical_at_any_job_count(self, smoke_results):
        units, serial = smoke_results
        parallel = run_trial_units(units, jobs=2)
        assert {k: [t.detection for t in v] for k, v in serial.items()} == \
            {k: [t.detection for t in v] for k, v in parallel.items()}


class TestEngineDifferential:
    """Verdict streams must not depend on the simulation engine."""

    @pytest.mark.parametrize("traffic", ["benign", "D"])
    def test_digests_match_across_engines(self, traffic):
        trial = DefenseTrial(seed=424_242, traffic=traffic)
        fast, _ = run_defense_trial_world(trial, engine="fast")
        reference, _ = run_defense_trial_world(trial, engine="reference")
        fast_digests = {name: s["stream_sha256"]
                        for name, s in fast.detection["detectors"].items()}
        ref_digests = {name: s["stream_sha256"]
                       for name, s
                       in reference.detection["detectors"].items()}
        assert fast_digests == ref_digests
        assert fast.detection == reference.detection


class TestBankOnInjection:
    def test_injection_world_produces_scored_stream(self):
        from repro.core.attacker import Attacker
        from repro.core.injection import InjectionConfig
        from repro.devices import Lightbulb, Smartphone
        from repro.host.att.pdus import WriteReq
        from repro.host.l2cap import CID_ATT, l2cap_encode
        from repro.sim.medium import Medium
        from repro.sim.simulator import Simulator
        from repro.sim.topology import Topology

        sim = Simulator(seed=91)
        topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
        medium = Medium(sim, topo)
        bank = DetectorBank(sim, medium)
        bulb = Lightbulb(sim, medium, "bulb")
        phone = Smartphone(sim, medium, "phone", interval=75)
        attacker = Attacker(sim, medium, "attacker",
                            injection_config=InjectionConfig(max_attempts=60))
        attacker.sniff_new_connections()
        bulb.power_on()
        phone.connect_to(bulb.address)
        sim.run(until_us=1_500_000)
        handle = bulb.gatt.find_characteristic(0xFF11).value_handle
        payload = l2cap_encode(CID_ATT, WriteReq(
            handle, Lightbulb.power_payload(False, pad_to=5)).to_bytes())
        attacker.inject(payload, on_done=lambda r: None)
        sim.run(until_us=60_000_000)

        assert bank.alerts_of("double-frame")
        summaries = bank.summaries(attack_start_us=1_500_000.0)
        assert summaries["double-frame"]["latency_us"] is not None
        assert summaries["double-frame"]["latency_us"] >= 0
        # The digest is canonical: recomputing it over the same stream
        # (the differential tests' comparison key) is stable.
        stream = bank.verdicts_of("double-frame")
        assert summaries["double-frame"]["stream_sha256"] == \
            verdict_stream_digest(stream)
