"""Tests for the fault-tolerant campaign orchestration engine.

Four layers:

* **Robust executor** — ``run_units`` classifies timeout / crash /
  error, retries only the retryable, quarantines after ``max_retries``
  and never lets one pathological unit abort the batch.
* **Expansion & sharding** — a spec expands to the same ordered unit
  list every time; ``--shard i/n`` partitions the grid exactly.
* **Resume byte-identity** — the acceptance criterion: a ≥48-unit
  campaign SIGKILLed mid-run and resumed produces a report
  byte-identical to an uninterrupted run (at different ``--jobs``).
* **Failure quarantine** — an always-crashing synthetic experiment is
  retried, recorded ``failed`` and does not stall the rest of the grid.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    ExperimentDef,
    build_report,
    expand_units,
    load_state,
    parse_shard,
    read_journal,
    register_experiment,
    register_trial_runner,
    render_status,
    run_campaign,
    shard_units,
)
from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.common import TrialResult
from repro.runner.executor import run_units

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


# --------------------------------------------------------------------------
# Synthetic units for the robust executor (module-level: fork-inheritable).

def _double(x):
    return x * 2


def _sleep_forever(x):
    time.sleep(60)
    return x


def _hard_crash(x):
    os._exit(13)


def _raise_value_error(x):
    raise ValueError(f"deterministic failure on {x!r}")


def _crash_once_marker(path_str):
    """Crash on the first attempt, succeed once the marker file exists."""
    marker = Path(path_str)
    if not marker.exists():
        marker.write_text("attempted")
        os._exit(7)
    return "recovered"


class TestRobustExecutor:
    def test_ok_results_in_order(self):
        outcomes = run_units(_double, [1, 2, 3], jobs=2)
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert [o.index for o in outcomes] == [0, 1, 2]

    def test_timeout_is_quarantined_with_retry_count(self):
        (outcome,) = run_units(
            _sleep_forever, ["x"], jobs=1,
            timeout_s=0.2, max_retries=1, backoff_s=0.01)
        assert outcome.status == "timeout"
        assert outcome.retries == 1
        assert not outcome.ok

    def test_crash_is_quarantined_without_aborting_batch(self):
        outcomes = run_units(
            _mixed, [0, 1, 2], jobs=2,
            timeout_s=10, max_retries=1, backoff_s=0.01)
        by_index = {o.index: o for o in outcomes}
        assert by_index[0].status == "ok" and by_index[0].result == "fine-0"
        assert by_index[1].status == "crash"
        assert by_index[1].retries == 1
        assert by_index[2].status == "ok" and by_index[2].result == "fine-2"

    def test_clean_exception_is_never_retried(self):
        (outcome,) = run_units(
            _raise_value_error, ["unit"], jobs=1,
            max_retries=2, backoff_s=0.01)
        assert outcome.status == "error"
        assert outcome.retries == 0  # deterministic: retrying cannot help
        assert "deterministic failure" in outcome.detail

    def test_retry_recovers_transient_crash(self, tmp_path):
        (outcome,) = run_units(
            _crash_once_marker, [str(tmp_path / "marker")], jobs=1,
            max_retries=2, backoff_s=0.01)
        assert outcome.status == "ok"
        assert outcome.result == "recovered"
        assert outcome.retries == 1


def _mixed(x):
    if x == 1:
        os._exit(5)
    return f"fine-{x}"


# --------------------------------------------------------------------------
# Campaign specs used throughout.

def _small_spec() -> CampaignSpec:
    """8 real units: hop x2 and payload x2 configurations, 2 each."""
    return CampaignSpec.from_dict({
        "name": "small",
        "seed": 1,
        "connections": 2,
        "timeout_s": 120,
        "axes": [
            {"experiment": "hop", "hop_intervals": [25, 75]},
            {"experiment": "payload", "payload_sizes": [4, 14]},
        ],
    })


def _grid48_spec() -> CampaignSpec:
    """The acceptance grid: 48 real trials over two axes."""
    return CampaignSpec.from_dict({
        "name": "grid48",
        "seed": 1,
        "connections": 6,
        "timeout_s": 120,
        "axes": [
            {"experiment": "hop", "hop_intervals": [25, 50, 75, 100]},
            {"experiment": "payload", "payload_sizes": [4, 9, 14, 16]},
        ],
    })


class TestExpansionAndSharding:
    def test_expansion_is_deterministic(self):
        spec = _small_spec()
        first = expand_units(spec)
        second = expand_units(spec)
        assert [u.unit_id for u in first] == [u.unit_id for u in second]
        assert [u.trial for u in first] == [u.trial for u in second]
        assert len(first) == 8

    def test_unit_ids_are_stable_and_readable(self):
        ids = [u.unit_id for u in expand_units(_small_spec())]
        assert ids[0] == "00.hop:25:0000"
        assert ids[3] == "00.hop:75:0001"
        assert ids[-1] == "01.payload:14:0001"
        assert len(set(ids)) == len(ids)

    def test_campaign_seeds_match_the_standalone_panels(self):
        """Campaign trials must share cache entries with repro experiment."""
        from repro.experiments.hop_interval import trial_units

        campaign_hop = [u.trial for u in expand_units(_small_spec())
                        if u.experiment == "hop"]
        standalone = [t for _, t in trial_units(
            base_seed=1, n_connections=2, hop_intervals=[25, 75])]
        assert campaign_hop == standalone

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 11])
    def test_shards_partition_the_grid_exactly(self, count):
        units = expand_units(_grid48_spec())
        seen = []
        for index in range(count):
            seen.extend(u.unit_id for u in shard_units(units, index, count))
        assert sorted(seen) == sorted(u.unit_id for u in units)
        assert len(seen) == len(set(seen)) == 48

    def test_parse_shard(self):
        assert parse_shard("0/1") == (0, 1)
        assert parse_shard("2/3") == (2, 3)
        for bad in ("3/3", "-1/2", "1", "a/b", "1/0"):
            with pytest.raises(ConfigurationError):
                parse_shard(bad)

    def test_unknown_experiment_is_a_config_error(self):
        spec = CampaignSpec.from_dict({
            "name": "bad", "axes": [{"experiment": "warp-drive"}]})
        with pytest.raises(ConfigurationError, match="warp-drive"):
            expand_units(spec)

    def test_spec_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict({
                "name": "x", "axes": [{"experiment": "hop"}],
                "max_trials": 5})  # budgets are per-invocation, not spec


# --------------------------------------------------------------------------
# Synthetic experiments, registered exactly like the built-ins.

@dataclasses.dataclass(frozen=True)
class _CrashTrial:
    seed: int


@dataclasses.dataclass(frozen=True)
class _EasyTrial:
    seed: int


def _run_crash_trial(trial):
    os._exit(9)


def _run_easy_trial(trial):
    return TrialResult(success=True, attempts=1, effect_observed=True,
                       connection_survived=True)


def _crash_units(base_seed=0, n_connections=2):
    return [("boom", _CrashTrial(seed=base_seed + i))
            for i in range(n_connections)]


def _easy_units(base_seed=0, n_connections=2):
    return [("easy", _EasyTrial(seed=base_seed + i))
            for i in range(n_connections)]


register_experiment(ExperimentDef(
    "test-crash", _crash_units, "always-crashing fixture"), replace=True)
register_experiment(ExperimentDef(
    "test-easy", _easy_units, "instant fixture"), replace=True)
register_trial_runner(_CrashTrial, _run_crash_trial, replace=True)
register_trial_runner(_EasyTrial, _run_easy_trial, replace=True)


class TestQuarantine:
    def test_crashing_units_are_quarantined_not_fatal(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "quarantine", "seed": 0, "connections": 2,
            "timeout_s": 30, "max_retries": 2, "backoff_s": 0.01,
            "axes": [{"experiment": "test-crash"},
                     {"experiment": "test-easy", "n_connections": 3}],
        })
        journal = tmp_path / "campaign.jsonl"
        state = run_campaign(spec, journal, jobs=2)
        assert state.total == 5
        assert state.done == 5          # the campaign finished the grid
        assert state.failed_count == 2  # both crashers quarantined
        assert state.ok_count == 3

        for unit_id, record in state.records.items():
            if "test-crash" in unit_id:
                assert record.status == "failed"
                assert record.failure["kind"] == "crash"
                assert record.failure["retries"] == 2
            else:
                assert record.status == "ok"
                assert record.result["success"] is True

        report = build_report(load_state(journal))
        assert "Failure taxonomy" in report
        assert "crash" in report

    def test_cli_exit_codes(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli", "seed": 0,
            "max_retries": 0, "timeout_s": 30,
            "axes": [{"experiment": "test-easy", "n_connections": 2}],
        }))
        journal = tmp_path / "j.jsonl"
        assert main(["campaign", "run", str(spec_path),
                     "--journal", str(journal)]) == 0
        assert main(["campaign", "status", str(journal)]) == 0
        assert main(["campaign", "report", str(journal)]) == 0
        capsys.readouterr()

        bad_spec = tmp_path / "bad.json"
        bad_spec.write_text(json.dumps({
            "name": "cli-bad", "seed": 0,
            "max_retries": 0, "timeout_s": 30, "backoff_s": 0.01,
            "axes": [{"experiment": "test-crash", "n_connections": 1}],
        }))
        bad_journal = tmp_path / "bad.jsonl"
        assert main(["campaign", "run", str(bad_spec),
                     "--journal", str(bad_journal)]) == 1  # quarantined unit
        assert main(["campaign", "run", str(tmp_path / "missing.json"),
                     "--journal", str(bad_journal)]) == 2  # usage error
        capsys.readouterr()


# --------------------------------------------------------------------------
# Journal + resume semantics.

class TestJournal:
    def test_budget_interrupt_then_resume_is_byte_identical(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "budget", "seed": 0, "timeout_s": 30,
            "axes": [{"experiment": "test-easy", "n_connections": 8}],
        })
        straight = tmp_path / "straight.jsonl"
        run_campaign(spec, straight, jobs=2)

        chopped = tmp_path / "chopped.jsonl"
        state = run_campaign(spec, chopped, jobs=1, max_trials=3)
        assert state.done == 3 and len(state.pending) == 5
        state = run_campaign(spec, chopped, jobs=2, max_trials=2)
        assert state.done == 5
        state = run_campaign(spec, chopped, jobs=2)  # finish the rest
        assert state.done == 8 and not state.pending

        assert build_report(load_state(chopped)) == \
            build_report(load_state(straight))
        # The journals themselves differ (run records), the report cannot.
        assert read_journal(chopped)[3] == 3  # three run records
        assert read_journal(straight)[3] == 1

    def test_torn_final_line_is_tolerated(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "torn", "seed": 0, "timeout_s": 30,
            "axes": [{"experiment": "test-easy", "n_connections": 4}],
        })
        journal = tmp_path / "torn.jsonl"
        run_campaign(spec, journal, jobs=1, max_trials=2)
        with journal.open("a") as fh:
            fh.write('{"type": "unit", "unit_id": "00.test-easy:easy:000')
        state = load_state(journal)  # no error: the torn tail is dropped
        assert state.done == 2
        run_campaign(spec, journal, jobs=1)
        assert load_state(journal).done == 4

    def test_fingerprint_mismatch_is_refused(self, tmp_path):
        journal = tmp_path / "fp.jsonl"
        run_campaign(CampaignSpec.from_dict({
            "name": "fp", "seed": 0, "timeout_s": 30,
            "axes": [{"experiment": "test-easy", "n_connections": 1}],
        }), journal, jobs=1)
        edited = CampaignSpec.from_dict({
            "name": "fp", "seed": 1, "timeout_s": 30,
            "axes": [{"experiment": "test-easy", "n_connections": 1}],
        })
        with pytest.raises(ConfigurationError, match="fingerprint"):
            run_campaign(edited, journal, jobs=1)

    def test_status_render_mentions_progress(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "st", "seed": 0, "timeout_s": 30,
            "axes": [{"experiment": "test-easy", "n_connections": 4}],
        })
        journal = tmp_path / "st.jsonl"
        run_campaign(spec, journal, jobs=1, max_trials=1)
        text = render_status(load_state(journal))
        assert "1" in text and "4" in text
        assert "st" in text


# --------------------------------------------------------------------------
# The acceptance criterion: SIGKILL mid-run, resume, byte-identical report.

class TestKillAndResume:
    def test_sigkill_midrun_resume_matches_uninterrupted(self, tmp_path):
        """48 real trials; the worker pool is SIGKILLed mid-campaign.

        The interrupted+resumed journal and a separate uninterrupted
        journal must render byte-identical reports.  A shared result
        cache keeps the wall-clock cost near one full run: the second
        (uninterrupted) campaign replays cached trial results.
        """
        spec_path = tmp_path / "grid48.json"
        spec = _grid48_spec()
        spec_path.write_text(json.dumps(spec.to_dict()))
        killed = tmp_path / "killed.jsonl"

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + \
            env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run",
             str(spec_path), "--journal", str(killed),
             "--jobs", "4", "--cache"],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                done = 0
                if killed.exists():
                    done = sum(1 for line in killed.read_text().splitlines()
                               if '"type": "unit"' in line)
                if done >= 5:
                    break
                if proc.poll() is not None:
                    pytest.fail("campaign finished before it could be "
                                "killed; raise the grid size")
                time.sleep(0.1)
            else:
                pytest.fail("campaign never recorded 5 units")
            os.killpg(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(30)

        partial = load_state(killed)
        assert 0 < partial.done < 48

        cache_env = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        try:
            resumed = run_campaign(spec, killed, jobs=2, cache=True)
            assert resumed.done == 48 and not resumed.pending

            straight = tmp_path / "straight.jsonl"
            run_campaign(spec, straight, jobs=4, cache=True)
        finally:
            if cache_env is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = cache_env

        report_killed = build_report(load_state(killed))
        report_straight = build_report(load_state(straight))
        assert report_killed == report_straight
        assert "grid48" in report_killed
