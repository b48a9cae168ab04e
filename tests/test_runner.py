"""Tests for the worker pool, the trial runner and the on-disk result cache."""

import errno
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.experiments.common import InjectionTrial, run_single_trial, run_trials
from repro.runner import (
    ResultCache,
    WorkerPool,
    execute_trials,
    merge_trial_metrics,
    resolve_jobs,
    run_units,
    source_tree_token,
    stable_trial_key,
)
from repro.runner import executor
from repro.sim import fastforward

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _square(x):
    return x * x


def _quick_trial(seed):
    return InjectionTrial(seed=seed, hop_interval=75)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs(None) == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1


def _results(outcomes):
    return [outcome.unwrap() for outcome in outcomes]


def _worker_pid(_item):
    return os.getpid()


def _credit_fast_forward(events):
    fastforward.credit_fast_forward_count(events)
    return os.getpid()


def _alive(pid):
    """Whether ``pid`` runs (an unreaped zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestWorkerPool:
    def test_serial_path(self):
        assert _results(run_units(_square, range(7), jobs=1)) == [
            0, 1, 4, 9, 16, 25, 36]

    def test_pool_preserves_order(self):
        assert _results(run_units(_square, range(23), jobs=3)) == [
            i * i for i in range(23)]

    def test_worker_exception_propagates(self):
        with pytest.raises(ReproError, match="ZeroDivisionError"):
            _results(run_units(_reciprocal, [2, 0], jobs=2))

    def test_forkless_host_runs_units_in_process(self, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(executor.multiprocessing, "get_context", no_fork)
        outcomes = run_units(_reciprocal, [2, 0], jobs=2)
        assert [o.status for o in outcomes] == ["ok", "error"]
        assert outcomes[0].result == 0.5
        assert "ZeroDivisionError" in outcomes[1].detail

    def test_workers_are_forked_once_and_reused(self):
        with WorkerPool(_worker_pid, jobs=2) as pool:
            first = {o.result for o in pool.run(range(8))}
            second = {o.result for o in pool.run(range(8))}
        assert os.getpid() not in first
        assert 1 <= len(first) <= 2
        assert second <= first

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_a_failed_fork_is_retried_next_round(self, monkeypatch):
        process_cls = multiprocessing.get_context("fork").Process
        real_start = process_cls.start
        starts = []

        def flaky_start(process):
            starts.append(process)
            if len(starts) == 1:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            real_start(process)

        monkeypatch.setattr(process_cls, "start", flaky_start)
        fds = len(os.listdir("/proc/self/fd"))
        with WorkerPool(_worker_pid, jobs=1) as pool:
            (first,) = pool.run([0])
            assert len(os.listdir("/proc/self/fd")) == fds  # pipe closed
            (second,) = pool.run([0])
        assert first.result == os.getpid()  # ran in-process this round
        assert second.result != os.getpid()  # forked on the next one

    def test_fast_forward_count_reaches_the_supervisor(self):
        fastforward.reset_fast_forward_count()
        outcomes = run_units(_credit_fast_forward, [3, 4], jobs=2)
        assert os.getpid() not in _results(outcomes)
        assert fastforward.events_fast_forwarded() == 7

    def test_serial_trials_count_their_fast_forwarded_events(self):
        fastforward.reset_fast_forward_count()
        execute_trials([_quick_trial(1)], jobs=1, cache=None)
        assert fastforward.events_fast_forwarded() > 0

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_idle_workers_exit_when_the_supervisor_is_killed(self):
        script = (
            "import os, time\n"
            "from repro.runner import WorkerPool\n"
            "pool = WorkerPool(lambda _: os.getpid(), jobs=2)\n"
            "print(*sorted({o.result for o in pool.run(range(4))}),"
            " flush=True)\n"
            "time.sleep(60)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        assert pids
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []


def _reciprocal(x):
    return 1 / x


def _metric_trial(seed):
    return InjectionTrial(seed=seed, hop_interval=75, collect_metrics=True)


class TestParallelDeterminism:
    def test_jobs4_equals_jobs1_field_for_field(self):
        """The runner's core contract: job count never changes results."""
        serial = run_trials(21, 4, _quick_trial, jobs=1)
        parallel = run_trials(21, 4, _quick_trial, jobs=4)
        assert parallel == serial  # TrialResult eq covers report/records too
        assert [r.attempts for r in parallel] == [r.attempts for r in serial]


class TestWorkerMetricsMerging:
    def test_snapshots_cross_the_process_boundary(self):
        results = run_trials(22, 2, _metric_trial, jobs=2)
        for result in results:
            assert result.metrics is not None
            assert result.metrics["counters"]["medium.tx"] > 0

    def test_merged_metrics_identical_at_any_job_count(self):
        """Per-trial snapshots sum to the same campaign aggregate."""
        serial = merge_trial_metrics(run_trials(23, 3, _metric_trial, jobs=1))
        pooled = merge_trial_metrics(run_trials(23, 3, _metric_trial, jobs=2))
        assert pooled == serial
        assert serial["counters"]["inject.success"] == 3

    def test_merge_skips_metricless_results(self):
        mixed = (run_trials(24, 1, _metric_trial, jobs=1)
                 + run_trials(24, 1, _quick_trial, jobs=1))
        merged = merge_trial_metrics(mixed)
        assert merged["counters"]["inject.success"] == 1

    def test_merge_of_nothing_is_empty(self):
        merged = merge_trial_metrics(run_trials(25, 2, _quick_trial, jobs=1))
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}


class TestTrialKey:
    def test_key_is_stable(self):
        trial = _quick_trial(5)
        assert stable_trial_key(trial, "tok") == stable_trial_key(trial, "tok")

    def test_every_field_is_significant(self):
        base = InjectionTrial(seed=1)
        variants = [
            InjectionTrial(seed=2),
            InjectionTrial(seed=1, hop_interval=75),
            InjectionTrial(seed=1, pdu_len=9),
            InjectionTrial(seed=1, attacker_distance_m=4.0),
            InjectionTrial(seed=1, wall_attenuation_db=8.0),
            InjectionTrial(seed=1, widening_scale=0.5),
            InjectionTrial(seed=1, encrypted=True),
            InjectionTrial(seed=1, collect_metrics=True),
        ]
        keys = {stable_trial_key(t, "tok") for t in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_code_token_is_significant(self):
        trial = _quick_trial(5)
        assert stable_trial_key(trial, "a") != stable_trial_key(trial, "b")

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            stable_trial_key({"seed": 1})


class TestResultCache:
    def test_second_run_hits_the_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path, token="tok")
        trials = [_quick_trial(31_0000 + i) for i in range(2)]
        first = execute_trials(trials, jobs=1, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 2, 2)
        second = execute_trials(trials, jobs=1, cache=cache)
        assert cache.hits == 2
        assert second == first

    def test_edited_field_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path, token="tok")
        trial = _quick_trial(32_0000)
        execute_trials([trial], jobs=1, cache=cache)
        edited = InjectionTrial(seed=trial.seed, hop_interval=75, pdu_len=9)
        assert cache.get(edited) is None
        assert cache.misses >= 1

    def test_new_code_token_misses(self, tmp_path):
        old = ResultCache(root=tmp_path, token="old-code")
        trial = _quick_trial(33_0000)
        execute_trials([trial], jobs=1, cache=old)
        fresh = ResultCache(root=tmp_path, token="new-code")
        assert fresh.get(trial) is None

    @pytest.mark.parametrize("garbage", [
        b"not a pickle",   # -> UnpicklingError
        b"garbage\n",      # 'g' is the GET opcode -> ValueError
        b"",               # -> EOFError
    ])
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = ResultCache(root=tmp_path, token="tok")
        trial = _quick_trial(34_0000)
        cache.put(trial, "placeholder")
        path = cache._path_for(cache.key_for(trial))
        path.write_bytes(garbage)
        assert cache.get(trial) is None
        assert not path.exists()  # corrupt entries are dropped

    def test_roundtrip_preserves_results_exactly(self, tmp_path):
        cache = ResultCache(root=tmp_path, token="tok")
        trial = _quick_trial(35_0000)
        [result] = execute_trials([trial], jobs=1, cache=cache)
        assert cache.get(trial) == result
        # Belt and braces: the pickle layer must be loss-free.
        assert pickle.loads(pickle.dumps(result)) == result

    def test_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path, token="tok")
        cache.put(_quick_trial(36_0000), "x")
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_cache_true_uses_default_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        trial = _quick_trial(37_0000)
        first = execute_trials([trial], jobs=1, cache=True)
        second = execute_trials([trial], jobs=1, cache=True)
        assert first == second
        assert (tmp_path / "cachedir").exists()


class TestSourceTreeToken:
    """A source edit must flush cached trials; a lint edit must not."""

    @staticmethod
    def _fake_package(root):
        (root / "sim").mkdir(parents=True)
        (root / "lintkit").mkdir()
        (root / "analysis").mkdir()
        (root / "sim" / "medium.py").write_text("X = 1\n")
        (root / "lintkit" / "engine.py").write_text("Y = 2\n")
        (root / "analysis" / "report.py").write_text("Z = 3\n")
        (root / "cli.py").write_text("W = 4\n")
        return root

    def test_result_relevant_edit_changes_token(self, tmp_path):
        root = self._fake_package(tmp_path)
        before = source_tree_token(root)
        (root / "sim" / "medium.py").write_text("X = 99\n")
        assert source_tree_token(root) != before

    def test_lintkit_edit_keeps_token(self, tmp_path):
        root = self._fake_package(tmp_path)
        before = source_tree_token(root)
        (root / "lintkit" / "engine.py").write_text("Y = 99\n")
        (root / "analysis" / "report.py").write_text("Z = 99\n")
        (root / "cli.py").write_text("W = 99\n")
        assert source_tree_token(root) == before

    def test_new_result_relevant_file_changes_token(self, tmp_path):
        root = self._fake_package(tmp_path)
        before = source_tree_token(root)
        (root / "sim" / "extra.py").write_text("")
        assert source_tree_token(root) != before

    def test_schema_version_is_significant(self, tmp_path):
        root = self._fake_package(tmp_path)
        assert source_tree_token(root, schema_version=1) != \
            source_tree_token(root, schema_version=2)

    def test_source_edit_invalidates_cached_trial(self, tmp_path):
        """End to end: the regression the token exists to prevent."""
        root = self._fake_package(tmp_path / "pkg")
        cache_dir = tmp_path / "cache"
        trial = _quick_trial(38_0000)

        old = ResultCache(root=cache_dir, token=source_tree_token(root))
        old.put(trial, "stale-result")
        assert old.get(trial) == "stale-result"

        (root / "sim" / "medium.py").write_text("X = 99\n")
        new = ResultCache(root=cache_dir, token=source_tree_token(root))
        assert new.get(trial) is None  # stale result is never replayed
        assert new.misses == 1


class TestSeedRepeatability:
    """Two distinct seeds, each run twice: identical results both times.

    This is the determinism contract the lint pass exists to protect —
    every field of the result dataclass must match, not just the headline
    success flag.
    """

    @pytest.mark.parametrize("seed", [40_0001, 40_0002])
    def test_same_seed_same_result(self, seed):
        trial = InjectionTrial(seed=seed, hop_interval=75,
                               collect_metrics=True)
        first = run_single_trial(trial)
        second = run_single_trial(trial)
        assert first == second
        assert first.metrics == second.metrics

    def test_different_seeds_differ_somewhere(self):
        a = run_single_trial(InjectionTrial(seed=40_0001, hop_interval=75))
        b = run_single_trial(InjectionTrial(seed=40_0002, hop_interval=75))
        # Seeds must actually steer the world (guards against a seed that
        # is read but never fed into the RNG streams).
        assert a != b
