"""One supervised pool of warm worker processes for independent units.

Every paper artefact is rebuilt from *embarrassingly parallel* units —
seed-deterministic trials (or whole scenario worlds) that share no state.
:class:`WorkerPool` runs them on at most ``jobs`` worker processes, each
forked once and then looping: receive a unit, run it, send the outcome.
The parent supervises every unit under one failure taxonomy:

* **per-unit timeout** — a unit that exceeds ``timeout_s`` wall-clock
  seconds has its worker terminated (and later respawned) and is
  classified ``timeout``;
* **crash isolation** — a worker that dies without reporting (hard exit,
  signal, OOM-kill) is classified ``crash``; the parent and every other
  in-flight unit are unaffected;
* **bounded retry with exponential backoff** — ``timeout``/``crash``
  attempts are re-queued up to ``max_retries`` times, waiting
  ``backoff_s * 2**(tries-1)`` seconds between attempts; a unit that
  keeps killing its worker is then *quarantined*: recorded as failed,
  not re-queued forever.  Clean exceptions are deterministic here and
  are classified ``error`` without a retry;
* **deterministic ordering** — outcomes are returned in item order;
  ``on_outcome`` (the campaign journal hook) fires as units finalise,
  in completion order.

Where child processes cannot be created at all, units run in-process
(no preemptive timeout, no crash survival).

``execute_trials`` layers the on-disk :class:`~repro.runner.cache.ResultCache`
on top: cached trials never reach the pool, and fresh results are persisted
as they arrive.  Wall-clock reads here are watchdog plumbing only — they
schedule work, they never feed trial bytes, which is why this module is
exempt from the ``nondeterministic-call`` lint.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.sim.fastforward import credit_fast_forward_count, events_fast_forwarded

#: Environment variable giving the default worker count for the runner.
JOBS_ENV = "REPRO_JOBS"

#: Failure kinds that are re-queued (bounded by ``max_retries``); a clean
#: exception is deterministic in this codebase and therefore never retried.
RETRYABLE_STATUSES = ("timeout", "crash")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a ``jobs`` request to a positive worker count.

    ``None`` reads ``$REPRO_JOBS`` (default 1 — one worker, so library
    users get no parallelism unless they ask).  ``0`` or negative means
    "all cores".
    """
    if jobs is None:
        try:
            jobs = int(os.environ.get(JOBS_ENV, "1"))
        except ValueError:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


@dataclass
class UnitOutcome:
    """Final fate of one work unit under :class:`WorkerPool`.

    Attributes:
        index: position of the unit in the submitted sequence.
        status: ``"ok"`` | ``"timeout"`` | ``"crash"`` | ``"error"``.
            ``timeout`` — the worker exceeded its wall-clock deadline and
            was terminated; ``crash`` — the worker died without reporting
            (segfault, ``os._exit``, OOM-kill); ``error`` — the unit raised
            a clean exception (deterministic, hence never retried).
        result: the unit's return value when ``status == "ok"``.
        detail: human-readable failure description (exception text, exit
            code, deadline) for non-ok statuses.
        retries: failed attempts consumed before this outcome (0 on a
            first-try success; ``max_retries`` on a quarantined unit).
    """

    index: int
    status: str
    result: Any = None
    detail: str = ""
    retries: int = 0

    @property
    def ok(self) -> bool:
        """Whether the unit completed and ``result`` is valid."""
        return self.status == "ok"

    def unwrap(self) -> Any:
        """The unit's result; a failed unit raises :class:`ReproError`
        carrying its failure taxonomy and detail."""
        if not self.ok:
            raise ReproError(f"unit {self.index} {self.status}: {self.detail}")
        return self.result


@dataclass
class _Attempt:
    """Scheduler bookkeeping for one unit: failures so far, retry gate."""

    index: int
    tries: int = 0          # failed attempts so far
    not_before: float = 0.0  # monotonic gate for backoff re-queueing


@dataclass
class _Worker:
    """One warm child: its process, the parent's end of its pipe, and the
    attempt it is running (``None`` while idle)."""

    process: Any
    conn: Any
    attempt: Optional[_Attempt] = None
    deadline: Optional[float] = None


def _worker_main(fn: Callable[[Any], Any], conn: Any,
                 inherited: Sequence[Any]) -> None:
    """Warm-worker loop: receive a unit, run it, send the outcome, repeat.

    The fork left this child a copy of every parent-side pipe end of the
    pool; closing them lets it see EOF, and exit, once the parent is gone
    (even SIGKILLed).  Ctrl-C is left to the parent, which tears the pool
    down.  ``gc.freeze`` keeps the collector off pages shared with the
    parent; collecting after each unit frees the reference cycles of the
    finished world, which a child that ran one unit dropped by exiting.
    Whatever a unit raises, and a result that cannot be pickled, is sent
    back as an ``error``.  Each payload carries the unit's share of the
    fast-forward event counter, which the parent adds to its own.
    """
    for end in inherited:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gc.freeze()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return  # the pool closed, or its parent is gone
        before = events_fast_forwarded()
        try:
            status, result, detail = "ok", fn(item), ""
        except BaseException as exc:  # noqa: BLE001 - the whole point is capture
            status, result, detail = ("error", None,
                                      f"{type(exc).__name__}: {exc}")
        fast_forwarded = events_fast_forwarded() - before
        try:
            conn.send((status, result, detail, fast_forwarded))
        except OSError:
            return
        except Exception:
            conn.send(("error", None,
                       "result could not be pickled back to the parent",
                       fast_forwarded))
        del result
        gc.collect()


class WorkerPool:
    """At most ``jobs`` warm workers running ``fn`` under supervision.

    Workers are forked on demand and kept between :meth:`run` calls, so a
    long-lived caller (the campaign service worker) pays for the fork once
    per session instead of once per unit.  ``fn`` is inherited through
    the fork, never pickled; items and results cross a pipe.  Use as a
    context manager, or call :meth:`close`.
    """

    def __init__(self, fn: Callable[[Any], Any],
                 jobs: Optional[int] = None) -> None:
        self.fn = fn
        self.jobs = resolve_jobs(jobs)
        self._workers: List[_Worker] = []
        self._forkless = False

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Terminate every worker."""
        for worker in list(self._workers):
            self._discard(worker)

    def _spawn(self) -> Optional[_Worker]:
        """Fork one more warm worker; ``None`` where that fails: for good
        without fork, for this dispatch round only on an OSError."""
        if self._forkless:
            return None
        try:
            ctx = multiprocessing.get_context("fork")
            parent_conn, child_conn = ctx.Pipe()
        except (ImportError, NotImplementedError, ValueError):
            self._forkless = True
            return None
        except OSError:
            return None
        inherited = [w.conn for w in self._workers] + [parent_conn]
        process = ctx.Process(target=_worker_main,
                              args=(self.fn, child_conn, inherited),
                              daemon=True)
        try:
            process.start()
        except OSError:
            parent_conn.close()
            child_conn.close()
            return None
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers.append(worker)
        return worker

    def _discard(self, worker: _Worker) -> None:
        """Terminate one worker and forget it."""
        self._workers.remove(worker)
        worker.attempt = None
        worker.conn.close()
        worker.process.terminate()
        worker.process.join(1)
        if worker.process.is_alive():  # pragma: no cover - SIGTERM ignored
            worker.process.kill()
            worker.process.join(1)

    def run(
        self,
        items: Sequence[Any],
        *,
        timeout_s: Optional[float] = None,
        max_retries: int = 0,
        backoff_s: float = 0.25,
        on_outcome: Optional[Callable[[UnitOutcome], None]] = None,
    ) -> List[UnitOutcome]:
        """Run ``fn`` over ``items``; never hang, never die.

        Returns one :class:`UnitOutcome` per item, in item order, under
        the taxonomy described in this module's docstring.
        """
        items = list(items)
        outcomes: List[Optional[UnitOutcome]] = [None] * len(items)
        queue = deque(_Attempt(i) for i in range(len(items)))
        waiting: List[_Attempt] = []  # retries backing off

        def finalize(outcome: UnitOutcome) -> None:
            outcomes[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        def retire(attempt: _Attempt, status: str, detail: str) -> None:
            """Classify one failed attempt: re-queue with backoff or
            finalize."""
            attempt.tries += 1
            if status in RETRYABLE_STATUSES and attempt.tries <= max_retries:
                attempt.not_before = (
                    time.monotonic() + backoff_s * (2 ** (attempt.tries - 1)))
                waiting.append(attempt)
            else:
                finalize(UnitOutcome(attempt.index, status, detail=detail,
                                     retries=attempt.tries - 1))

        def crash(worker: _Worker, attempt: _Attempt) -> None:
            self._discard(worker)
            retire(attempt, "crash",
                   f"worker died without reporting "
                   f"(exit code {worker.process.exitcode})")

        def settle(worker: _Worker) -> None:
            """Collect the payload (or death) of one busy worker."""
            attempt = worker.attempt
            assert attempt is not None
            try:
                status, result, detail, fast_forwarded = worker.conn.recv()
            except (EOFError, OSError):
                crash(worker, attempt)
                return
            worker.attempt = None
            credit_fast_forward_count(fast_forwarded)
            if status == "ok":
                finalize(UnitOutcome(attempt.index, "ok", result=result,
                                     retries=attempt.tries))
            else:
                retire(attempt, status, detail)

        from multiprocessing.connection import wait as conn_wait

        try:
            while True:
                now = time.monotonic()
                for attempt in [a for a in waiting if a.not_before <= now]:
                    waiting.remove(attempt)
                    queue.append(attempt)
                # Dispatch queued attempts to idle (or new) workers.
                while queue:
                    worker = next((w for w in self._workers
                                   if w.attempt is None), None)
                    if worker is None and len(self._workers) < self.jobs:
                        worker = self._spawn()
                    if worker is None:
                        break
                    attempt = worker.attempt = queue.popleft()
                    worker.deadline = (None if timeout_s is None
                                       else now + timeout_s)
                    try:
                        worker.conn.send(items[attempt.index])
                    except OSError:  # the worker died while idle
                        crash(worker, attempt)
                busy = [w for w in self._workers if w.attempt is not None]
                if not busy:
                    if queue or not waiting:
                        break  # done, or no child processes: run in-process
                    # Everything pending is backing off: sleep to the gate.
                    gate = min(a.not_before for a in waiting)
                    time.sleep(max(0.0, min(gate - time.monotonic(), 1.0)))
                    continue
                # Wake on the first completion, expired deadline or gate.
                horizon = [w.deadline for w in busy if w.deadline is not None]
                horizon.extend(a.not_before for a in waiting)
                wait_s = 0.5
                if horizon:
                    wait_s = max(0.01,
                                 min(min(horizon) - time.monotonic(), 0.5))
                ready = conn_wait([w.conn for w in busy], timeout=wait_s)
                for worker in busy:
                    if worker.conn in ready:
                        settle(worker)
                now = time.monotonic()
                for worker in busy:
                    if (worker.attempt is None or worker.deadline is None
                            or worker.deadline >= now):
                        continue
                    if worker.conn.poll():  # finished as the deadline expired
                        settle(worker)
                        continue
                    attempt = worker.attempt
                    self._discard(worker)
                    retire(attempt, "timeout",
                           f"exceeded the {timeout_s} s per-unit deadline "
                           f"and was terminated")
        finally:
            # Leave no worker mid-unit behind an interrupted run.
            for worker in [w for w in self._workers if w.attempt is not None]:
                self._discard(worker)
        # No child processes here: run what is left in-process, which can
        # survive neither a hang nor a hard exit — acceptable in sandboxes
        # without fork, which cannot host such runaway native code either.
        for attempt in [*queue, *waiting]:
            try:
                outcome = UnitOutcome(attempt.index, "ok",
                                      result=self.fn(items[attempt.index]))
            except Exception as exc:
                outcome = UnitOutcome(attempt.index, "error",
                                      detail=f"{type(exc).__name__}: {exc}")
            outcome.retries = attempt.tries
            finalize(outcome)
        return [outcome for outcome in outcomes if outcome is not None]


def run_units(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    *,
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
    backoff_s: float = 0.25,
    on_outcome: Optional[Callable[[UnitOutcome], None]] = None,
) -> List[UnitOutcome]:
    """Run ``fn`` over ``items`` on a :class:`WorkerPool` of its own.

    See :meth:`WorkerPool.run`; the pool is closed before returning.
    """
    with WorkerPool(fn, jobs) as pool:
        return pool.run(items, timeout_s=timeout_s, max_retries=max_retries,
                        backoff_s=backoff_s, on_outcome=on_outcome)


def merge_trial_metrics(results: Sequence[Any]) -> dict:
    """Aggregate per-trial telemetry snapshots into one campaign snapshot.

    Each :class:`TrialResult` produced with ``collect_metrics=True`` carries
    its world's :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`
    as a plain dict, so snapshots survive the pickle hop back from worker
    processes unchanged.  Merging is pure data-plane arithmetic (counters
    sum, gauges max, histograms add bucket-wise) and results arrive in
    deterministic trial order, so the aggregate is identical for any
    ``jobs`` value.

    Results without metrics (``collect_metrics=False``, failed worlds) are
    skipped; an empty snapshot is returned when none carry any.
    """
    from repro.telemetry.metrics import merge_snapshots

    return merge_snapshots(
        getattr(result, "metrics", None) for result in results
    )


def _run_one_trial(trial: Any) -> Any:
    """The default runner: one :class:`InjectionTrial`."""
    from repro.experiments.common import run_single_trial

    return run_single_trial(trial)


def _failure_result(outcome: UnitOutcome) -> Any:
    """A ``TrialResult`` placeholder recording why a trial never finished."""
    from repro.experiments.common import TrialResult

    detail = outcome.status
    if outcome.detail:
        detail = f"{outcome.status}: {outcome.detail}"
    return TrialResult(success=False, attempts=0, failure=detail)


def execute_trials(
    trials: Sequence[Any],
    jobs: Optional[int] = None,
    cache: Union[None, bool, "ResultCache"] = None,
    *,
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
    backoff_s: float = 0.25,
    runner: Optional[Callable[[Any], Any]] = None,
    on_result: Optional[Callable[[int, Any, Any, Optional[UnitOutcome],
                                  bool], None]] = None,
) -> list:
    """Run a batch of :class:`InjectionTrial` configs on a :class:`WorkerPool`.

    Args:
        trials: trial configs, one independent simulated world each.
        jobs: worker processes (``None`` → ``$REPRO_JOBS`` → 1; ``<=0`` →
            all cores).
        cache: ``None``/``False`` disables caching; ``True`` uses the
            default on-disk :class:`ResultCache`; an instance is used as
            given.
        timeout_s: per-trial wall-clock deadline: a hung trial is
            terminated and recorded as a failure *result* while every
            completed trial keeps its full result — including its
            telemetry snapshot — instead of the whole panel stalling.
        max_retries: bounded re-queueing of timed-out/crashed trials
            (exponential backoff, ``backoff_s`` base); a trial that keeps
            killing its worker is quarantined as failed.
        backoff_s: base delay between retry attempts.
        runner: the single-item callable (defaults to running an
            ``InjectionTrial``); campaign units supply a dispatcher.
        on_result: streaming hook ``(index, trial, result, outcome,
            cached)`` fired as each slot resolves — cache hits immediately
            (``outcome=None, cached=True``), fresh results in completion
            order.

    Returns:
        ``TrialResult`` objects in trial order — bit-identical to serial
        execution for the same trial list.  A slot whose trial ultimately
        failed holds a placeholder result with :attr:`TrialResult.failure`
        set to the failure taxonomy (``timeout`` / ``crash`` / ``error``)
        instead of raising.
    """
    trials = list(trials)
    if cache is True:
        from repro.runner.cache import ResultCache

        cache = ResultCache()
    elif cache is False:
        cache = None
    run_fn = runner if runner is not None else _run_one_trial

    results: list = [None] * len(trials)
    missing: list[int] = []
    for i, trial in enumerate(trials):
        hit = cache.get(trial) if cache is not None else None
        if hit is None:
            missing.append(i)
            continue
        results[i] = hit
        if on_result is not None:
            on_result(i, trial, hit, None, True)

    def settle(outcome: UnitOutcome) -> None:
        slot = missing[outcome.index]
        result = outcome.result if outcome.ok else _failure_result(outcome)
        results[slot] = result
        if outcome.ok and cache is not None:
            cache.put(trials[slot], result)
        if on_result is not None:
            on_result(slot, trials[slot], result, outcome, False)

    if missing:
        run_units(run_fn, [trials[i] for i in missing], jobs=jobs,
                  timeout_s=timeout_s, max_retries=max_retries,
                  backoff_s=backoff_s, on_outcome=settle)
    return results
