"""Trial execution on one supervised worker pool, and result caching.

The experiment harness (``repro.experiments``) builds every paper artefact
out of independent, seed-deterministic simulation units.  This package
executes those units:

* :class:`WorkerPool` — at most ``jobs`` warm worker processes, each
  forked once and fed one unit at a time, with per-unit deadlines,
  crash/timeout respawn, bounded retry and quarantine; outcomes come back
  in item order.  :func:`run_units` runs one batch on a pool of its own;
* :func:`execute_trials` — ``InjectionTrial`` batches on that pool, with
  an optional on-disk result cache;
* :class:`ResultCache` — trial-keyed, code-version-aware pickle store.

Parallelism is opt-in everywhere: ``jobs=None`` honours ``$REPRO_JOBS``
and defaults to one worker, with results identical at any ``jobs``.
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    code_version_token,
    default_cache_dir,
    source_tree_token,
    stable_trial_key,
)
from repro.runner.executor import (
    JOBS_ENV,
    UnitOutcome,
    WorkerPool,
    execute_trials,
    merge_trial_metrics,
    resolve_jobs,
    run_units,
)

__all__ = [
    "CACHE_DIR_ENV",
    "JOBS_ENV",
    "ResultCache",
    "UnitOutcome",
    "WorkerPool",
    "code_version_token",
    "default_cache_dir",
    "execute_trials",
    "merge_trial_metrics",
    "resolve_jobs",
    "run_units",
    "source_tree_token",
    "stable_trial_key",
]
