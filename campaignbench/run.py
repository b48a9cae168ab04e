"""Campaign benchmark: one workload, end to end or traced per layer.

Usage (from the root of a checkout)::

    python3 campaignbench/run.py --workload sweep-quiet --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: it runs the workload's
grid back to back through its campaign path for ``--seconds`` seconds,
times a fresh interpreter's set-up in subprocesses, and checks every
grid's report and unit results against the pinned digests (or, for a
seed without pins, against a serial in-process run of the same grid).
``--trace 1`` runs the traced passes of :mod:`layers` and reports the
per-layer metrics.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when a result was
printed, 2 when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".campaignbench"

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Longest a set-up probe may take before the run is declared failed.
SETUP_TIMEOUT_S = 60.0

MODEL_NOTE = ("model checked against the paper only for the qualitative "
              "Fig. 9 shape (EXPERIMENTS.md); no error figure is given")


def _units() -> Dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    table: Dict[str, str] = {}
    manifest = ROOT / "BENCHMARK.json"
    if manifest.exists():
        data = json.loads(manifest.read_text())
        for metric in data.get("end_to_end", []) + data.get("per_layer", []):
            table[metric["name"]] = metric["unit"]
    return table


# ----------------------------------------------------------------------
# Run header
# ----------------------------------------------------------------------

def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _lines_per_package() -> Dict[str, int]:
    """Non-blank source lines per top-level ``src/repro`` package."""
    counts: Dict[str, int] = {}
    base = SRC / "repro"
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(base).parts
        package = rel[0] if len(rel) > 1 else "(top level)"
        lines = sum(1 for line in path.read_text().splitlines()
                    if line.strip())
        counts[package] = counts.get(package, 0) + lines
    return counts


def header(workload: str, seed: int, grid_units: int) -> Dict[str, Any]:
    """Host, source and workload facts printed with every result."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "workload": workload,
        "seed": seed,
        "grid_units": grid_units,
        "src_lines": _lines_per_package(),
        "model_check": MODEL_NOTE,
    }


# ----------------------------------------------------------------------
# End-to-end
# ----------------------------------------------------------------------

def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def time_setup(workload: str, seed: int, journal: Path,
               connections: Optional[int]) -> float:
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed),
           "--journal", str(journal)]
    if connections is not None:
        cmd += ["--connections", str(connections)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, "
                           f"said {line.strip()!r})")
    return elapsed


def end_to_end(workload: Any, spec: Any, seed: int, seconds: float,
               connections: Optional[int], expected: Optional[Dict[str, str]],
               work: Path) -> Dict[str, Any]:
    """Measure the end-to-end metrics of one workload."""
    from workloads import digests, gate, run_real, run_serial

    grids = []
    start = time.perf_counter()
    while not grids or time.perf_counter() - start < seconds:
        grids.append(run_real(workload, spec,
                              work / f"campaign-{len(grids)}.jsonl"))
    rss_mb = _peak_rss_mb()

    setups = [time_setup(workload.name, seed, work / f"setup-{i}.jsonl",
                         connections)
              for i in range(SETUP_REPEATS)]
    if expected is None:
        expected = digests(run_serial(spec, work / "reference.jsonl"))

    attempted, failed = gate(grids, expected)
    rates = [len(grid.state.units) / grid.wall_s for grid in grids]
    return {
        "attempted": attempted,
        "failed": failed,
        "grid_units_per_s": [round(rate, 3) for rate in rates],
        "metrics": {
            "setup_s": statistics.median(setups),
            "units_per_s": statistics.median(rates),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": rss_mb,
        },
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run the workload, print the result."""
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import DEFAULT_SEED, WORKLOADS, make_spec, pinned

    parser = argparse.ArgumentParser(
        description="Campaign benchmark (see campaignbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--connections", type=int, default=None,
                        help="override trials per configuration (smoke "
                             "tests); pinned digests then do not apply")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    spec = make_spec(workload, args.seed, args.connections,
                     trace=bool(args.trace))
    expected = pinned(workload, args.seed, trace=bool(args.trace)) \
        if args.connections is None else None
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            from layers import traced_run

            trace_out = WORK_ROOT / "traces" / \
                f"{workload.name}-seed{args.seed}.jsonl"
            metrics, attempted, failed = traced_run(
                workload, spec, work, expected, trace_out)
            extra = {"trace_file": str(trace_out.relative_to(ROOT))}
        else:
            outcome = end_to_end(workload, spec, args.seed, args.seconds,
                                 args.connections, expected, work)
            metrics = outcome["metrics"]
            attempted, failed = outcome["attempted"], outcome["failed"]
            extra = {"grid_units_per_s": outcome["grid_units_per_s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from repro.campaign.engine import expand_units

    info = header(workload.name, args.seed, len(expand_units(spec)))
    info.update(extra)
    info["digest_gate"] = "pinned" if expected is not None else "serial"
    for key, value in info.items():
        print(f"# {key}: {value}")
    units = _units()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units.get(name, '')}".rstrip())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
