"""The benchmark's workloads and the campaign paths they run through.

A workload is a campaign spec generated from the benchmark's seed plus
the path its grid takes: ``campaign`` (:func:`repro.campaign.run_campaign`
at ``jobs=2`` with a journal) or ``service`` (:func:`serve_campaign` with
two managed socket workers).  The program under test only ever sees the
generated spec.

Everything here imports :mod:`repro` lazily, after ``run.py`` has put
the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Worker processes for the parallel paths; the reference host has
#: ``nproc`` = 2, and jobs/workers never exceed it.
JOBS = 2

#: The seed the benchmark's numbers are quoted at.
DEFAULT_SEED = 1

#: A second seed, not used while tuning, on which a later change confirms
#: its claim.
HELDOUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: the ``--workload`` value.
        path: ``"campaign"`` or ``"service"``.
        connections: trials per configuration (the grid size knob).
        axes: campaign axes, as in a JSON campaign spec.
        trace_connections: trials per configuration of the traced run,
            when it must be smaller than the timed grid to end in time
            (``None``: the timed grid).

    Why each workload exists is recorded in ``BENCHMARK.json`` and the
    README's workload table.
    """

    name: str
    path: str
    connections: int
    axes: Tuple[Dict[str, Any], ...]
    trace_connections: Optional[int] = None

    def grid_connections(self, trace: bool) -> int:
        """Trials per configuration of the timed or the traced grid."""
        if trace and self.trace_connections is not None:
            return self.trace_connections
        return self.connections

    def pin_key(self, trace: bool) -> str:
        """The ``digests.json`` entry holding this grid's pins."""
        if trace and self.trace_connections is not None:
            return f"{self.name}:trace"
        return self.name


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "sweep-quiet", "campaign", 12,
        ({"experiment": "hop"}, {"experiment": "payload"})),
    Workload(
        "dense-occupancy", "campaign", 8,
        ({"experiment": "occupancy"},), trace_connections=3),
    Workload(
        "defense-service", "service", 2,
        ({"experiment": "defense"},)),
)}


def make_spec(workload: Workload, seed: int,
              connections: Optional[int] = None,
              trace: bool = False) -> Any:
    """Validated :class:`~repro.campaign.CampaignSpec` for a run (the
    traced run's grid when ``trace``)."""
    from repro.campaign.spec import CampaignSpec

    return CampaignSpec.from_dict({
        "name": workload.name,
        "seed": seed,
        "connections": (workload.grid_connections(trace)
                        if connections is None else connections),
        "timeout_s": 120,
        "max_retries": 2,
        "axes": [dict(axis) for axis in workload.axes],
    })


# ----------------------------------------------------------------------
# Running a grid
# ----------------------------------------------------------------------

@dataclass
class GridRun:
    """One executed grid: wall time, rendered report and journal state."""

    wall_s: float
    state: Any
    report: str
    unit_host_s: List[float]


def run_real(workload: Workload, spec: Any, journal: Path,
             path: Optional[str] = None) -> GridRun:
    """Run the grid through the workload's path (or through ``path``).

    Timed from the call into the dispatching layer until the report is
    built from the journal, as a user of ``repro campaign run`` /
    ``repro serve`` followed by ``campaign report`` waits for it.
    """
    from repro.campaign.engine import run_campaign
    from repro.campaign.service import serve_campaign

    start = time.perf_counter()
    if (path or workload.path) == "campaign":
        run_campaign(spec, journal, jobs=JOBS)
    else:
        serve_campaign(spec, journal, workers=JOBS)
    grid = load_grid(journal)
    grid.wall_s = time.perf_counter() - start
    return grid


def load_grid(journal: Path) -> GridRun:
    """Read a journal back and render its report (``load_state`` +
    ``build_report``, as ``repro campaign report`` does)."""
    from repro.campaign.engine import load_state
    from repro.campaign.report import build_report

    state = load_state(journal)
    return GridRun(0.0, state, build_report(state), [])


def run_serial(spec: Any, journal: Path,
               around_unit: Optional[Callable[[Any, Callable[[], Any]],
                                              Any]] = None,
               around_report: Optional[Callable[[Callable[[], Any]],
                                                Any]] = None) -> GridRun:
    """Run the grid serially in this process through the worker protocol.

    The benchmark acts as a single service worker talking to an
    in-process :class:`~repro.campaign.service.Coordinator`: hello, then
    lease → run → result per unit, so records reach the journal through
    the same ``unit_record`` / ``handle_message`` / ``JournalWriter``
    path a socket worker's do.  ``around_unit(unit, call)`` and
    ``around_report(call)`` let the traced pass open spans around the
    trial and the report build.
    """
    from repro.campaign.engine import expand_units, unit_record, units_by_id
    from repro.campaign.registry import run_unit_trial
    from repro.campaign.service import Coordinator
    from repro.campaign.service.coordinator import unit_record_payload

    start = time.perf_counter()
    units = units_by_id(expand_units(spec))
    coordinator = Coordinator()
    coordinator.submit(spec, journal)
    host: List[float] = []
    worker = "bench-serial"
    try:
        welcome = coordinator.handle_message({"op": "hello",
                                              "worker": worker})
        fingerprint = welcome["fingerprint"]
        while True:
            reply = coordinator.handle_message({
                "op": "lease", "worker": worker,
                "fingerprint": fingerprint})
            if reply["op"] == "drained":
                break
            if reply["op"] != "unit":
                raise RuntimeError(f"unexpected lease reply {reply!r}")
            unit = units[reply["unit_id"]]
            call = lambda unit=unit: run_unit_trial(unit.trial)  # noqa: E731
            t0 = time.perf_counter()
            result = call() if around_unit is None else around_unit(unit,
                                                                    call)
            host.append(time.perf_counter() - t0)
            record = unit_record(unit, result, None, cached=False)
            coordinator.handle_message({
                "op": "result", "worker": worker,
                "fingerprint": fingerprint,
                "record": unit_record_payload(record)})
    finally:
        coordinator.close()

    grid = load_grid(journal) if around_report is None \
        else around_report(lambda: load_grid(journal))
    grid.wall_s = time.perf_counter() - start
    grid.unit_host_s = host
    return grid


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

def digests(run: GridRun) -> Dict[str, str]:
    """SHA-256 of the rendered report and of the per-unit results.

    The unit digest covers every grid unit in id order: its status, its
    result payload (which, for defense units, carries each detector's
    verdict-stream digest) and its failure kind.
    """
    rows = []
    for unit in sorted(run.state.units, key=lambda u: u.unit_id):
        record = run.state.records.get(unit.unit_id)
        if record is None:
            rows.append([unit.unit_id, "missing", None, None])
            continue
        rows.append([unit.unit_id, record.status, record.result,
                     (record.failure or {}).get("kind")])
    units_text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return {
        "report_sha256": hashlib.sha256(run.report.encode()).hexdigest(),
        "units_sha256": hashlib.sha256(units_text.encode()).hexdigest(),
    }


def gate(grids: List[GridRun], expected: Dict[str, str]) -> Tuple[int, int]:
    """Check every grid against ``expected`` digests.

    Returns ``(attempted, failed)`` unit counts: a grid whose digests
    differ counts all its units as failed; otherwise its non-``ok``
    units count.
    """
    attempted = failed = 0
    for grid in grids:
        units = len(grid.state.units)
        attempted += units
        if digests(grid) != expected:
            failed += units
        else:
            failed += units - grid.state.ok_count
    return attempted, failed


PINS_FILE = Path(__file__).resolve().parent / "digests.json"


def pinned(workload: Workload, seed: int,
           trace: bool = False) -> Optional[Dict[str, str]]:
    """The pinned digests for ``(workload, seed)`` at the workload's own
    timed (or traced) grid size, if recorded."""
    if not PINS_FILE.exists():
        return None
    table = json.loads(PINS_FILE.read_text())
    return table.get(workload.pin_key(trace), {}).get(str(seed))
