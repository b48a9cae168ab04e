"""Record the digest gate's pinned values in ``digests.json``.

Runs each workload's grid serially in process (the same drive the
benchmark uses as its reference), and its traced run's grid where that
is smaller (under ``<workload>:trace``), for every requested seed.  It
stores the SHA-256 of the rendered report and of the per-unit results.
Re-run it only when a change is *meant* to alter what a campaign
computes, and say so in the change.

Usage (from the root of a checkout)::

    python3 campaignbench/pin_digests.py [--workload NAME ...] SEED ...
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from workloads import PINS_FILE, WORKLOADS, digests, make_spec, run_serial  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    """Compute and merge the pins for the requested workloads and seeds."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)

    table = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}
    work = ROOT / ".campaignbench" / "pins"
    grids = [(WORKLOADS[name], trace)
             for name in args.workload or sorted(WORKLOADS)
             for trace in (False, True)
             if not trace or WORKLOADS[name].trace_connections is not None]
    for workload, trace in grids:
        key = workload.pin_key(trace)
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            grid = run_serial(make_spec(workload, seed, trace=trace),
                              work / "journal.jsonl")
            if grid.state.ok_count != len(grid.state.units):
                raise SystemExit(f"{key} seed {seed}: not every unit ran "
                                 f"ok; refusing to pin")
            table.setdefault(key, {})[str(seed)] = digests(grid)
            print(f"{key} seed {seed}: pinned", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    PINS_FILE.write_text(json.dumps(
        {name: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
         for name, seeds in sorted(table.items())}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
