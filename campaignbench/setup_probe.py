"""Set-up probe: bring one workload to the point where units can run.

Started in a fresh interpreter by ``run.py``, which times it from outside
until this script prints ``ready``.  The probe imports the campaign stack
(which registers every experiment), expands the workload's grid and
creates its journal; for the service path it also binds a coordinator,
starts the two managed socket workers and waits until each has said
hello and asked for its first lease.  That lease is answered ``drained``,
so the workers exit cleanly without running a unit, and the probe waits
for them before it exits.

Usage: ``python3 setup_probe.py --workload NAME --seed N --journal PATH``
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Set

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def _ready() -> None:
    print("ready", flush=True)


async def _serve_until_ready(coordinator: Any, workers: int) -> None:
    from repro.campaign.service import ServiceServer, spawn_worker

    server = ServiceServer(coordinator, host="127.0.0.1", port=0)
    await server.start()
    loop = asyncio.get_running_loop()
    fleet = []
    try:
        fleet = [spawn_worker("127.0.0.1", server.port, f"probe-{i}",
                              close_fds=server.listen_fds)
                 for i in range(workers)]
        for process in fleet:
            await loop.run_in_executor(None, process.join, 60.0)
    finally:
        for process in fleet:
            if process.exitcode is None:
                process.terminate()
                await loop.run_in_executor(None, process.join, 5.0)
        await server.stop()
        coordinator.close()


def main(argv: Optional[list] = None) -> int:
    """Parse arguments, set the workload up, print ``ready``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--journal", type=Path, required=True)
    parser.add_argument("--connections", type=int, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    from workloads import JOBS, WORKLOADS, make_spec

    from repro.campaign.engine import expand_units, open_journal

    workload = WORKLOADS[args.workload]
    spec = make_spec(workload, args.seed, args.connections)
    expand_units(spec)
    if workload.path == "campaign":
        writer, _, _ = open_journal(spec, args.journal)
        writer.close()
        _ready()
        return 0

    from repro.campaign.service import Coordinator

    class FirstLeaseDrains(Coordinator):
        """Reports ready once every worker asks for work, then drains it."""

        def __init__(self) -> None:
            super().__init__()
            self.asked: Set[str] = set()

        def handle_lease(self, worker: str,
                         fingerprint: Optional[str]) -> Dict[str, Any]:
            if worker not in self.asked:
                self.asked.add(worker)
                if len(self.asked) == JOBS:
                    _ready()
            return {"op": "drained"}

    coordinator = FirstLeaseDrains()
    coordinator.submit(spec, args.journal)
    asyncio.run(_serve_until_ready(coordinator, JOBS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
