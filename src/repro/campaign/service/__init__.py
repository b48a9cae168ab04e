"""Distributed campaign serving: coordinator, workers, HTTP API.

The package turns ``repro campaign run``'s single-process engine into a
coordinator/worker service without changing what lands on disk:

* :mod:`~repro.campaign.service.queue` — pure work-stealing lease
  queue (deadlines, expiry re-queue, bounded stealing);
* :mod:`~repro.campaign.service.coordinator` — campaign lifecycle,
  single-writer journal merge with first-wins dedup, telemetry, and
  the status event stream;
* :mod:`~repro.campaign.service.server` — one asyncio TCP port
  speaking both the worker JSON-lines protocol and the HTTP API;
* :mod:`~repro.campaign.service.worker` — the socket worker loop,
  running every leased unit on one single-slot
  :class:`repro.runner.WorkerPool` kept for its whole session;
* :mod:`~repro.campaign.service.client` — stdlib HTTP client for
  ``repro campaign submit/status/report --url``.

:func:`serve_campaign` wires them together for the common case: serve
one campaign on a local port with a managed worker fleet, block until
it drains, and return the final state.  Because results flow through
the same journal writer and record constructor as the serial engine,
the report of a served campaign is byte-identical to a serial run —
including after worker SIGKILLs and coordinator restarts.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, Callable, List, Optional, Union

from repro.campaign.engine import CampaignState, load_state
from repro.campaign.service.client import (
    fetch_metrics,
    fetch_report,
    fetch_status,
    follow_status,
    parse_url,
    submit_campaign,
)
from repro.campaign.service.coordinator import ActiveCampaign, Coordinator
from repro.campaign.service.queue import Completion, Lease, LeaseGrant, LeaseQueue
from repro.campaign.service.server import ServiceServer
from repro.campaign.service.worker import (
    WorkerChannel,
    parse_endpoint,
    run_worker,
    spawn_worker,
)
from repro.campaign.spec import CampaignSpec
from repro.errors import ServiceError

__all__ = [
    "ActiveCampaign",
    "Completion",
    "Coordinator",
    "Lease",
    "LeaseGrant",
    "LeaseQueue",
    "ServiceServer",
    "WorkerChannel",
    "fetch_metrics",
    "fetch_report",
    "fetch_status",
    "follow_status",
    "parse_endpoint",
    "parse_url",
    "run_worker",
    "serve_campaign",
    "spawn_worker",
    "submit_campaign",
]

#: How often the serve loop checks its managed workers for liveness.
_WATCHDOG_PERIOD_S = 0.25


async def _serve_async(coordinator: Coordinator,
                       workers: int,
                       host: str,
                       port: int,
                       keep_alive: bool,
                       on_event: Optional[Callable[[dict], None]],
                       on_listening: Optional[Callable[[int], None]],
                       ) -> CampaignState:
    """The event-loop body of :func:`serve_campaign`.

    The campaign is already submitted to ``coordinator`` — spec loading
    and journal replay are synchronous file I/O and happen in
    :func:`serve_campaign` *before* the event loop exists, so the server
    never serves connections while blocked on disk.
    """
    server = ServiceServer(coordinator, host=host, port=port)
    await server.start()
    fleet: List[Any] = []
    try:
        if on_listening is not None:
            on_listening(server.port)
        done = asyncio.Event()
        coordinator.add_completion_callback(done.set)
        events: "asyncio.Queue[dict]" = asyncio.Queue()
        if on_event is not None:
            coordinator.subscribe(events)
        fleet = [spawn_worker(host, server.port, f"local-{i}",
                              close_fds=server.listen_fds)
                 for i in range(workers)]
        while not done.is_set() or keep_alive:
            try:
                await asyncio.wait_for(done.wait(),
                                       timeout=_WATCHDOG_PERIOD_S)
            except asyncio.TimeoutError:
                pass
            while on_event is not None and not events.empty():
                on_event(events.get_nowait())
            if (fleet and not done.is_set()
                    and all(p.exitcode is not None for p in fleet)):
                raise ServiceError(
                    "every managed worker exited before the campaign "
                    "drained — nothing can make progress")
        while on_event is not None and not events.empty():
            on_event(events.get_nowait())
        campaign = coordinator.campaign
        assert campaign is not None
        return campaign.state
    finally:
        # Join through the executor: a blocking join would freeze the
        # event loop, and workers still waiting for their final
        # lease -> drained reply would hang until the timeout.
        loop = asyncio.get_running_loop()
        for process in fleet:
            await loop.run_in_executor(None, process.join, 5.0)
            if process.exitcode is None:
                process.terminate()
                await loop.run_in_executor(None, process.join, 5.0)
        await server.stop()
        coordinator.close()


def serve_campaign(spec: Optional[CampaignSpec],
                   journal_path: Union[str, Path],
                   workers: int = 2,
                   host: str = "127.0.0.1",
                   port: int = 0,
                   lease_timeout_s: float = 60.0,
                   steal_after_s: float = 2.0,
                   fsync: bool = False,
                   keep_alive: bool = False,
                   on_event: Optional[Callable[[dict], None]] = None,
                   on_listening: Optional[Callable[[int], None]] = None,
                   ) -> CampaignState:
    """Serve one campaign until it drains; return the final state.

    Starts a coordinator on ``host:port`` (0 = ephemeral; learn the
    bound port via ``on_listening``), submits ``spec`` — or, when
    ``spec`` is ``None``, resumes the campaign recorded in an existing
    ``journal_path`` — spawns ``workers`` managed local worker
    processes, and blocks until every unit has a journal record.
    External ``repro campaign worker --connect`` processes may join
    (and steal work from) the managed fleet at any time; with
    ``workers=0`` the service relies on them entirely.

    ``on_event`` receives the coordinator's status/unit/done events in
    order (e.g. to drive a progress line); ``keep_alive`` keeps serving
    after the campaign drains (for submit-over-HTTP workflows).

    Raises :class:`ServiceError` when every *managed* worker has died
    while units remain — external workers keep a partially-dead fleet
    making progress, so losing some of N is fine; losing all of them
    with no external help would hang forever.
    """
    coordinator = Coordinator(lease_timeout_s=lease_timeout_s,
                              steal_after_s=steal_after_s, fsync=fsync)
    # Load and submit synchronously, before the event loop exists:
    # journal replay reads the whole file, and doing it inside the loop
    # would stall every early worker connection (and trip the
    # blocking-in-async lint, which is how this placement is enforced).
    if spec is None:
        spec = load_state(journal_path).spec
    coordinator.submit(spec, journal_path)
    return asyncio.run(_serve_async(
        coordinator, workers, host, port, keep_alive, on_event,
        on_listening))
