"""The campaign worker: lease, execute, report, repeat.

A worker is a plain blocking-socket client of the coordinator's worker
channel (newline-delimited JSON over TCP).  It learns the campaign spec
from the ``welcome`` reply, re-expands the unit grid deterministically
on its own side — only unit ids ever cross the wire — and executes each
leased unit on a single-slot :class:`repro.runner.WorkerPool` held for
the worker's whole life, so the timeout/retry/quarantine taxonomy of
``repro campaign run`` applies per-unit here too, and the unit process
is forked once, not per lease.  Records are built by the same
:func:`repro.campaign.engine.unit_record` the serial engine uses, which
is what makes the merged journal byte-identical to a serial run.

Workers survive coordinator restarts: a dropped connection triggers
bounded reconnect attempts (``reconnect_s`` budget), and a fingerprint
mismatch after reconnect simply re-runs the hello handshake against the
resumed campaign.  Because the transport is a socket from day one,
pointing a worker at another host is a command-line change, not a code
change.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.campaign.engine import TrialUnit, expand_units, unit_record, units_by_id
from repro.campaign.registry import run_unit_trial
from repro.campaign.service.coordinator import unit_record_payload
from repro.campaign.spec import CampaignSpec
from repro.errors import ServiceError
from repro.runner import WorkerPool

#: Default reconnect budget: how long a worker keeps retrying a dead
#: coordinator before giving up (covers a restart-and-resume window).
DEFAULT_RECONNECT_S = 30.0

#: Pause between reconnect attempts.
RECONNECT_BACKOFF_S = 0.25


class WorkerChannel:
    """One JSON-lines request/response connection to the coordinator."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._fh = sock.makefile("rwb")

    @classmethod
    def connect(cls, host: str, port: int,
                timeout_s: float = 10.0) -> "WorkerChannel":
        """Open a TCP connection to ``host:port``."""
        sock = socket.create_connection((host, port), timeout=timeout_s)
        sock.settimeout(None)  # exchanges block until the peer answers
        return cls(sock)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message, block for the one-line reply."""
        blob = (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")
        self._fh.write(blob)
        self._fh.flush()
        line = self._fh.readline()
        if not line:
            raise ServiceError("coordinator closed the connection")
        reply = json.loads(line)
        if not isinstance(reply, dict):
            raise ServiceError(f"malformed coordinator reply: {reply!r}")
        return reply

    def close(self) -> None:
        """Tear the connection down (idempotent)."""
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "WorkerChannel":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _execute_unit(pool: WorkerPool, spec: CampaignSpec,
                  unit: TrialUnit) -> Dict[str, Any]:
    """Run one leased unit and serialise its journal record."""
    (outcome,) = pool.run([unit.trial], timeout_s=spec.timeout_s,
                          max_retries=spec.max_retries,
                          backoff_s=spec.backoff_s)
    record = unit_record(unit, outcome.result, outcome, cached=False)
    return unit_record_payload(record)


def _serve_session(channel: WorkerChannel, worker_id: str,
                   pool: WorkerPool) -> str:
    """Drive one connection until it yields; returns why it stopped.

    Return values: ``"drained"`` (campaign finished), ``"idle"`` (no
    campaign loaded yet), ``"stale"`` (fingerprint changed under us —
    re-hello wanted).
    """
    welcome = channel.request({"op": "hello", "worker": worker_id})
    op = welcome.get("op")
    if op == "idle":
        return "idle"  # coordinator is up but has no campaign loaded
    if op != "welcome":
        raise ServiceError(f"unexpected hello reply: {welcome!r}")
    fingerprint = welcome.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise ServiceError(f"welcome reply lacks a fingerprint: {welcome!r}")
    spec_dict = welcome.get("spec")
    if not isinstance(spec_dict, dict):
        raise ServiceError(f"welcome reply lacks a spec: {welcome!r}")
    spec = CampaignSpec.from_dict(spec_dict)
    if spec.fingerprint != fingerprint:
        raise ServiceError("coordinator spec does not match its "
                           "advertised fingerprint")
    units = units_by_id(expand_units(spec))
    while True:
        reply = channel.request({"op": "lease", "worker": worker_id,
                                 "fingerprint": fingerprint})
        op = reply.get("op")
        if op == "drained":
            return "drained"
        if op == "idle":
            # The coordinator restarted (or our campaign was replaced and
            # closed) between leases; re-handshake instead of erroring.
            return "idle"
        if op == "wait":
            time.sleep(float(reply.get("retry_s", 0.2)))
            continue
        if op == "error":
            return "stale"
        if op != "unit":
            raise ServiceError(f"unexpected lease reply: {reply!r}")
        unit_id = str(reply.get("unit_id"))
        unit = units.get(unit_id)
        if unit is None:
            raise ServiceError(f"leased unknown unit {unit_id!r}")
        payload = _execute_unit(pool, spec, unit)
        ack = channel.request({"op": "result", "worker": worker_id,
                               "fingerprint": fingerprint,
                               "record": payload})
        if ack.get("op") not in ("ack", "error"):
            raise ServiceError(f"unexpected result reply: {ack!r}")
        if ack.get("op") == "ack" and ack.get("done"):
            return "drained"  # our result finished the campaign


def run_worker(host: str, port: int, worker_id: Optional[str] = None,
               oneshot: bool = True,
               reconnect_s: float = DEFAULT_RECONNECT_S) -> int:
    """Work a coordinator until its campaign drains.

    Args:
        host, port: the coordinator's address.
        worker_id: stable identity for lease bookkeeping (defaults to
            ``worker-<pid>``).
        oneshot: exit 0 once the campaign drains; with ``False`` the
            worker keeps polling for the next campaign indefinitely.
        reconnect_s: budget of *consecutive* unreachable-coordinator
            time before giving up — any successful session resets it,
            so a coordinator restart mid-campaign is survived as long
            as it comes back within this window.

    Returns the process exit code (0 = drained / finished cleanly).
    """
    name = worker_id or f"worker-{os.getpid()}"
    down_since: Optional[float] = None
    with WorkerPool(run_unit_trial, jobs=1) as pool:
        while True:
            try:
                with WorkerChannel.connect(host, port) as channel:
                    stopped = _serve_session(channel, name, pool)
                down_since = None
            except (OSError, ServiceError, ValueError):
                now = time.monotonic()
                if down_since is None:
                    down_since = now
                if now - down_since > reconnect_s:
                    return 1
                time.sleep(RECONNECT_BACKOFF_S)
                continue
            if stopped == "drained" and oneshot:
                return 0
            # idle / stale / non-oneshot drain: pause, then re-handshake.
            time.sleep(RECONNECT_BACKOFF_S)


def worker_entry(host: str, port: int, worker_id: str,
                 oneshot: bool = True,
                 reconnect_s: float = DEFAULT_RECONNECT_S,
                 close_fds: Sequence[int] = ()) -> None:
    """Process target wrapping :func:`run_worker` (exit code = result).

    ``close_fds`` names file descriptors the fork inherited but must
    not keep — above all the coordinator's *listening* socket, which
    would otherwise hold the port hostage after a coordinator crash
    and block the restarted coordinator from rebinding it.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    raise SystemExit(run_worker(host, port, worker_id=worker_id,
                                oneshot=oneshot, reconnect_s=reconnect_s))


def spawn_worker(host: str, port: int, worker_id: str,
                 oneshot: bool = True,
                 reconnect_s: float = DEFAULT_RECONNECT_S,
                 close_fds: Sequence[int] = (),
                 ) -> "multiprocessing.process.BaseProcess":
    """Start a worker in a child process and return its handle.

    Uses the ``fork`` start method where available so experiments
    registered by the parent (e.g. test fixtures) are inherited — the
    same convention :class:`repro.runner.WorkerPool` relies on.
    Pass the coordinator's listening descriptors via ``close_fds`` so
    the child releases them immediately (see :func:`worker_entry`).
    """
    try:
        ctx: Any = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()
    # NOT daemonic: the worker's pool forks its killable unit process,
    # and daemons may not have children.
    process = ctx.Process(target=worker_entry,
                          args=(host, port, worker_id),
                          kwargs={"oneshot": oneshot,
                                  "reconnect_s": reconnect_s,
                                  "close_fds": tuple(close_fds)},
                          daemon=False)
    process.start()
    return process


def parse_endpoint(value: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (for ``repro campaign worker --connect``)."""
    host, sep, port = value.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ServiceError(
            f"expected HOST:PORT, got {value!r}")
    return host, int(port)
