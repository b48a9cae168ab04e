"""The coordinator's network face: one port, two protocols.

A single ``asyncio`` TCP server carries both the worker channel and the
HTTP API.  The handler peeks at the first byte of each connection: ``{``
means a newline-delimited-JSON worker channel (every worker message is
one JSON object, so it must start with ``{``), anything else is parsed
as an HTTP/1.1 request.  One port keeps deployment a single address —
workers and ``repro campaign status --url`` point at the same place —
and makes the later multi-host story purely a configuration change.

Worker requests the coordinator would answer with ``wait`` or ``idle``
are *parked*, not answered: the server holds the request open and
re-handles it when the coordinator reports a state change (a merged
result, the campaign draining, a submit) and at least every
``retry_s``, the cadence lease expiry and work stealing are checked on.
It replies once the answer is something else, so an idle worker learns
``drained`` — or gets its unit — as soon as there is news instead of
after a sleep.  A parked worker that hangs up is never granted a unit:
the server watches its reader for EOF while the request is parked.

The HTTP side is deliberately minimal (hand-rolled request parsing,
``Connection: close`` responses) because the standard library offers no
asyncio HTTP server and this API serves a handful of trusted clients,
not the open internet.  Endpoints:

* ``GET /healthz`` — liveness probe.
* ``POST /campaign`` — submit a :class:`~repro.campaign.spec.
  CampaignSpec` (raw spec JSON, or ``{"spec": ..., "journal": ...}``).
* ``GET /status`` — machine-readable status; ``?follow=1`` streams
  newline-delimited JSON events until the campaign drains.
* ``GET /report`` — text report; ``?format=json`` for the dict form.
* ``GET /metrics`` — the coordinator's telemetry snapshot.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.campaign.service.coordinator import Coordinator
from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignBusyError, ReproError, ServiceError

#: Hard cap on worker-channel line length and HTTP body size (16 MiB) —
#: a full unit record with merged telemetry fits with huge margin.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024

#: Worker-protocol answers that mean "nothing for you yet": the server
#: parks the request instead of sending one of these.
_PARKED_OPS = ("wait", "idle")

_HTTP_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}


def _http_response(status: int, body: bytes,
                   content_type: str = "application/json") -> bytes:
    """Serialise a complete ``Connection: close`` HTTP/1.1 response."""
    reason = _HTTP_STATUS_TEXT.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


def _json_body(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _parse_query(raw: str) -> Dict[str, str]:
    """Split ``a=1&b=2`` (the API needs no percent-decoding)."""
    query: Dict[str, str] = {}
    for pair in raw.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        query[key] = value
    return query


class ServiceServer:
    """Binds the :class:`Coordinator` to a TCP port.

    Args:
        coordinator: the campaign coordinator to expose.
        host: bind address (use ``127.0.0.1`` unless you mean it).
        port: TCP port; 0 picks an ephemeral one (read :attr:`port`
            after :meth:`start`).
    """

    def __init__(self, coordinator: Coordinator,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.coordinator = coordinator
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: "set[asyncio.Task[None]]" = set()
        # Resolved (and dropped) on the coordinator's next state change;
        # every parked request waits on the same future.
        self._change: "Optional[asyncio.Future[None]]" = None

    @property
    def port(self) -> int:
        """The bound port (valid once started)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def listen_fds(self) -> "tuple[int, ...]":
        """The listening descriptors — forked children must close these
        (via ``spawn_worker(close_fds=...)``) or a crashed coordinator's
        port stays bound and a restart cannot reclaim it."""
        if self._server is None:
            return ()
        return tuple(sock.fileno() for sock in self._server.sockets or ())

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self.coordinator.add_change_callback(self._on_change)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port)

    async def stop(self) -> None:
        """Stop accepting, then end every connection handler — parked
        worker requests included — and wait until each has closed its
        connection."""
        self.coordinator.remove_change_callback(self._on_change)
        server, self._server = self._server, None
        if server is not None:
            server.close()
        handlers = [task for task in self._handlers if not task.done()]
        for task in handlers:
            task.cancel()
        if handlers:
            await asyncio.wait(handlers)
        if server is not None:
            await server.wait_closed()

    def _on_change(self) -> None:
        """Coordinator callback: wake every parked request."""
        change, self._change = self._change, None
        if change is not None and not change.done():
            change.set_result(None)

    def _next_change(self) -> "asyncio.Future[None]":
        if self._change is None:
            self._change = asyncio.get_running_loop().create_future()
        return self._change

    # ------------------------------------------------------------------
    # Connection dispatch
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Sniff the first byte and route to the matching protocol."""
        task = asyncio.current_task()
        assert task is not None  # start_server runs each handler as a task
        self._handlers.add(task)
        try:
            first = await reader.read(1)
            if not first:
                return
            if first == b"{":
                await self._serve_worker(first, reader, writer)
            else:
                await self._serve_http(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-exchange; nothing to clean up
        except asyncio.CancelledError:
            return  # shutdown while blocked on this peer — close quietly
        finally:
            self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # ------------------------------------------------------------------
    # Worker channel (newline-delimited JSON)
    # ------------------------------------------------------------------

    async def _serve_worker(self, first: bytes,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """Request/response loop: one JSON object per line, each way."""
        pending: bytes = first
        while True:
            line = await reader.readline()
            if pending:
                line, pending = pending + line, b""
            if not line:
                return
            if len(line) > MAX_MESSAGE_BYTES:
                raise ServiceError("worker message exceeds size cap")
            try:
                message = json.loads(line)
            except ValueError:
                reply: Dict[str, Any] = {"op": "error",
                                         "error": "malformed JSON"}
            else:
                reply = self._handle(message)  # lint-ok: blocking-in-async bounded
                if reply.get("op") in _PARKED_OPS:
                    parked, pending = await self._park(message, reply,
                                                       reader)
                    if parked is None:
                        return  # the worker hung up while parked
                    reply = parked
            writer.write(_json_body(reply))
            await writer.drain()

    def _handle(self, message: Any) -> Dict[str, Any]:
        """One worker message through the coordinator; library errors
        become ``error`` replies."""
        if not isinstance(message, dict):
            return {"op": "error", "error": "message is not an object"}
        try:
            # Bounded blocking: the coordinator is synchronous by
            # contract (single loop thread) and its only I/O is one
            # buffered journal-line append (+ opt-in fsync); an executor
            # hop would serialise on the same single writer anyway while
            # adding cross-thread hand-off.
            return self.coordinator.handle_message(message)
        except ReproError as exc:
            return {"op": "error", "error": str(exc)}

    async def _park(self, message: Dict[str, Any], reply: Dict[str, Any],
                    reader: asyncio.StreamReader,
                    ) -> Tuple[Optional[Dict[str, Any]], bytes]:
        """Hold a ``wait``/``idle`` answer until it would say more.

        Re-handles ``message`` on every coordinator state change and at
        least every ``retry_s``.  Returns the reply to send and the
        bytes the peer sent meanwhile (a worker speaks only after a
        reply, so any byte ends the park with the current answer), or
        ``(None, b"")`` once the peer has hung up.
        """
        peer = asyncio.ensure_future(reader.read(1))
        try:
            while reply.get("op") in _PARKED_OPS:
                await asyncio.wait((peer, self._next_change()),
                                   timeout=float(reply["retry_s"]),
                                   return_when=asyncio.FIRST_COMPLETED)
                if peer.done():
                    data = peer.result()
                    return (reply, data) if data else (None, b"")
                reply = self._handle(message)  # lint-ok: blocking-in-async bounded
            return reply, b""
        finally:
            if not peer.done():
                peer.cancel()
                await asyncio.wait((peer,))

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------

    async def _serve_http(self, first: bytes,
                          reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """Parse one request, route it, send one response, close."""
        try:
            method, path, query, body = await self._read_request(first,
                                                                 reader)
        except ServiceError as exc:
            writer.write(_http_response(
                400, _json_body({"error": str(exc)})))
            await writer.drain()
            return
        if path == "/status" and query.get("follow") in ("1", "true"):
            await self._stream_status(writer)
            return
        # Bounded blocking: routing is in-memory except POST /campaign,
        # where the journal replay *is* the submit operation and must
        # finish before any worker may lease (same single-writer
        # invariant as the worker channel above).
        status, payload, content_type = self._route(  # lint-ok: blocking-in-async bounded
            method, path, query, body)
        writer.write(_http_response(status, payload, content_type))
        await writer.drain()

    async def _read_request(
            self, first: bytes, reader: asyncio.StreamReader,
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        """Read request line, headers, and Content-Length-framed body."""
        head = first + await reader.readuntil(b"\r\n\r\n")
        request_line, _, header_blob = head.partition(b"\r\n")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ServiceError(f"malformed request line: {parts!r}")
        method, target = parts[0].upper(), parts[1]
        path, _, raw_query = target.partition("?")
        length = 0
        for header in header_blob.decode("latin-1").split("\r\n"):
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ServiceError(f"bad Content-Length: {value!r}")
        if length > MAX_MESSAGE_BYTES:
            raise ServiceError("request body exceeds size cap")
        body = await reader.readexactly(length) if length else b""
        return method, path, _parse_query(raw_query), body

    def _route(self, method: str, path: str, query: Dict[str, str],
               body: bytes) -> Tuple[int, bytes, str]:
        """Dispatch one parsed request; returns (status, body, type)."""
        try:
            if path == "/healthz" and method == "GET":
                return 200, _json_body({"ok": True}), "application/json"
            if path == "/campaign" and method == "POST":
                return self._handle_submit(body)
            if path == "/status" and method == "GET":
                return (200, _json_body(self.coordinator.status_payload()),
                        "application/json")
            if path == "/report" and method == "GET":
                if query.get("format") == "json":
                    return (200,
                            _json_body(self.coordinator.report_payload()),
                            "application/json")
                text = self.coordinator.report_text()
                return (200, (text + "\n").encode("utf-8"),
                        "text/plain; charset=utf-8")
            if path == "/metrics" and method == "GET":
                return (200,
                        _json_body(self.coordinator.metrics.snapshot()),
                        "application/json")
            if path in ("/healthz", "/campaign", "/status", "/report",
                        "/metrics"):
                return (405, _json_body({"error": f"{method} not allowed "
                                                  f"on {path}"}),
                        "application/json")
            return (404, _json_body({"error": f"no such endpoint {path}"}),
                    "application/json")
        except ReproError as exc:
            status = 409 if isinstance(exc, CampaignBusyError) else 400
            return (status, _json_body({"error": str(exc)}),
                    "application/json")
        except ValueError as exc:
            # Report building can surface ValueError (e.g. merging
            # telemetry snapshots with mismatched schemas); translate it
            # into a response instead of crashing the connection task.
            return (500, _json_body({"error": str(exc)}),
                    "application/json")

    def _handle_submit(self, body: bytes) -> Tuple[int, bytes, str]:
        """POST /campaign: load the spec and start serving it."""
        try:
            payload = json.loads(body or b"{}")
        except ValueError:
            return (400, _json_body({"error": "body is not valid JSON"}),
                    "application/json")
        if not isinstance(payload, dict):
            return (400, _json_body({"error": "body must be an object"}),
                    "application/json")
        if "spec" in payload:
            spec_dict = payload["spec"]
            journal = payload.get("journal")
        else:
            spec_dict, journal = payload, None
        spec = CampaignSpec.from_dict(spec_dict)
        journal_path = Path(journal) if journal else Path(
            f"{spec.name}.journal.jsonl")
        state = self.coordinator.submit(spec, journal_path)
        return (200, _json_body({
            "name": spec.name,
            "fingerprint": spec.fingerprint,
            "journal": str(journal_path),
            "total": state.total,
            "pending": len(state.pending),
        }), "application/json")

    async def _stream_status(self, writer: asyncio.StreamWriter) -> None:
        """``GET /status?follow=1``: NDJSON events until the campaign
        drains.  The body is framed by connection close (no chunking),
        which every line-reading client handles."""
        events: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self.coordinator.subscribe(events)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        try:
            while True:
                event = await events.get()
                writer.write(_json_body(event))
                await writer.drain()
                if event.get("event") == "done":
                    return
        finally:
            self.coordinator.unsubscribe(events)
