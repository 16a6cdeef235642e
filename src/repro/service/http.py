"""Dependency-light asyncio HTTP front-end for the job manager.

Endpoints (all JSON unless noted):

- ``POST   /jobs``            — submit a job spec; 201 with the job id,
  200 when the spec deduplicated onto an existing job, 400 with the
  valid choices on a bad spec.
- ``GET    /jobs``            — job summaries.
- ``GET    /jobs/<id>``       — status: state, spec, structured
  :meth:`~repro.sim.runner.SweepReport.to_json` report (telemetry rows,
  failures) once available.
- ``GET    /jobs/<id>/result``— serialized sim results + fingerprints;
  202 while the job is still queued/running, 409 for cancelled jobs.
- ``GET    /jobs/<id>/events``— NDJSON progress stream (one JSON object
  per line: state transitions, runner progress, failures), following the
  job live until it reaches a terminal state.
- ``DELETE /jobs/<id>``       — cancel a queued job (409 otherwise).
- ``GET    /healthz``         — liveness + job counts + pool stats.
- ``GET    /version``         — package version, cache/report schemas,
  and the valid vocabulary (figures, apps, schemes, engines).

The server is intentionally minimal — ``asyncio.start_server`` plus a
hand-rolled HTTP/1.1 exchange with ``Connection: close`` semantics — so
the service adds no dependencies beyond the standard library. Blocking
manager calls (submit validation, payload building) are short and
lock-bounded; simulations themselves run on the manager's executor
thread, never on the event loop.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
from http import HTTPStatus
from typing import Callable, Dict, Optional, Tuple

import repro
from repro.experiments.common import CACHE_SCHEMA
from repro.sim.runner import REPORT_SCHEMA
from repro.service.jobs import (
    SpecError,
    VALID_ENGINES,
    valid_figures,
    valid_schemes,
)
from repro.service.manager import (
    CANCELLED,
    JobManager,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
)
from repro.workloads.registry import app_names

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]{12})(/result|/events)?$")
_MAX_HEAD_BYTES = 64 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024
#: How often a live NDJSON stream re-checks the record for new events.
_STREAM_POLL_S = 0.05


class ServiceServer:
    """One manager behind one listening socket."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._log_sink = log
        self._server: Optional[asyncio.AbstractServer] = None
        #: Clients that vanished mid-response (reset/broken pipe). Benign
        #: for the server, but surfaced in /healthz and the log so a flaky
        #: client or proxy is visible instead of silently swallowed.
        self.client_disconnects = 0

    def _log(self, message: str) -> None:
        if self._log_sink is not None:
            self._log_sink(message)

    async def start(self) -> "ServiceServer":
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._log(
            f"[service] listening on http://{self.host}:{self.port} "
            f"({self.manager.workers} worker(s))"
        )
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request plumbing --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    ValueError, asyncio.TimeoutError):
                await self._write_json(
                    writer, HTTPStatus.BAD_REQUEST, {"error": "malformed request"}
                )
                return
            await self._route(method, path, body, writer)
        except (ConnectionResetError, BrokenPipeError) as error:
            # The client went away mid-response; nothing to send back, but
            # record it rather than dropping the event on the floor.
            self.client_disconnects += 1
            self._log(
                f"[service] client disconnected mid-response "
                f"({type(error).__name__})"
            )
        finally:
            try:
                # Half-close first: shutdown(SHUT_WR) sends FIN even while
                # forked pool workers hold duplicates of this socket, which
                # a bare close() would not — the client's stream would
                # stay open until those workers exit.
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError) as error:
                # Closing an already-dead socket: harmless, but log which
                # errno so transport-level problems stay diagnosable.
                self._log(
                    f"[service] error closing client socket: {error!r}"
                )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=10.0
        )
        if len(head) > _MAX_HEAD_BYTES:
            raise ValueError("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        method, path, _version = lines[0].split(" ", 2)
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise ValueError("bad content length")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _write_json(
        self, writer: asyncio.StreamWriter, status: HTTPStatus, payload: Dict
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        writer.write(
            (
                f"HTTP/1.1 {status.value} {status.phrase}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
        )
        writer.write(body)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/healthz" and method == "GET":
            await self._write_json(writer, HTTPStatus.OK, self._healthz())
            return
        if path == "/version" and method == "GET":
            await self._write_json(writer, HTTPStatus.OK, self._version())
            return
        if path == "/jobs":
            if method == "POST":
                await self._post_job(body, writer)
                return
            if method == "GET":
                await self._write_json(
                    writer, HTTPStatus.OK, {"jobs": self.manager.summaries()}
                )
                return
        match = _JOB_PATH.match(path)
        if match:
            job_id, tail = match.group(1), match.group(2)
            if tail is None and method == "GET":
                await self._get_status(job_id, writer)
                return
            if tail is None and method == "DELETE":
                await self._delete_job(job_id, writer)
                return
            if tail == "/result" and method == "GET":
                await self._get_result(job_id, writer)
                return
            if tail == "/events" and method == "GET":
                await self._stream_events(job_id, writer)
                return
        await self._write_json(
            writer,
            HTTPStatus.NOT_FOUND,
            {"error": f"no route for {method} {path}"},
        )

    def _healthz(self) -> Dict:
        from repro.experiments import common
        from repro.sim import store as result_store

        return {
            "status": "ok",
            "uptime_s": time.time() - self.manager.started_at,
            "jobs": self.manager.counts(),
            "pool": self.manager.pool.stats(),
            "client_disconnects": self.client_disconnects,
            "store": {
                "cache_dir": common._CACHE_DIR,
                **result_store.counters_snapshot(),
            },
        }

    def _version(self) -> Dict:
        return {
            "version": repro.__version__,
            "cache_schema": CACHE_SCHEMA,
            "report_schema": REPORT_SCHEMA,
            "figures": valid_figures(),
            "apps": app_names(),
            "schemes": valid_schemes(),
            "engines": list(VALID_ENGINES),
        }

    async def _post_job(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            raw = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            await self._write_json(
                writer,
                HTTPStatus.BAD_REQUEST,
                {"error": "request body must be a JSON object"},
            )
            return
        try:
            record, deduplicated = self.manager.submit(raw)
        except SpecError as error:
            await self._write_json(
                writer, HTTPStatus.BAD_REQUEST, error.to_json()
            )
            return
        await self._write_json(
            writer,
            HTTPStatus.OK if deduplicated else HTTPStatus.CREATED,
            {
                "job_id": record.job_id,
                "state": record.state,
                "deduplicated": deduplicated,
                "jobs": len(record.jobs),
            },
        )

    async def _get_status(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        payload = self.manager.status_payload(job_id)
        if payload is None:
            await self._write_json(
                writer, HTTPStatus.NOT_FOUND, {"error": f"unknown job {job_id}"}
            )
            return
        await self._write_json(writer, HTTPStatus.OK, payload)

    async def _get_result(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        payload = self.manager.result_payload(job_id)
        if payload is None:
            await self._write_json(
                writer, HTTPStatus.NOT_FOUND, {"error": f"unknown job {job_id}"}
            )
            return
        state = payload["state"]
        if state in (QUEUED, RUNNING):
            await self._write_json(writer, HTTPStatus.ACCEPTED, payload)
            return
        if state == CANCELLED:
            await self._write_json(writer, HTTPStatus.CONFLICT, payload)
            return
        await self._write_json(writer, HTTPStatus.OK, payload)

    async def _delete_job(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        ok, state, reason = self.manager.cancel(job_id)
        if ok:
            await self._write_json(
                writer, HTTPStatus.OK, {"job_id": job_id, "state": CANCELLED}
            )
        elif state is None:
            await self._write_json(
                writer, HTTPStatus.NOT_FOUND, {"error": f"unknown job {job_id}"}
            )
        else:
            # 409 carries the job's actual state so clients can tell a
            # lost race (already running/done) from a bad request.
            await self._write_json(
                writer,
                HTTPStatus.CONFLICT,
                {"job_id": job_id, "state": state, "error": reason},
            )

    async def _stream_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        snapshot = self.manager.events_since(job_id, 0)
        if snapshot is None:
            await self._write_json(
                writer, HTTPStatus.NOT_FOUND, {"error": f"unknown job {job_id}"}
            )
            return
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        seq = 0
        while True:
            snapshot = self.manager.events_since(job_id, seq)
            if snapshot is None:  # record vanished (cannot happen today)
                break
            events, state = snapshot
            for event in events:
                writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
                seq = event["seq"] + 1
            await writer.drain()
            if state in TERMINAL_STATES and not events:
                break
            if not events:
                await asyncio.sleep(_STREAM_POLL_S)


async def _serve_async(server: ServiceServer) -> None:
    await server.start()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        # Normal shutdown path (KeyboardInterrupt cancels the runner's
        # main task); announce it instead of exiting silently.
        server._log("[service] shutdown requested; stopping")
    finally:
        await server.stop()


def serve(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8000,
    log: Optional[Callable[[str], None]] = print,
) -> None:
    """Run the service in the foreground until interrupted (the
    ``python -m repro serve`` entry point)."""

    server = ServiceServer(manager, host=host, port=port, log=log)
    try:
        asyncio.run(_serve_async(server))
    except KeyboardInterrupt:
        if log is not None:
            log("[service] interrupted; shutting down")
    finally:
        manager.close()


class BackgroundServer:
    """The server on a daemon thread with its own event loop.

    For tests, examples, and anything that wants to drive the HTTP API
    from the same process::

        with BackgroundServer(manager) as server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
    """

    def __init__(
        self, manager: JobManager, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._server = ServiceServer(manager, host=host, port=port)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-http", daemon=True
        )

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return f"http://{self._server.host}:{self._server.port}"

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._server.start())
        self._started.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self._server.stop())
        self._loop.close()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("service HTTP server failed to start")
        return self

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
