"""The ``service`` workload: round trips against a ``repro serve`` process.

Two closed-loop client threads (``ServiceClient``) each submit
single-(app, scheme) specs, the 40 ``fig13bc`` arms at scale 0.05, wait on
the job's NDJSON event stream for the terminal event and fetch the result.
A cold phase on an empty store is followed by warm phases, each after a
server restart on the same store, so every warm request is a store hit.
The seed permutes request order.

A round trip ends when the result is fetched. The event stream is then
given ``STREAM_CLOSE_GRACE_S`` to end; one that stays open longer is
closed by the client and counted as a stalled stream, not as a failure:
its job was answered.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from benchlib import Metrics, Outcome, child_env, median, nproc, reap

SCALE = 0.05
CLIENTS = 2
#: Warm phases per run, each after a restart: also the set-up samples.
WARM_PHASES = 4
START_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 60.0
#: A phase that has not finished by then fails its unanswered requests.
PHASE_TIMEOUT_S = {"cold": 120.0, "warm": 30.0}
STOP_TIMEOUT_S = 15.0
#: How long after the result fetch an event stream may stay open.
STREAM_CLOSE_GRACE_S = 2.0

LAYER_METRICS = [
    "client.submit_s",
    "client.result_s",
    "manager.queue_s",
    "manager.run_s",
    "service.overhead_s",
    "runner.inprocess_share",
    "store.hits",
    "store.misses",
    "service.stream_stalls",
]


def _specs() -> List[Dict]:
    from repro.experiments.fig13_main import SCHEMES
    from repro.workloads.registry import app_names

    schemes = ["baseline"] + [scheme.value for scheme in SCHEMES]
    return [
        {"apps": [app], "schemes": [scheme], "scale": SCALE}
        for app in app_names()
        for scheme in schemes
    ]


class Server:
    """One ``python -m repro serve`` process on a free port."""

    def __init__(self, ctx, store_dir: str, tag: str) -> None:
        self.log_path = os.path.join(ctx.work_dir, f"serve-{tag}.log")
        self.started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", str(nproc()), "--cache-dir", store_dir],
                cwd=ctx.root, env=child_env(ctx.root), stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.url: Optional[str] = None
        self.rss_mb = 0.0

    def wait_ready(self) -> float:
        """Seconds from launch until ``/healthz`` answers."""

        from repro.service.client import ServiceClient

        deadline = self.started + START_TIMEOUT_S
        while time.perf_counter() < deadline and self.proc.poll() is None:
            if self.url is None:
                with open(self.log_path) as log:
                    for line in log:
                        if "listening on " in line:
                            self.url = line.split("listening on ", 1)[1].split()[0]
            if self.url is not None:
                try:
                    ServiceClient(self.url, timeout=5.0).healthz()
                    return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server did not answer /healthz (see {self.log_path})")

    def stop(self) -> None:
        """Interrupt the server, reap it with ``wait4`` and keep its peak
        RSS; kill it if it has not exited after ``STOP_TIMEOUT_S``."""

        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        self.rss_mb = reap(self.proc, STOP_TIMEOUT_S)


class Request:
    """What one round trip saw."""

    def __init__(self, spec: Dict) -> None:
        self.spec = spec
        self.rtt_s = 0.0
        self.submit_s = 0.0
        self.result_s = 0.0
        self.payload: Optional[Dict] = None
        self.error: Optional[str] = None
        self.stream_stalled = False


class EventStream:
    """The job's NDJSON event stream, read the way ``ServiceClient.events``
    reads it, but with a socket timeout the benchmark controls, so a
    stream the server leaves open cannot hold a client past its answer."""

    def __init__(self, client, job_id: str) -> None:
        from repro.service.client import ServiceError

        self.connection = http.client.HTTPConnection(
            client.host, client.port, timeout=REQUEST_TIMEOUT_S
        )
        self.connection.request("GET", f"/jobs/{job_id}/events")
        # The response takes over the socket (``Connection: close``).
        self.sock = self.connection.sock
        self.response = self.connection.getresponse()
        if self.response.status >= 400:
            error = ServiceError(self.response.status, {"error": self.response.read().decode()})
            self.close()
            raise error

    def until_terminal(self) -> str:
        """Read events up to the terminal ``state`` event; its state."""

        from repro.service.manager import TERMINAL_STATES

        while True:
            line = self.response.readline()
            if not line:
                raise RuntimeError("event stream ended before a terminal event")
            if line.strip():
                event = json.loads(line)
                if event.get("type") == "state" and event.get("state") in TERMINAL_STATES:
                    return event["state"]

    def closes_within(self, seconds: float) -> bool:
        """Whether the server ends the stream within ``seconds``."""

        self.sock.settimeout(seconds)
        try:
            while self.response.readline():
                pass
        except OSError:  # the read timed out
            return False
        return True

    def close(self) -> None:
        self.response.close()
        self.connection.close()


def _round_trip(client, request: Request) -> None:
    started = time.perf_counter()
    job = client.submit(request.spec)
    request.submit_s = time.perf_counter() - started
    stream = EventStream(client, job["job_id"])
    try:
        state = stream.until_terminal()
        fetch_started = time.perf_counter()
        payload = client.result(job["job_id"])
        done = time.perf_counter()
        request.stream_stalled = not stream.closes_within(STREAM_CLOSE_GRACE_S)
    finally:
        stream.close()
    request.result_s = done - fetch_started
    request.rtt_s = done - started
    request.payload = payload
    if state != "done" or payload.get("state") != "done":
        request.error = f"job ended {state}/{payload.get('state')}: {payload.get('error')}"


def _phase(url: str, specs: List[Dict], timeout_s: float, outcome: Outcome) -> List[Request]:
    """Drive every spec through ``CLIENTS`` closed-loop clients; requests
    still unanswered after ``timeout_s`` count as failed."""

    from repro.service.client import ServiceClient

    requests = [Request(spec) for spec in specs]
    pending = list(reversed(requests))
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServiceClient(url, timeout=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                if not pending:
                    return
                request = pending.pop()
            try:
                _round_trip(client, request)
            except Exception as error:  # non-2xx, refused, timed out
                request.error = repr(error)

    # Daemon threads: a client stuck past the deadline is abandoned, and
    # stopping the server then breaks its connection.
    threads = [threading.Thread(target=client_loop, daemon=True) for _ in range(CLIENTS)]
    deadline = time.perf_counter() + timeout_s
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()))
    outcome.attempt(len(requests))
    for request in requests:
        if request.error is None and request.payload is None:
            request.error = "no answer before the phase deadline"
    failed = [request for request in requests if request.error is not None]
    if failed:
        outcome.fail(len(failed), failed[0].error)
    return [request for request in requests if request.error is None]


def _fingerprints(requests: List[Request], outcome: Outcome) -> Dict[str, str]:
    """Fingerprint each result's serialized bytes, as the program does,
    and check it against the fingerprint the server sent with it."""

    prints = {}
    for request in requests:
        payload = request.payload
        for timing, result, sent in zip(
            payload["report"]["timings"], payload["results"], payload["fingerprints"]
        ):
            text = json.dumps(result, sort_keys=True)
            mine = hashlib.sha256(text.encode()).hexdigest()
            outcome.check(mine == sent, f"{timing['key']}: fingerprint does not match its bytes")
            prints[timing["key"]] = mine
    return prints


def _store_delta(before: Dict, after: Dict) -> Dict[str, int]:
    return {name: after["store"][name] - before["store"][name] for name in ("hits", "misses")}


def _serve_phase(ctx, store_dir, specs, tag, outcome):
    """Start a server, run one phase, stop it. Returns
    ``(server, set-up seconds or None, completed requests, store delta)``
    and notes the phase's wall time and slowest round trip."""

    from repro.service.client import ServiceClient

    server = Server(ctx, store_dir, tag)
    done: List[Request] = []
    try:
        try:
            setup = server.wait_ready()
        except RuntimeError as error:
            outcome.attempt(len(specs))
            outcome.fail(len(specs), f"{tag}: {error}")
            return server, None, [], {}
        client = ServiceClient(server.url, timeout=REQUEST_TIMEOUT_S)
        before = client.healthz()
        done = _phase(server.url, specs, PHASE_TIMEOUT_S[tag.rstrip("0123456789")], outcome)
        delta = _store_delta(before, client.healthz())
    finally:
        server.stop()
        ctx.notes.append(
            f"{tag}: {time.perf_counter() - server.started:.2f} s from launch to exit "
            f"(code {server.proc.returncode}), slowest round trip "
            f"{max((r.rtt_s for r in done), default=0.0):.3f} s, "
            f"{sum(r.stream_stalled for r in done)} event stream(s) left open"
        )
    return server, setup, done, delta


def run(workload: str, seed: int, seconds: float, trace: bool, ctx) -> Tuple[Metrics, Outcome]:
    metrics, outcome = Metrics(), Outcome()
    # Servers stop on SIGINT. An ignored SIGINT, as a shell gives background
    # jobs, would pass to them through exec; a handled one is reset to the
    # default there, which lets the server install its own handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    specs = _specs()
    store_dir = os.path.join(ctx.work_dir, "store")

    order = list(specs)
    random.Random(seed).shuffle(order)
    server, setup_s, cold, cold_store = _serve_phase(ctx, store_dir, order, "cold", outcome)
    setup = [setup_s] if setup_s is not None else []
    rss = [server.rss_mb]
    cold_pid = server.proc.pid
    if not cold:
        return metrics, outcome
    cold_prints = _fingerprints(cold, outcome)
    compared = ctx.ledger.check_fingerprints(cold_prints, outcome, "service cold phase")

    warm: List[Request] = []
    warm_hits: List[int] = []
    for index in range(1, WARM_PHASES + 1):
        random.Random(seed + index).shuffle(order)
        server, setup_s, done, delta = _serve_phase(ctx, store_dir, order, f"warm{index}", outcome)
        rss.append(server.rss_mb)
        if setup_s is not None:
            setup.append(setup_s)
        warm.extend(done)
        if done:
            warm_hits.append(delta["hits"])
            resimulated = sum(r.payload["report"]["jobs_simulated"] for r in done)
            outcome.check(resimulated == 0, f"warm{index} simulated {resimulated} job(s)")
            outcome.check(
                delta == {"hits": len(done), "misses": 0},
                f"warm{index} store counters {delta}, want {len(done)} hits and no misses",
            )
            outcome.check(
                all(cold_prints.get(key) == value
                    for key, value in _fingerprints(done, outcome).items()),
                f"warm{index} results differ from the cold phase",
            )

    timings = [(r, t) for r in cold for t in r.payload["report"]["timings"]]
    sim_s = sum(t["duration_s"] for _, t in timings if not t["cached"])
    translations = sum(
        result["counters"].get("translations", 0.0)
        for r in cold
        for result, timing in zip(r.payload["results"], r.payload["report"]["timings"])
        if not timing["cached"]
    )
    if sim_s > 0:
        metrics.put("sim_tx_per_s", translations / sim_s, len(timings))
    metrics.put_latencies("op_cold", [r.rtt_s for r in cold])
    if warm:
        metrics.put_latencies("op_warm", [r.rtt_s for r in warm])
    if setup:
        metrics.put("setup_s", median(setup), len(setup))
    metrics.put("peak_rss_mb", max(rss))
    metrics.put("ok_share", outcome.ok_share(), outcome.attempted)

    simulated = [t for _, t in timings if not t["cached"]]
    if simulated:
        inprocess = sum(1 for t in simulated if t["worker_pid"] == cold_pid)
        metrics.put("runner.inprocess_share", inprocess / len(simulated), len(simulated))
    metrics.put("client.submit_s", median([r.submit_s for r in cold]), len(cold))
    metrics.put("client.result_s", median([r.result_s for r in cold]), len(cold))
    metrics.put(
        "manager.queue_s",
        median([r.payload["started_s"] - r.payload["created_s"] for r in cold]),
        len(cold),
    )
    metrics.put(
        "manager.run_s",
        median([r.payload["finished_s"] - r.payload["started_s"] for r in cold]),
        len(cold),
    )
    overhead = [
        r.rtt_s - sum(t["duration_s"] for t in r.payload["report"]["timings"])
        for r in cold
    ]
    metrics.put("service.overhead_s", median(overhead), len(overhead))
    if warm_hits:
        metrics.put("store.hits", median(warm_hits), len(warm_hits))
    metrics.put("store.misses", cold_store["misses"])
    metrics.put(
        "service.stream_stalls", sum(r.stream_stalled for r in cold + warm), len(cold + warm)
    )
    ctx.notes.append(
        f"cold phase: {len(cold)} round trips, store {cold_store}; "
        f"{compared} result(s) compared with earlier runs"
    )
    return metrics, outcome
