"""Local executor backends: in-process serial and process pool.

:class:`SerialExecutor` runs every attempt inline in the runner's own
process — no pool, no pickling, pdb/coverage/profiling-friendly — and
:class:`PoolExecutor` runs attempts on a local ``ProcessPoolExecutor``
that it owns. Both run the same :func:`~repro.sim.runner.run_attempt`
as the remote backend, so all three produce byte-identical results.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, Optional

from repro.sim.executors.base import FaultHook, SweepExecutor
from repro.sim.runner import SweepJob, WorkerOutcome, default_workers, run_attempt

#: Seconds without a lease after which :meth:`PoolExecutor.evict_if_idle`
#: shuts the pool down.
DEFAULT_IDLE_TIMEOUT_S = 60.0


class SerialExecutor(SweepExecutor):
    """Everything inline, width 1. ``submit`` runs the attempt before
    returning, so the returned future is always already resolved; the
    runner's collection loop runs one attempt at a time.

    An injected ``crash`` fault is demoted to an exception by
    :class:`~repro.sim.runner.SpecFault`'s parent-pid guard rather than
    killing the sweep (there is no worker process to sacrifice).
    """

    name = "serial"

    def acquire(self, workers: int) -> int:
        return 1

    def submit(
        self, job: SweepJob, attempt: int, fault: FaultHook
    ) -> "Future[WorkerOutcome]":
        future: "Future[WorkerOutcome]" = Future()
        try:
            outcome = run_attempt(job, attempt, fault)
        except BaseException as error:
            future.set_exception(error)
        else:
            future.set_result(outcome)
        return future

    def recycle(self, reason: str) -> None:
        pass  # nothing to rebuild: the "context" is this process

    def close(self, dirty: bool = False) -> None:
        pass

    def run_isolated(
        self,
        job: SweepJob,
        attempt: int,
        fault: FaultHook,
        timeout: Optional[float],
    ) -> WorkerOutcome:
        # No isolation (and no preemption) is possible in-process.
        return run_attempt(job, attempt, fault)


class PoolExecutor(SweepExecutor):
    """A local process pool of ``max_workers`` processes.

    - :meth:`acquire` leases the pool to one sweep at a time (a second
      acquirer blocks until the lease is released), creating it lazily.
      The sweep may keep ``min(ask, max_workers)`` attempts in flight.
    - :meth:`recycle` replaces a broken pool (worker crash, hung job)
      without giving up the lease.
    - :meth:`close` ends the lease; a *dirty* close (the sweep aborted
      with futures in flight) discards the pool, so the next lease starts
      clean.
    - :meth:`evict_if_idle` shuts the pool down after ``idle_timeout_s``
      without a lease; the next lease recreates it.
    - :meth:`shutdown` tears everything down; later leases raise.

    A runner given ``executor="pool"`` builds one sized to its sweep and
    shuts it down afterwards; the service keeps one across requests and
    reports :meth:`stats` on ``/healthz``.
    """

    name = "pool"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
    ) -> None:
        resolved = max_workers if max_workers is not None else default_workers()
        if resolved < 1:
            raise ValueError(f"max_workers must be >= 1, got {resolved}")
        if idle_timeout_s <= 0:
            raise ValueError(f"idle_timeout_s must be > 0, got {idle_timeout_s}")
        self.max_workers = resolved
        self.idle_timeout_s = idle_timeout_s
        self._cond = threading.Condition()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._leased = False
        self._last_release = time.monotonic()
        self._closed = False
        self._pools_created = 0
        self._leases = 0
        self._recycles = 0
        self._evictions = 0

    def _discard(self) -> None:
        # Caller holds self._cond. Never waits: a hung worker must not
        # wedge the sweep that gives up on it.
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def acquire(self, workers: int) -> int:
        with self._cond:
            while self._leased and not self._closed:
                self._cond.wait()
            if self._closed:
                raise RuntimeError("PoolExecutor is shut down")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
                self._pools_created += 1
            self._leased = True
            self._leases += 1
            return min(workers, self.max_workers)

    def submit(
        self, job: SweepJob, attempt: int, fault: FaultHook
    ) -> "Future[WorkerOutcome]":
        pool = self._pool
        if pool is None:
            raise RuntimeError("PoolExecutor has no pool (not leased, or shut down)")
        return pool.submit(run_attempt, job, attempt, fault)

    def recycle(self, reason: str) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError(f"PoolExecutor is shut down ({reason})")
            self._discard()
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self._recycles += 1

    def close(self, dirty: bool = False) -> None:
        with self._cond:
            if dirty:
                # Futures may still be running in there; never lease a
                # polluted pool to the next sweep.
                self._discard()
            self._leased = False
            self._last_release = time.monotonic()
            self._cond.notify_all()

    def run_isolated(
        self,
        job: SweepJob,
        attempt: int,
        fault: FaultHook,
        timeout: Optional[float],
    ) -> WorkerOutcome:
        # A fresh single-worker pool, independent of the leased one: if
        # the job kills even its private pool it is the culprit.
        solo = ProcessPoolExecutor(max_workers=1)
        try:
            return solo.submit(run_attempt, job, attempt, fault).result(
                timeout=timeout
            )
        finally:
            solo.shutdown(wait=False, cancel_futures=True)

    def evict_if_idle(self, now: Optional[float] = None) -> bool:
        """Shut the pool down if it has been un-leased for the idle window.

        Returns ``True`` when an eviction happened. Cheap to call often —
        the service's executor loop polls it between queue waits.
        """

        with self._cond:
            if self._pool is None or self._leased:
                return False
            now = time.monotonic() if now is None else now
            if now - self._last_release < self.idle_timeout_s:
                return False
            self._discard()
            self._evictions += 1
            return True

    def shutdown(self) -> None:
        with self._cond:
            self._closed = True
            self._discard()
            self._cond.notify_all()

    def stats(self) -> Dict:
        """Pool telemetry (the service's ``GET /healthz`` ``pool``)."""

        with self._cond:
            return {
                "alive": self._pool is not None,
                "leased": self._leased,
                "max_workers": self.max_workers,
                "idle_timeout_s": self.idle_timeout_s,
                "pools_created": self._pools_created,
                "leases": self._leases,
                "recycles": self._recycles,
                "evictions": self._evictions,
            }
