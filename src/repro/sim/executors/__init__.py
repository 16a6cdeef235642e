"""Pluggable sweep-executor backends.

:class:`~repro.sim.runner.SweepRunner` drives one
:class:`~repro.sim.executors.base.SweepExecutor` per sweep; the backend
decides where attempts execute, the runner keeps dedup, retries,
timeouts, crash attribution, and reporting. Three backends:

- ``serial`` (:class:`SerialExecutor`) — inline in the runner's process.
- ``pool`` (:class:`PoolExecutor`) — a local ``ProcessPoolExecutor`` it
  owns and leases to one sweep at a time (built per sweep by the runner,
  or kept across requests by the service).
- ``remote`` (:class:`RemoteExecutor`) — ``repro worker`` processes
  pulling jobs from a :class:`Coordinator` over stdlib sockets.

All three run the same :func:`~repro.sim.runner.run_attempt` and only
simulate — the runner's process owns the result cache — so they produce
byte-identical results for the same grid (``tests/sim/test_executors.py``
enforces this on the fig13 smoke grid) and share the runner's failure
semantics.
"""

from repro.sim.executors.base import EXECUTOR_NAMES, SweepExecutor
from repro.sim.executors.local import PoolExecutor, SerialExecutor
from repro.sim.executors.remote import (
    Coordinator,
    RemoteExecutor,
    WorkerFleet,
    worker_main,
)

__all__ = [
    "EXECUTOR_NAMES",
    "SweepExecutor",
    "SerialExecutor",
    "PoolExecutor",
    "RemoteExecutor",
    "Coordinator",
    "WorkerFleet",
    "worker_main",
]


def executor_names():
    """The valid ``--executor`` / ``REPRO_EXECUTOR`` selector values."""

    return list(EXECUTOR_NAMES)
