"""Arithmetic, bookkeeping and process helpers shared by the workloads.

Nothing here imports ``repro``: the pure functions (percentiles, self
time, metric names) are unit-tested on their own, and the checkout check
in :func:`repo_root` must run before any import of the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Metric and workload names as BENCHMARK.json allows them.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A tail percentile needs this many samples strictly beyond it.
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a checkout, bad arguments)."""


# -- names -------------------------------------------------------------------


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""

    if not NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}: want {NAME_RE.pattern}")
    return name


def name_part(text: str) -> str:
    """``text`` made safe for use inside a metric name: every character
    outside ``[A-Za-z0-9_.-]`` becomes ``-`` (``icache+lds`` -> ``icache-lds``)."""

    return re.sub(r"[^A-Za-z0-9_.-]", "-", text)


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile that has at least :data:`TAIL_BEYOND` samples
    beyond it: ``(value, percentile, samples)``.

    With ``n`` sorted samples that is the sample at index ``n - 11``; its
    percentile is the share of samples at or below it. With fewer than 21
    samples that sample would lie below the median, so the maximum is
    reported instead, as p100.
    """

    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    count = len(ordered)
    index = count - 1 - TAIL_BEYOND
    if index < TAIL_BEYOND:
        return ordered[-1], 100.0, count
    return ordered[index], 100.0 * (index + 1) / count, count


def self_seconds(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's self time: its length minus the part of ``[start, end]``
    covered by the union of its children's intervals.

    Children may nest inside or overlap one another; each covered instant
    is subtracted once, and the parts of a child outside the span are
    ignored.
    """

    covered = 0.0
    run_start = run_end = None
    for child_start, child_end in sorted(children):
        child_start = max(child_start, start)
        child_end = min(child_end, end)
        if child_end <= child_start:
            continue
        if run_end is None or child_start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = child_start, child_end
        elif child_end > run_end:
            run_end = child_end
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


# -- metrics -----------------------------------------------------------------


class Metrics:
    """Named values with their sample counts, filled by a workload."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.notes: Dict[str, str] = {}

    def put(self, name: str, value: float, samples: int = 1, note: str = "") -> None:
        check_name(name)
        if name in self.values:
            raise ValueError(f"metric {name!r} recorded twice")
        self.values[name] = float(value)
        self.samples[name] = samples
        if note:
            self.notes[name] = note

    def put_latencies(self, prefix: str, values: Sequence[float]) -> None:
        """``<prefix>_p50_s`` and ``<prefix>_tail_s`` from raw samples."""

        value, percentile, count = tail(values)
        self.put(f"{prefix}_p50_s", median(values), len(values))
        self.put(f"{prefix}_tail_s", value, count, note=f"p{percentile:.1f}")


class Outcome:
    """Attempted/failed operation counts and output-check failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(f"{count} failed: {why}")

    def check(self, condition: bool, why: str) -> None:
        if not condition:
            self.problems.append(why)

    @property
    def correct(self) -> bool:
        return not self.problems

    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


# -- host --------------------------------------------------------------------


def calibration_s(rounds: int = 3) -> float:
    """Median time of a fixed pure-Python loop (normalises machines)."""

    def loop() -> int:
        total = 0
        for index in range(1_000_000):
            total += index * index % 7
        return total

    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        loop()
        times.append(time.perf_counter() - started)
    return median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_metadata() -> Dict:
    return {
        "python": platform.python_version(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "calibration_s": round(calibration_s(), 6),
    }


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- checkout ----------------------------------------------------------------


def repo_root() -> str:
    """The checkout this benchmark lives in; raises :class:`BenchError`
    unless it holds the program's sources."""

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError(
            f"{root} holds no src/repro package: run from a full checkout"
        )
    return root


def use_checkout_sources(root: str) -> None:
    """Import ``repro`` from this checkout, never from an installed copy."""

    src = os.path.join(root, "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)


def child_env(root: str, **extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_CACHE_DIR", None)
    env.update(extra)
    return env


def source_digest(root: str) -> str:
    """Digest of the program's sources: the identity of one commit."""

    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


class Ledger:
    """Result fingerprints and model counts seen by earlier runs of the
    same sources in this checkout, so repeats can be checked exactly.

    Kept in ``.perfbench/ledger-<source digest>.json``; workloads share
    it, which is how the service's results are compared with the sweep's.
    """

    def __init__(self, root: str) -> None:
        directory = os.path.join(root, ".perfbench")
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, f"ledger-{source_digest(root)}.json")
        try:
            with open(self.path) as handle:
                self.data = json.load(handle)
        except (OSError, ValueError):
            self.data = {}
        self.data.setdefault("fingerprints", {})
        self.data.setdefault("counts", {})

    def check_fingerprints(
        self, fingerprints: Dict[str, str], outcome: Outcome, where: str
    ) -> int:
        """Record new keys; report keys whose fingerprint changed. Returns
        how many keys were compared with an earlier record."""

        known = self.data["fingerprints"]
        compared = 0
        for key, fingerprint in fingerprints.items():
            if key in known:
                compared += 1
                outcome.check(
                    known[key] == fingerprint,
                    f"{where}: result for {key} differs from an earlier run",
                )
            else:
                known[key] = fingerprint
        return compared

    def check_counts(
        self, workload: str, counts: Dict[str, float], outcome: Outcome
    ) -> None:
        known = self.data["counts"].setdefault(workload, {})
        for name, value in counts.items():
            if name in known:
                outcome.check(
                    known[name] == value,
                    f"{workload}: {name} = {value}, an earlier run had {known[name]}",
                )
            else:
                known[name] = value

    def save(self) -> None:
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.data, handle, sort_keys=True)
        os.replace(tmp, self.path)


# -- child processes -----------------------------------------------------------


class Child:
    """A ``python perfbench/child.py ...`` process whose stdout lines are
    timestamped as they arrive (``ready``/``done`` markers), so set-up
    and completion times are measured from the launch, outside the child."""

    def __init__(self, root: str, args: Sequence[str], env: Dict[str, str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        self.marks: Dict[str, float] = {}
        self.rss_mb = 0.0

    def wait(self, timeout_s: float) -> int:
        """Read markers until the child exits, killing it at ``timeout_s``;
        returns its exit code (negative when killed) and keeps its peak RSS."""

        def read_marks() -> None:
            for line in self.proc.stdout:
                mark = line.strip()
                if mark and mark not in self.marks:
                    self.marks[mark] = time.perf_counter() - self.started
            self.proc.stdout.close()

        self.rss_mb = reap(self.proc, timeout_s, read_marks)
        return self.proc.returncode


def reap(proc: subprocess.Popen, timeout_s: float, before=None) -> float:
    """Wait for ``proc`` (after ``before()``, if given), killing it at
    ``timeout_s``; reaps it with ``wait4``, sets its return code and
    returns its peak RSS in MB."""

    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        if before is not None:
            before()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0
