"""Content-addressed shared result store.

Simulation results are cached on disk keyed by the experiment cache key
(:func:`repro.experiments.common.cache_key`), addressed by content
identity: the file name is the sha256 digest of the key, so any worker
process, remote worker host, or service replica that computes the same
``(app, config, scale)`` simulation reads and writes the same entry.

Layout: a sharded two-level directory tree,

    <root>/<digest[:2]>/<digest[2:4]>/<digest>.json

which keeps directory fan-out bounded when millions of entries share one
store (a flat directory degrades most filesystems long before that).
Pre-sharding stores wrote ``<root>/<digest>.json``; :meth:`ResultStore.load`
still reads those flat entries and opportunistically migrates them into
their shard with an atomic rename, so upgrading never discards warm
results.

Durability and concurrency, which many writers on many hosts require:

- Writes go to a private temp file that is flushed and fsynced *before*
  the atomic ``os.replace`` publishes it (plus a best-effort fsync of the
  shard directory), so a crash mid-store can orphan a ``.tmp`` file but
  never publish a truncated entry.
- Bad entries are quarantined under a unique ``.<pid>-<seq>.corrupt``
  suffix; two processes racing to quarantine the same entry cannot
  collide, and the loser tolerates the winner having already moved it.
- Module-wide hit/miss/store/quarantine/evict counters (thread-safe, one
  set per process) are surfaced by ``SweepReport.store``, ``/healthz``
  and ``repro cache stats``.

:data:`RESULTS` is the one cache API in front of the store: a bounded
in-memory LRU (:data:`MEMORY_ENTRIES`) that falls through to an optional
:class:`ResultStore`. Only the process that owns a sweep probes and
writes it — ``run_app`` and :class:`~repro.sim.runner.SweepRunner`;
executor workers only simulate. The LRU counts its own ``memory_hits``,
``memory_misses`` and ``memory_evictions``, so ``hits``/``misses`` keep
meaning disk-store lookups.

``repro cache {stats,gc,verify}`` exposes :meth:`ResultStore.stats`,
:meth:`ResultStore.gc` (orphaned temp files, quarantined debris, stale
schemas, optional age expiry) and :meth:`ResultStore.verify` (full scan
with optional per-entry fingerprints for byte-identity comparisons).

The (de)serialization of entries stays in :mod:`repro.experiments.common`
(``serialize_result`` / ``deserialize_result`` / ``CACHE_SCHEMA``) and is
imported lazily here; ``common`` imports this module at top level.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
import time
from collections import OrderedDict
from itertools import count as _counter
from typing import Dict, Iterator, List, Optional, Tuple

_LOG = logging.getLogger("repro.sim.store")

#: Counter names tracked per process (all store roots combined). The
#: ``memory_*`` ones count :data:`RESULTS`' in-memory front; the rest count
#: disk-store operations.
COUNTER_NAMES = (
    "hits", "misses", "stale", "stores", "quarantined", "evicted",
    "memory_hits", "memory_misses", "memory_evictions",
)

#: Most results :data:`RESULTS` keeps in memory. Every ``sweep_jobs*()``
#: grid in :mod:`repro.experiments` together has 395 unique keys, so
#: ``repro report`` without a disk store never re-simulates; a pickled
#: result is 3.5-15 KB.
MEMORY_ENTRIES = 512

_COUNTER_LOCK = threading.Lock()
_COUNTERS: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

#: Monotonic per-process sequence making quarantine file names unique.
_QUARANTINE_SEQ = _counter(1)


def _count(name: str, amount: int = 1) -> None:
    with _COUNTER_LOCK:
        _COUNTERS[name] += amount


def counters_snapshot() -> Dict[str, int]:
    """A point-in-time copy of the process-wide store counters."""

    with _COUNTER_LOCK:
        return dict(_COUNTERS)


def counters_delta(before: Dict[str, int]) -> Dict[str, int]:
    """Counter increments since ``before`` (a :func:`counters_snapshot`)."""

    after = counters_snapshot()
    return {name: after[name] - before.get(name, 0) for name in COUNTER_NAMES}


def reset_counters() -> None:
    """Zero the process-wide counters (test isolation)."""

    with _COUNTER_LOCK:
        for name in COUNTER_NAMES:
            _COUNTERS[name] = 0


def key_digest(key: str) -> str:
    """The content address of one cache key (24 hex chars of sha256).

    Unchanged from the pre-sharding flat layout, so promoting a store to
    the sharded tree is purely a path change — no entry is re-keyed.
    """

    return hashlib.sha256(key.encode()).hexdigest()[:24]


def _fsync_dir(path: str) -> None:
    # Durability of the rename itself; best-effort because not every
    # platform/filesystem allows opening a directory for fsync.
    try:
        dir_fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


class ResultStore:
    """One on-disk result store rooted at ``root``.

    Construction is cheap (no I/O); every method tolerates the root not
    existing yet. All processes sharing ``root`` — pool workers, remote
    ``repro worker`` hosts, service replicas — interoperate through
    atomic renames only.
    """

    def __init__(self, root: str) -> None:
        if not root:
            raise ValueError("ResultStore needs a non-empty root directory")
        self.root = root

    # -- paths -------------------------------------------------------------

    def path_for(self, key: str) -> str:
        digest = key_digest(key)
        return os.path.join(self.root, digest[:2], digest[2:4], f"{digest}.json")

    def legacy_path_for(self, key: str) -> str:
        """Where the pre-sharding flat layout kept this entry."""

        return os.path.join(self.root, f"{key_digest(key)}.json")

    # -- read / write ------------------------------------------------------

    def load(self, key: str):
        """The stored :class:`~repro.sim.results.SimResult` for ``key``,
        or ``None`` (absent, stale schema, or quarantined-as-corrupt)."""

        from repro.experiments.common import CACHE_SCHEMA, deserialize_result

        path = self.path_for(key)
        if not os.path.exists(path):
            path = self._migrate_legacy(key, path)
            if path is None:
                _count("misses")
                return None
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            # Raced a concurrent quarantine/gc: treat as a plain miss.
            _count("misses")
            return None
        except (OSError, ValueError):
            self.quarantine(path, "corrupt (unreadable or invalid JSON)")
            _count("misses")
            return None
        if not isinstance(payload, dict):
            self.quarantine(path, "corrupt (not a JSON object)")
            _count("misses")
            return None
        if payload.get("schema") != CACHE_SCHEMA:
            # A stale (pre-versioning or different-version) payload:
            # re-simulate and let the fresh result overwrite it in place.
            _LOG.warning(
                "cache file %s has schema %r (want %r); re-simulating",
                path,
                payload.get("schema"),
                CACHE_SCHEMA,
            )
            _count("stale")
            _count("misses")
            return None
        try:
            result = deserialize_result(payload)
        except (KeyError, TypeError):
            self.quarantine(path, "corrupt (schema tag valid but fields malformed)")
            _count("misses")
            return None
        _count("hits")
        return result

    def _migrate_legacy(self, key: str, sharded_path: str) -> Optional[str]:
        """Move a flat-layout entry into its shard; the readable path, or
        ``None`` when the entry exists in neither layout."""

        legacy = self.legacy_path_for(key)
        if not os.path.exists(legacy):
            return None
        os.makedirs(os.path.dirname(sharded_path), exist_ok=True)
        try:
            os.replace(legacy, sharded_path)
        except FileNotFoundError:
            # A concurrent reader migrated it first; fall through to
            # whichever path exists now.
            pass
        except OSError:
            # Can't migrate (permissions, cross-device…): read in place.
            return legacy
        if os.path.exists(sharded_path):
            return sharded_path
        return legacy if os.path.exists(legacy) else None

    def store(self, key: str, result) -> None:
        """Durably publish ``result`` under ``key`` (atomic overwrite)."""

        from repro.experiments.common import serialize_result

        path = self.path_for(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        # Concurrent writers (pool workers, remote workers, replicas) may
        # store the same key at once: write to a private temp file, fsync
        # it, and atomically replace — readers only ever observe complete
        # payloads, the last writer wins with a fully valid file, and a
        # crash mid-write can orphan a .tmp but never truncate the entry.
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(serialize_result(result), handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        _fsync_dir(directory)
        _count("stores")

    def quarantine(self, path: str, reason: str) -> None:
        """Move a bad entry aside so it is kept for debugging but never
        consulted (or silently overwritten) again.

        The quarantined name carries a ``<pid>-<seq>`` suffix so that two
        processes racing to quarantine the same entry cannot collide on
        one destination; the loser of the ``os.replace`` race observes
        ``FileNotFoundError`` and simply stands down.
        """

        quarantined = f"{path}.{os.getpid()}-{next(_QUARANTINE_SEQ)}.corrupt"
        try:
            os.replace(path, quarantined)
        except FileNotFoundError:
            # The other racer already quarantined (or gc removed) it.
            _LOG.debug("cache file %s was %s; another process quarantined it first", path, reason)
            return
        except OSError:
            _LOG.warning("cache file %s is %s and could not be quarantined", path, reason)
            return
        _count("quarantined")
        _LOG.warning(
            "cache file %s is %s; quarantined to %s and re-simulating",
            path,
            reason,
            quarantined,
        )

    # -- maintenance (repro cache {stats,gc,verify}) -----------------------

    def _walk(self) -> Iterator[Tuple[str, List[str]]]:
        if not os.path.isdir(self.root):
            return
        for dirpath, _dirnames, filenames in os.walk(self.root):
            yield dirpath, filenames

    def scan(self) -> Iterator[str]:
        """Paths of every published entry (flat and sharded layouts)."""

        for dirpath, filenames in self._walk():
            for name in sorted(filenames):
                if name.endswith(".json"):
                    yield os.path.join(dirpath, name)

    def scan_debris(self) -> Tuple[List[str], List[str]]:
        """(orphaned ``.tmp`` files, quarantined ``.corrupt`` files)."""

        tmp_files: List[str] = []
        corrupt: List[str] = []
        for dirpath, filenames in self._walk():
            for name in sorted(filenames):
                if name.endswith(".tmp"):
                    tmp_files.append(os.path.join(dirpath, name))
                elif name.endswith(".corrupt"):
                    corrupt.append(os.path.join(dirpath, name))
        return tmp_files, corrupt

    def stats(self) -> Dict:
        """Scan-based shape of the store plus the process counters."""

        entries = 0
        legacy_entries = 0
        total_bytes = 0
        for path in self.scan():
            entries += 1
            if os.path.dirname(path) == self.root.rstrip(os.sep):
                legacy_entries += 1
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        tmp_files, corrupt = self.scan_debris()
        return {
            "root": self.root,
            "entries": entries,
            "legacy_flat_entries": legacy_entries,
            "total_bytes": total_bytes,
            "tmp_files": len(tmp_files),
            "quarantined_files": len(corrupt),
            "counters": counters_snapshot(),
        }

    def gc(
        self,
        max_age_s: Optional[float] = None,
        tmp_grace_s: float = 3600.0,
        dry_run: bool = False,
    ) -> Dict:
        """Sweep debris: orphaned temp files older than ``tmp_grace_s``
        (a live writer holds its temp file for milliseconds), quarantined
        ``.corrupt`` files, stale-schema entries, and — when ``max_age_s``
        is given — entries older than that. Empty shard directories are
        pruned. Returns what was (or would be, with ``dry_run``) removed.
        """

        from repro.experiments.common import CACHE_SCHEMA

        now = time.time()
        removed = {"tmp": 0, "corrupt": 0, "stale": 0, "expired": 0, "dirs": 0}

        def _remove(path: str, bucket: str) -> None:
            if not dry_run:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    return
                except OSError:
                    _LOG.warning("cache gc could not remove %s", path)
                    return
            removed[bucket] += 1

        tmp_files, corrupt = self.scan_debris()
        for path in tmp_files:
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                continue
            if age >= tmp_grace_s:
                _remove(path, "tmp")
        for path in corrupt:
            _remove(path, "corrupt")
        for path in self.scan():
            try:
                with open(path) as handle:
                    payload = json.load(handle)
                schema = payload.get("schema") if isinstance(payload, dict) else None
            except (OSError, ValueError):
                schema = None
            if schema != CACHE_SCHEMA:
                _remove(path, "stale")
                continue
            if max_age_s is not None:
                try:
                    age = now - os.path.getmtime(path)
                except OSError:
                    continue
                if age >= max_age_s:
                    _remove(path, "expired")
        if not dry_run and os.path.isdir(self.root):
            # Bottom-up so emptied leaf shards expose empty parents;
            # rmdir itself is the emptiness check (it fails on non-empty
            # dirs, and the walk's cached listings are already stale).
            for dirpath, _dirnames, _filenames in os.walk(self.root, topdown=False):
                if dirpath == self.root:
                    continue
                try:
                    os.rmdir(dirpath)
                    removed["dirs"] += 1
                except OSError:
                    pass
        evicted = removed["corrupt"] + removed["stale"] + removed["expired"]
        if evicted and not dry_run:
            _count("evicted", evicted)
        removed["dry_run"] = dry_run
        return removed

    def verify(self, fingerprints: bool = False) -> Dict:
        """Scan and validate every entry; optionally compute per-entry
        result fingerprints (sorted by digest) for byte-identity
        comparisons between two stores (the CI remote-executor smoke
        diffs these between a remote-run and a serial-run store)."""

        from repro.experiments.common import (
            CACHE_SCHEMA,
            deserialize_result,
            result_fingerprint,
        )

        checked = 0
        ok = 0
        stale: List[str] = []
        corrupt: List[str] = []
        prints: List[Tuple[str, str]] = []
        for path in self.scan():
            checked += 1
            try:
                with open(path) as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                corrupt.append(path)
                continue
            if not isinstance(payload, dict):
                corrupt.append(path)
                continue
            if payload.get("schema") != CACHE_SCHEMA:
                stale.append(path)
                continue
            try:
                result = deserialize_result(payload)
            except (KeyError, TypeError):
                corrupt.append(path)
                continue
            ok += 1
            if fingerprints:
                digest = os.path.basename(path)[: -len(".json")]
                prints.append((digest, result_fingerprint(result)))
        report: Dict = {
            "root": self.root,
            "checked": checked,
            "ok": ok,
            "stale": sorted(stale),
            "corrupt": sorted(corrupt),
        }
        if fingerprints:
            report["fingerprints"] = sorted(prints)
        return report


class ResultCache:
    """A bounded in-memory LRU in front of the optional disk store.

    ``root`` names the disk store on every call (``""``: memory only), so
    the store directory stays the caller's setting
    (``repro.experiments.common._CACHE_DIR``). Results found on disk are
    remembered in memory; :meth:`put` writes both.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, object]" = OrderedDict()

    def get(self, key: str, root: str = ""):
        """The cached result for ``key``, or ``None``: memory first, then
        the disk store under ``root`` (one disk probe per memory miss)."""

        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                self._memory.move_to_end(key)
        _count("memory_hits" if result is not None else "memory_misses")
        if result is not None or not root:
            return result
        result = ResultStore(root).load(key)
        if result is not None:
            self._remember(key, result)
        return result

    def put(self, key: str, result, root: str = "") -> None:
        """Remember ``result`` and, with a ``root``, publish it on disk."""

        self._remember(key, result)
        if root:
            ResultStore(root).store(key, result)

    def _remember(self, key: str, result) -> None:
        evicted = 0
        with self._lock:
            self._memory[key] = result
            self._memory.move_to_end(key)
            while len(self._memory) > MEMORY_ENTRIES:
                self._memory.popitem(last=False)
                evicted += 1
        if evicted:
            _count("memory_evictions", evicted)

    def clear(self) -> None:
        """Forget every in-memory result (the disk store is untouched)."""

        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)


#: The process's one result cache.
RESULTS = ResultCache()
