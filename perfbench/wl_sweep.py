"""The ``sweep`` workload: the fig13 grid through ``SweepRunner``.

The grid at scale 0.05 submits 90 jobs, 70 of them unique, so the
runner's dedup is exercised. A cold phase runs in a fresh process on an
empty ``ResultStore`` with the pool executor at ``nproc`` workers
(simulation plus store writes); warm phases run in fresh processes on the
same store (reads only). Each phase is timed from process launch, because
users pay process start. The seed permutes the grid's submission order.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from benchlib import Child, Metrics, Outcome, child_env, median, nproc

SCALE = 0.05
#: Warm phases per run: enough for a tail with ten samples beyond it.
WARM_PHASES = 25
COLD_TIMEOUT_S = 150.0
WARM_TIMEOUT_S = 30.0

LAYER_METRICS = [
    "runner.sim_s",
    "runner.pool_util",
    "runner.dedup_collapsed",
    "store.hits",
    "store.misses",
    "store.files_written",
    "store.stores_reported",
    "store.warm_load_s",
]


def _phase(ctx, store_dir: str, seed: int, tag: str, timeout_s: float, outcome: Outcome):
    """One runner process; returns ``(child, payload or None)``."""

    out = os.path.join(ctx.work_dir, f"sweep-{tag}.json")
    child = Child(
        ctx.root,
        ["sweep", "--scale", str(SCALE), "--workers", str(nproc()),
         "--seed", str(seed), "--out", out],
        child_env(ctx.root, REPRO_CACHE_DIR=store_dir),
    )
    code = child.wait(timeout_s)
    if code != 0 or "done" not in child.marks:
        outcome.problems.append(f"{tag} phase exited with {code}")
        return child, None
    with open(out) as handle:
        return child, json.load(handle)


def _count_failures(payload: Optional[Dict], unique: int, outcome: Outcome, tag: str) -> None:
    """Every unique job of a phase is one operation. A phase that crashed
    or timed out fails all of them; otherwise the report's failures count."""

    outcome.attempt(unique)
    if payload is None:
        outcome.fail(unique, f"{tag} phase did not finish")
        return
    failures = payload["report"]["failures"]
    if failures:
        outcome.fail(len(failures), f"{tag} phase: {failures[0]['error']}")


def _store_files(store_dir: str) -> int:
    return sum(
        1
        for _, _, files in os.walk(store_dir)
        for name in files
        if name.endswith(".json")
    )


def run(workload: str, seed: int, seconds: float, trace: bool, ctx) -> Tuple[Metrics, Outcome]:
    from repro.experiments.fig13_main import sweep_jobs

    metrics, outcome = Metrics(), Outcome()
    unique = len({job.key() for job in sweep_jobs(scale=SCALE)})
    store_dir = os.path.join(ctx.work_dir, "store")
    cold_child, cold = _phase(ctx, store_dir, seed, "cold", COLD_TIMEOUT_S, outcome)
    _count_failures(cold, unique, outcome, "cold")
    setup = [cold_child.marks["ready"]] if "ready" in cold_child.marks else []
    if cold is None:
        return metrics, outcome
    report = cold["report"]
    files_written = _store_files(store_dir)
    outcome.check(report["unique_jobs"] == unique, f"cold phase saw {report['unique_jobs']} unique jobs")
    outcome.check(files_written == unique, f"cold phase left {files_written} store entries, want {unique}")
    compared = ctx.ledger.check_fingerprints(cold["fingerprints"], outcome, "sweep cold phase")

    warm_ops: List[float] = []
    warm_loads: List[float] = []
    warm_hits: List[int] = []
    index = 0
    while index < WARM_PHASES:
        index += 1
        child, warm = _phase(ctx, store_dir, seed + index, f"warm{index}", WARM_TIMEOUT_S, outcome)
        _count_failures(warm, unique, outcome, f"warm{index}")
        if "ready" in child.marks:
            setup.append(child.marks["ready"])
        if warm is None:
            continue
        warm_ops.append(child.marks["done"])
        warm_loads.append(warm["report"]["wall_clock_s"])
        warm_hits.append(warm["report"]["store"].get("hits", 0))
        outcome.check(
            warm["report"]["jobs_simulated"] == 0 and warm["report"]["cache_hits"] == unique,
            f"warm{index} simulated {warm['report']['jobs_simulated']} job(s)",
        )
        outcome.check(
            warm["fingerprints"] == cold["fingerprints"],
            f"warm{index} results differ from the cold phase",
        )

    timings = [t for t in report["timings"] if not t["cached"]]
    sim_s = sum(t["duration_s"] for t in timings)
    translations = sum(cold["translations"].get(t["key"], 0.0) for t in timings)
    if sim_s > 0:
        metrics.put("sim_tx_per_s", translations / sim_s, len(timings))
    metrics.put_latencies("op_cold", [cold_child.marks["done"]])
    if warm_ops:
        metrics.put_latencies("op_warm", warm_ops)
    if setup:
        metrics.put("setup_s", median(setup), len(setup))
    metrics.put("peak_rss_mb", max(cold_child.rss_mb, cold["children_rss_mb"]))
    metrics.put("ok_share", outcome.ok_share(), outcome.attempted)

    metrics.put("runner.sim_s", sim_s, len(timings))
    metrics.put("runner.pool_util", sim_s / (report["wall_clock_s"] * report["workers"]))
    metrics.put("runner.dedup_collapsed", report["jobs_submitted"] - report["unique_jobs"])
    metrics.put("store.misses", report["store"].get("misses", 0))
    metrics.put("store.files_written", files_written)
    metrics.put("store.stores_reported", report["store"].get("stores", 0))
    if warm_loads:
        metrics.put("store.hits", median(warm_hits), len(warm_hits))
        metrics.put("store.warm_load_s", median(warm_loads), len(warm_loads))
    ctx.notes.append(
        f"cold phase: {report['jobs_submitted']} submitted, {report['unique_jobs']} unique, "
        f"{report['jobs_simulated']} simulated on {report['workers']} worker(s); "
        f"{compared} result(s) compared with earlier runs"
    )
    return metrics, outcome
