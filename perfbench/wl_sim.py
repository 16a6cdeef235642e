"""The ``walk-heavy`` and ``tlb-resident`` workloads: simulations timed
in-process through the public API, ``GPUSystem(config).run(make_app(...))``.

Both run three Table 2 apps under the ``baseline`` and ``icache+lds``
arms. High-PTW-PKI apps at scale 0.2 send most translations to the IOMMU
walker; Low-PTW-PKI apps at scale 2.0 are served by the L2 TLB or the
victim caches and launch many kernels (SSSP 300, PRK 41), which loads the
per-kernel path. The seed only permutes job order: access streams are
fixed by the app names.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from typing import Dict, List, NamedTuple, Tuple

from benchlib import Child, Metrics, Outcome, child_env, median, name_part, self_peak_rss_mb
from tracer import ROOT_SPAN, SPAN_NAMES, LayerTracer

ARMS = ("baseline", "icache+lds")

WORKLOADS: Dict[str, Tuple[Tuple[str, ...], float]] = {
    "walk-heavy": (("ATAX", "GEV", "GUPS"), 0.2),
    "tlb-resident": (("SRAD", "PRK", "SSSP"), 2.0),
}

#: Host seconds of one pass over a workload's six jobs, roughly, on a
#: 2-vCPU Xeon sandbox; ``--seconds`` buys this many passes.
NOMINAL_PASS_S = {"walk-heavy": 13.0, "tlb-resident": 8.0}
#: Warm processes per run: enough for a tail with ten samples beyond it.
WARM_PROCESSES = 25
CHILD_TIMEOUT_S = 60.0

LAYER_METRICS = (
    [f"{name}.{kind}" for name in SPAN_NAMES[1:] for kind in ("calls", "self_s")]
    + [
        "core.translate.total_s",
        "tlb.l1.hit_ratio",
        "tlb.l2.hit_ratio",
        "core.lds_tx.hit_ratio",
        "core.icache_tx.hit_ratio",
        "system.run.total_s",
        "unattributed_s",
        "trace.overhead_ratio",
        "model.translations",
        "model.walks",
        "model.victim_hits",
        "model.sim_cycles",
    ]
    + [
        f"job.{app}.{name_part(arm)}.host_s"
        for apps, _ in WORKLOADS.values()
        for app in apps
        for arm in ARMS
    ]
)


def _jobs(workload: str) -> List[Tuple[str, str, float]]:
    apps, scale = WORKLOADS[workload]
    return [(app, arm, scale) for app in apps for arm in ARMS]


def _simulate(job: Tuple[str, str, float]):
    """One job as a user runs it; returns ``(result, host seconds)``."""

    from repro.config import TxScheme, table1_config
    from repro.system import GPUSystem
    from repro.workloads.registry import make_app

    app_name, arm, scale = job
    config = table1_config(TxScheme(arm))
    started = time.perf_counter()
    result = GPUSystem(config).run(make_app(app_name, scale=scale, page_size=config.page_size))
    return result, time.perf_counter() - started


class Done(NamedTuple):
    """What a pass keeps of one job: the full result is dropped at once, so
    peak memory does not depend on job order."""

    job: Tuple[str, str, float]
    seconds: float
    fingerprint: str
    counters: Dict[str, float]
    cycles: int


def _pass(jobs, outcome: Outcome, store=None) -> List[Done]:
    """Run every job once, in the given order; ``store`` keeps the results."""

    from repro.experiments.common import result_fingerprint

    done = []
    for job in jobs:
        # A GPUSystem is full of reference cycles; collect the last job's
        # before the next one starts, so peak RSS is the largest job's own
        # and does not depend on job order.
        gc.collect()
        outcome.attempt()
        try:
            result, seconds = _simulate(job)
        except Exception as error:  # a failed job is counted, not fatal
            outcome.fail(1, f"{job}: {error!r}")
            continue
        if store is not None:
            store.store(_key(job), result)
        done.append(Done(job, seconds, result_fingerprint(result), result.counters, result.cycles))
    return done


def _key(job) -> str:
    from repro.config import TxScheme, table1_config
    from repro.experiments.common import cache_key

    app, arm, scale = job
    return cache_key(app, table1_config(TxScheme(arm)), scale)


def _fingerprints(done: List[Done]) -> Dict[str, str]:
    return {_key(d.job): d.fingerprint for d in done}


def _model_counts(done: List[Done]) -> Dict[str, float]:
    return {
        "model.translations": sum(d.counters.get("translations", 0.0) for d in done),
        "model.walks": sum(d.counters.get("walker.walks", 0.0) for d in done),
        "model.victim_hits": sum(
            d.counters.get("tx_serviced_by.lds", 0.0) + d.counters.get("tx_serviced_by.icache", 0.0)
            for d in done
        ),
        "model.sim_cycles": float(sum(d.cycles for d in done)),
    }


def _check_repeat(done, workload, ledger, outcome, where) -> None:
    ledger.check_fingerprints(_fingerprints(done), outcome, where)
    if len(done) == len(_jobs(workload)):
        ledger.check_counts(workload, _model_counts(done), outcome)


def run(workload: str, seed: int, seconds: float, trace: bool, ctx) -> Tuple[Metrics, Outcome]:
    if trace:
        return _traced(workload, seed, ctx)
    metrics, outcome = Metrics(), Outcome()
    jobs = _jobs(workload)
    rng = random.Random(seed)

    from repro.sim.store import ResultStore

    # A fixed number of passes for a given --seconds, so the median always
    # has the same make-up (the first pass runs slower than later ones).
    # The first pass stores its results for the warm phase.
    store_dir = os.path.join(ctx.work_dir, "store")
    passes = max(1, int(seconds // NOMINAL_PASS_S[workload]))
    throughput: List[float] = []
    pass_seconds: List[float] = []
    first = None
    for index in range(passes):
        order = list(jobs)
        rng.shuffle(order)
        done = _pass(order, outcome, ResultStore(store_dir) if index == 0 else None)
        if done:
            pass_seconds.append(sum(d.seconds for d in done))
            throughput.append(
                sum(d.counters.get("translations", 0.0) for d in done) / pass_seconds[-1]
            )
            _check_repeat(done, workload, ctx.ledger, outcome, "cold pass")
        if first is None:
            first = done

    setup, op_warm = _warm(first, store_dir, rng, ctx, outcome)

    if throughput:
        metrics.put("sim_tx_per_s", median(throughput), len(throughput))
        metrics.put_latencies("op_cold", pass_seconds)
    if op_warm:
        metrics.put_latencies("op_warm", op_warm)
    if setup:
        metrics.put("setup_s", median(setup), len(setup))
    metrics.put("peak_rss_mb", self_peak_rss_mb())
    metrics.put("ok_share", outcome.ok_share(), outcome.attempted)
    return metrics, outcome


def _warm(first, store_dir, rng, ctx, outcome) -> Tuple[List[float], List[float]]:
    """Re-query the simulated jobs from the store, each time in a fresh
    process: returns the set-up times (launch until the first
    ``GPUSystem`` is built) and the operation times (launch until every
    job was served)."""

    env = child_env(ctx.root, REPRO_CACHE_DIR=store_dir)
    jobs = json.dumps([list(d.job) for d in first])
    expected = _fingerprints(first)
    out = os.path.join(ctx.work_dir, "warm.json")
    setup: List[float] = []
    op_warm: List[float] = []
    for _ in range(WARM_PROCESSES):
        outcome.attempt(len(first))
        child = Child(
            ctx.root,
            ["warm-load", "--jobs", jobs, "--seed", str(rng.randrange(1 << 30)), "--out", out],
            env,
        )
        code = child.wait(CHILD_TIMEOUT_S)
        if code != 0 or "done" not in child.marks:
            outcome.fail(len(first), f"warm-load exited with {code}")
            continue
        setup.append(child.marks["ready"])
        op_warm.append(child.marks["done"])
        with open(out) as handle:
            warm = json.load(handle)
        outcome.check(warm["fingerprints"] == expected, "warm results differ from the simulated ones")
        outcome.check(
            warm["store"].get("hits") == len(first) and warm["store"].get("misses") == 0,
            f"warm phase was not all store hits: {warm['store']}",
        )
    return setup, op_warm


def _traced(workload: str, seed: int, ctx) -> Tuple[Metrics, Outcome]:
    """One untraced pass (job host times, the baseline for the tracing
    overhead) and one traced pass (the per-layer split)."""

    metrics, outcome = Metrics(), Outcome()
    order = _jobs(workload)
    random.Random(seed).shuffle(order)

    plain = _pass(order, outcome)
    for d in plain:
        app, arm, _ = d.job
        metrics.put(f"job.{app}.{name_part(arm)}.host_s", d.seconds)
    _check_repeat(plain, workload, ctx.ledger, outcome, "untraced pass")

    tracer = LayerTracer().install()
    try:
        traced = _pass(order, outcome)
    finally:
        tracer.uninstall()
    outcome.check(
        _fingerprints(traced) == _fingerprints(plain),
        "tracing changed a simulation result",
    )
    if len(plain) != len(order) or len(traced) != len(order):
        return metrics, outcome

    for name in SPAN_NAMES[1:]:
        totals = tracer.totals[name]
        metrics.put(f"{name}.calls", totals.calls)
        metrics.put(f"{name}.self_s", totals.self_s)
    metrics.put("core.translate.total_s", tracer.totals["core.translate"].total_s)
    for name in ("tlb.l1.lookup", "tlb.l2.lookup", "core.lds_tx.lookup", "core.icache_tx.tx_lookup"):
        ratio = tracer.hit_ratio(name)
        layer = name.rsplit(".", 1)[0]
        if ratio is not None:
            metrics.put(f"{layer}.hit_ratio", ratio, tracer.totals[name].calls)
    total = tracer.totals[ROOT_SPAN].total_s
    unattributed = tracer.unattributed_s()
    metrics.put("system.run.total_s", total, tracer.totals[ROOT_SPAN].calls)
    metrics.put("unattributed_s", unattributed)
    outcome.check(
        abs(tracer.layer_self_sum() + unattributed - total) <= 1e-6 * total,
        "layer self times plus unattributed do not sum to the GPUSystem.run total",
    )
    plain_s = sum(d.seconds for d in plain)
    traced_s = sum(d.seconds for d in traced)
    metrics.put("trace.overhead_ratio", traced_s / plain_s)
    for name, value in _model_counts(plain).items():
        metrics.put(name, value)
    return metrics, outcome
