"""Work that must run in a fresh process, driven by the workload modules.

Prints ``ready`` once set-up is done and ``done`` once the measured work
returned; the parent timestamps both lines as they arrive. Anything else
is written as JSON to ``--out``. Modes:

- ``sweep``: run the fig13 grid through ``SweepRunner`` on the pool
  executor against the store in ``REPRO_CACHE_DIR``;
- ``warm-load``: build the first job's ``GPUSystem`` (the sim workloads'
  set-up), then re-query the jobs through ``run_app`` from the store in
  ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys


def _say(mark: str) -> None:
    print(mark, flush=True)


def sweep(args) -> dict:
    from repro.experiments.common import result_fingerprint
    from repro.experiments.fig13_main import sweep_jobs
    from repro.sim.runner import SweepRunner

    jobs = sweep_jobs(scale=args.scale)
    random.Random(args.seed).shuffle(jobs)
    runner = SweepRunner(jobs=args.workers, keep_going=True, executor="pool")
    _say("ready")
    results, report = runner.run_with_report(jobs)
    _say("done")
    fingerprints, translations = {}, {}
    for job, result in zip(jobs, results):
        if result is not None:
            key = job.key()
            fingerprints[key] = result_fingerprint(result)
            translations[key] = result.counters.get("translations", 0.0)
    return {
        "report": report.to_json(),
        "fingerprints": fingerprints,
        "translations": translations,
    }


def warm_load(args) -> dict:
    from repro.config import TxScheme, table1_config
    from repro.experiments.common import cache_key, result_fingerprint, run_app
    from repro.sim import store
    from repro.system import GPUSystem

    jobs = [(app, TxScheme(arm), scale) for app, arm, scale in json.loads(args.jobs)]
    GPUSystem(table1_config(jobs[0][1]))
    _say("ready")
    before = store.counters_snapshot()
    random.Random(args.seed).shuffle(jobs)
    served = {}
    for app, scheme, scale in jobs:
        config = table1_config(scheme)
        served[cache_key(app, config, scale)] = run_app(app, config, scale)
    _say("done")
    return {
        "fingerprints": {key: result_fingerprint(result) for key, result in served.items()},
        "store": store.counters_delta(before),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    sweep_parser = sub.add_parser("sweep")
    sweep_parser.add_argument("--scale", type=float, required=True)
    sweep_parser.add_argument("--workers", type=int, required=True)
    warm_parser = sub.add_parser("warm-load")
    warm_parser.add_argument("--jobs", required=True, help="JSON [[app, arm, scale], ...]")
    for mode_parser in (sweep_parser, warm_parser):
        mode_parser.add_argument("--seed", type=int, required=True)
        mode_parser.add_argument("--out", required=True)
    args = parser.parse_args()

    payload = sweep(args) if args.mode == "sweep" else warm_load(args)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    payload["children_rss_mb"] = usage.ru_maxrss / 1024.0
    with open(args.out, "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
