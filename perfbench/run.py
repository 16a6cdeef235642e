"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload walk-heavy --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the host's metadata. Metrics a workload does not
reach are printed as 0 and listed above the table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from benchlib import BenchError, Ledger, host_metadata, repo_root, use_checkout_sources

WORKLOADS = ("walk-heavy", "tlb-resident", "sweep", "service")


class Context:
    """Where a run may read and write: the checkout, a private work
    directory under ``.perfbench/`` and the shared result ledger."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.work_dir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
        os.makedirs(self.work_dir)
        self.ledger = Ledger(root)
        self.notes: list = []

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _module(workload: str):
    if workload in ("walk-heavy", "tlb-resident"):
        import wl_sim as module
    elif workload == "sweep":
        import wl_sweep as module
    else:
        import wl_service as module
    return module


def declared_metrics(root: str):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def run_one(args, root: str) -> int:
    end_to_end, per_layer = declared_metrics(root)
    declared = per_layer if args.trace else end_to_end
    ctx = Context(root)
    try:
        # The first import (and its bytecode compile) happens here, before
        # any set-up is timed.
        import repro.system  # noqa: F401

        metrics, outcome = _module(args.workload).run(
            args.workload, args.seed, float(args.seconds), bool(args.trace), ctx
        )
        ctx.ledger.save()
    finally:
        ctx.close()

    unknown = sorted(set(metrics.values) - {m["name"] for m in end_to_end + per_layer})
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = [m["name"] for m in declared if m["name"] not in metrics.values]
    if not args.trace and missing:
        outcome.problems.append(f"end-to-end metrics not measured: {missing}")

    for note in ctx.notes:
        print(f"note: {note}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    if args.trace and missing:
        print(f"not reached by {args.workload} (printed as 0): {', '.join(missing)}")
    print(f"{'metric':44s} {'value':>16s} {'unit':8s} samples")
    payload = {}
    for metric in declared:
        name = metric["name"]
        value = metrics.values.get(name, 0.0)
        payload[name] = {"value": value, "unit": metric["unit"]}
        if name in metrics.values:
            note = metrics.notes.get(name, "")
            print(f"{name:44s} {value:16.6g} {metric['unit']:8s} "
                  f"n={metrics.samples[name]} {note}".rstrip())
    print(json.dumps({"host": host_metadata(), "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": payload,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        started = time.perf_counter()
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload} exited with {proc.returncode}")
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
        print(f"({time.perf_counter() - started:.1f} s)", flush=True)
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        root = repo_root()
        use_checkout_sources(root)
        if args.workload == "all":
            return run_all(args)
        return run_one(args, root)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
