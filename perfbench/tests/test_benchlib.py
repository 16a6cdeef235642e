"""Tests for the benchmark's own arithmetic and its metric declarations.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import random
import re

import pytest

import benchlib
from benchlib import Ledger, Metrics, Outcome, check_name, name_part, self_seconds, tail

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- self time ----------------------------------------------------------------


def test_self_time_without_children_is_the_span():
    assert self_seconds(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_disjoint_children():
    assert self_seconds(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_nested_child_is_covered_once():
    # (2, 3) lies inside (1, 5): the union is (1, 5).
    assert self_seconds(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == pytest.approx(6.0)


def test_overlapping_children_are_merged():
    # (1, 4) and (3, 6) overlap: the union is (1, 6), not 3 + 3.
    assert self_seconds(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]) == pytest.approx(5.0)


def test_children_are_clipped_to_the_span():
    assert self_seconds(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == pytest.approx(2.0)


def test_touching_children_leave_no_gap():
    assert self_seconds(0.0, 4.0, [(0.0, 2.0), (2.0, 4.0)]) == pytest.approx(0.0)


def test_self_time_matches_a_sampled_union():
    rng = random.Random(7)
    for _ in range(50):
        children = []
        for _ in range(rng.randint(0, 6)):
            start = rng.randint(0, 90)
            children.append((float(start), float(start + rng.randint(1, 30))))
        covered = sum(
            1 for tick in range(10, 100)
            if any(a <= tick + 0.5 < b for a, b in children)
        )
        assert self_seconds(10.0, 100.0, children) == pytest.approx(90.0 - covered)


def test_traced_job_layers_sum_to_the_run_total():
    from repro.config import TxScheme, table1_config
    from repro.experiments.common import result_fingerprint
    from repro.system import GPUSystem
    from repro.workloads.registry import make_app
    from tracer import ROOT_SPAN, LayerTracer

    config = table1_config(TxScheme.ICACHE_LDS)
    plain = GPUSystem(config).run(make_app("SRAD", scale=0.05))
    original = GPUSystem.run
    tracer = LayerTracer().install()
    try:
        traced = GPUSystem(config).run(make_app("SRAD", scale=0.05))
    finally:
        tracer.uninstall()
    assert GPUSystem.run is original
    assert result_fingerprint(traced) == result_fingerprint(plain)
    total = tracer.totals[ROOT_SPAN].total_s
    assert tracer.layer_self_sum() + tracer.unattributed_s() == pytest.approx(total, rel=1e-9)
    assert tracer.totals["core.translate"].calls == plain.counters["translations"]
    assert tracer.totals["core.lds_tx.lookup"].calls > 0
    assert 0.0 < tracer.hit_ratio("tlb.l2.lookup") <= 1.0


# -- tail percentile ------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    random.Random(3).shuffle(values)
    value, percentile, count = tail(values)
    assert (value, percentile, count) == (30.0, 75.0, 40)
    assert sum(1 for v in values if v > value) == 10


def test_tail_with_exactly_21_samples_is_the_median_sample():
    value, percentile, count = tail([float(v) for v in range(21)])
    assert value == 10.0
    assert count == 21
    assert percentile == pytest.approx(100.0 * 11 / 21)


def test_tail_of_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail([float(v) for v in range(20)]) == (19.0, 100.0, 20)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])


def test_latencies_print_percentile_and_count():
    metrics = Metrics()
    metrics.put_latencies("op_cold", [float(v) for v in range(100)])
    assert metrics.values["op_cold_p50_s"] == 49.5
    assert metrics.values["op_cold_tail_s"] == 89.0
    assert metrics.samples["op_cold_tail_s"] == 100
    assert metrics.notes["op_cold_tail_s"] == "p90.0"


# -- metric names ----------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "sim_tx_per_s", "job.ATAX.icache-lds.host_s", "core.icache_tx.tx_lookup.calls", "a" * 64,
])
def test_valid_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", [
    "job.ATAX.icache+lds.host_s", "_hidden", ".dot", "", "a" * 65, "with space",
])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_scheme_names_become_valid_name_parts():
    assert name_part("icache+lds") == "icache-lds"
    assert name_part("ducati+icache+lds") == "ducati-icache-lds"
    assert name_part("perfect-l2-tlb") == "perfect-l2-tlb"


def test_a_metric_cannot_be_recorded_twice():
    metrics = Metrics()
    metrics.put("setup_s", 1.0)
    with pytest.raises(ValueError):
        metrics.put("setup_s", 2.0)


# -- bookkeeping -------------------------------------------------------------------


def test_ok_share_counts_failures_against_attempts():
    outcome = Outcome()
    outcome.attempt(40)
    outcome.fail(3, "timed out")
    assert outcome.ok_share() == pytest.approx(37 / 40)
    assert not outcome.correct


def test_ledger_flags_a_changed_result(tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    outcome = Outcome()
    ledger = Ledger(str(tmp_path))
    assert ledger.check_fingerprints({"k": "aa"}, outcome, "first") == 0
    ledger.save()
    again = Ledger(str(tmp_path))
    assert again.check_fingerprints({"k": "aa"}, outcome, "second") == 1
    assert outcome.correct
    again.check_fingerprints({"k": "bb"}, outcome, "third")
    again.check_counts("w", {"model.walks": 5.0}, outcome)
    again.check_counts("w", {"model.walks": 6.0}, outcome)
    assert len(outcome.problems) == 2


# -- BENCHMARK.json ----------------------------------------------------------------


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_declared_metrics_are_the_ones_measured():
    import wl_service
    import wl_sim
    import wl_sweep

    measured = set(wl_sim.LAYER_METRICS) | set(wl_sweep.LAYER_METRICS) | set(wl_service.LAYER_METRICS)
    assert {m["name"] for m in _spec()["per_layer"]} == measured


def test_benchmark_file_limits():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_name(name)
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert unit.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert len(spec["per_layer"]) <= 128


def test_run_refuses_a_directory_without_the_program(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(benchlib.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
