"""Tests for optional execution tracing and timeline telemetry."""

import json

import pytest

from repro.config import TxScheme, table1_config
from repro.experiments.common import result_fingerprint
from repro.sim.trace import (
    PORTS_PID,
    ExecutionTracer,
    TimelineSampler,
    TraceEvent,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.system import GPUSystem
from repro.workloads.registry import make_app
from tests.conftest import make_tiny_app


class TestTracerUnit:
    def test_record_and_len(self):
        tracer = ExecutionTracer()
        tracer.record(0, 1, "k", 2, "alu", 10, 20)
        assert len(tracer) == 1
        event = tracer.events[0]
        assert event.duration == 10
        assert event.op_kind == "alu"

    def test_bounded(self):
        tracer = ExecutionTracer(max_events=2)
        for index in range(5):
            tracer.record(0, 0, "k", 0, "alu", index, index + 1)
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ExecutionTracer(max_events=0)

    def test_by_kind_totals(self):
        tracer = ExecutionTracer()
        tracer.record(0, 0, "k", 0, "alu", 0, 5)
        tracer.record(0, 0, "k", 0, "alu", 5, 7)
        tracer.record(0, 0, "k", 0, "mem", 0, 100)
        assert tracer.by_kind() == {"alu": 7, "mem": 100}

    def test_slowest(self):
        tracer = ExecutionTracer()
        tracer.record(0, 0, "k", 0, "alu", 0, 5)
        tracer.record(0, 0, "k", 0, "mem", 0, 500)
        assert tracer.slowest(1)[0].op_kind == "mem"

    def test_jsonl_round_trip(self, tmp_path):
        tracer = ExecutionTracer()
        tracer.record(3, 1, "k", 7, "line", 2, 4)
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        payload = json.loads(lines[0])
        assert payload["cu_id"] == 3
        assert payload["op_kind"] == "line"

    def test_jsonl_string(self):
        tracer = ExecutionTracer()
        tracer.record(0, 0, "k", 0, "alu", 0, 1)
        assert '"op_kind": "alu"' in tracer.to_jsonl()

    def test_jsonl_meta_trailer_reports_drops(self):
        tracer = ExecutionTracer(max_events=2)
        for index in range(5):
            tracer.record(0, 0, "k", 0, "alu", index, index + 1)
        meta = json.loads(tracer.to_jsonl().splitlines()[-1])["meta"]
        assert meta == {"recorded": 2, "dropped": 3, "max_events": 2}


class TestTimelineSampler:
    def test_record_and_busy_time(self):
        sampler = TimelineSampler("p")
        sampler.record(0, 5)
        sampler.record(10, 12)
        assert len(sampler) == 2
        assert sampler.busy_time() == 7

    def test_contiguous_intervals_coalesce(self):
        sampler = TimelineSampler("p")
        for start in range(0, 50, 5):
            sampler.record(start, start + 5)
        assert len(sampler) == 1
        assert sampler.intervals == [[0, 0, 50]]
        assert sampler.busy_time() == 50

    def test_lane_assignment_mirrors_port_heap(self):
        # Two lanes: overlapping intervals land on different lanes, and a
        # third request goes to the lane that freed earliest (lane 0 on
        # ties), where it coalesces with that lane's previous interval.
        sampler = TimelineSampler("p", lanes=2)
        sampler.record(0, 10)
        sampler.record(0, 10)
        sampler.record(10, 20)
        assert sorted(sampler.intervals) == [[0, 0, 20], [1, 0, 10]]
        assert sampler.lanes == 2

    def test_bounded_with_dropped_counter(self):
        sampler = TimelineSampler("p", max_intervals=2)
        for start in range(0, 50, 10):
            sampler.record(start + 1, start + 5)  # gaps: never coalesces
        assert len(sampler) == 2
        assert sampler.dropped == 3

    def test_no_coalescing_across_drop_gap(self):
        # After a drop, the lane's last interval must not be extended.
        sampler = TimelineSampler("p", max_intervals=1)
        sampler.record(0, 5)
        sampler.record(7, 9)   # dropped (gap, table full)
        sampler.record(9, 12)  # contiguous with the *dropped* interval
        assert sampler.intervals == [[0, 0, 5]]
        assert sampler.dropped == 2

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            TimelineSampler("p", lanes=0)
        with pytest.raises(ValueError):
            TimelineSampler("p", max_intervals=0)


class TestChromeTraceExport:
    def _traced_tiny_run(self):
        system = GPUSystem(table1_config())
        tracer = ExecutionTracer()
        system.attach_tracer(tracer)
        timelines = system.attach_timelines()
        system.run(make_tiny_app(kernels=1, num_workgroups=2))
        return tracer, timelines

    def test_event_shape(self):
        tracer, timelines = self._traced_tiny_run()
        events = chrome_trace_events(tracer=tracer, timelines=timelines)
        assert events
        for event in events:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0

    def test_tracks_cover_cus_and_ports(self):
        tracer, timelines = self._traced_tiny_run()
        events = chrome_trace_events(tracer=tracer, timelines=timelines)
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert "CU 0" in names
        assert "shared ports" in names
        assert any(name.startswith("iommu.walkers") for name in names)
        assert any("port" in name for name in names)

    def test_port_tracks_live_in_shared_pid(self):
        tracer, timelines = self._traced_tiny_run()
        events = chrome_trace_events(timelines=timelines)
        assert events
        assert all(e["pid"] == PORTS_PID for e in events)

    def test_write_chrome_trace_file(self, tmp_path):
        tracer, timelines = self._traced_tiny_run()
        out = tmp_path / "trace.json"
        summary = write_chrome_trace(
            str(out), tracer=tracer, timelines=timelines,
            metadata={"app": "tiny"},
        )
        payload = json.loads(out.read_text())
        assert len(payload["traceEvents"]) == summary["events"]
        assert payload["otherData"]["app"] == "tiny"
        assert payload["otherData"]["op_events_dropped"] == 0
        assert payload["otherData"]["timeline_intervals"] >= 1

    def test_empty_export(self, tmp_path):
        out = tmp_path / "trace.json"
        summary = write_chrome_trace(str(out))
        assert summary == {"events": 0, "tracks": 0}
        assert json.loads(out.read_text())["traceEvents"] == []

    def test_detach_timelines(self):
        system = GPUSystem(table1_config())
        timelines = system.attach_timelines()
        system.detach_timelines()
        system.run(make_tiny_app(kernels=1))
        assert all(len(sampler) == 0 for sampler in timelines.values())


class TestSystemTracing:
    def test_timelines_do_not_perturb_results(self):
        # Telemetry observes the ports; it must never change what they
        # compute.
        config = table1_config(TxScheme.ICACHE_LDS)
        plain = GPUSystem(config).run(make_app("NW", scale=0.02))
        system = GPUSystem(config)
        timelines = system.attach_timelines()
        observed = system.run(make_app("NW", scale=0.02))
        assert result_fingerprint(observed) == result_fingerprint(plain)
        assert any(len(sampler) for sampler in timelines.values())

    def test_untraced_run_records_nothing(self, config, tiny_app):
        system = GPUSystem(config)
        system.run(tiny_app)  # no tracer attached: must not crash

    def test_traced_run_captures_every_op(self, config):
        system = GPUSystem(config)
        tracer = ExecutionTracer()
        system.attach_tracer(tracer)
        app = make_tiny_app(kernels=1, num_workgroups=2, waves_per_workgroup=1)
        system.run(app)
        assert len(tracer) > 0
        kinds = {event.op_kind for event in tracer.events}
        assert {"alu", "mem", "line"} <= kinds

    def test_event_times_sane(self, config):
        system = GPUSystem(config)
        tracer = ExecutionTracer()
        system.attach_tracer(tracer)
        system.run(make_tiny_app(kernels=1))
        assert all(e.completed_at >= e.issued_at for e in tracer.events)

    def test_by_cu_filter(self, config):
        system = GPUSystem(config)
        tracer = ExecutionTracer()
        system.attach_tracer(tracer)
        system.run(make_tiny_app(kernels=1, num_workgroups=16))
        cu0 = tracer.for_cu(0)
        assert cu0
        assert all(e.cu_id == 0 for e in cu0)

    def test_detach(self, config):
        system = GPUSystem(config)
        tracer = ExecutionTracer()
        system.attach_tracer(tracer)
        system.attach_tracer(None)
        system.run(make_tiny_app(kernels=1))
        assert len(tracer) == 0
