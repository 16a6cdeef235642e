"""JobManager lifecycle: dedup, batching, cancel, eviction, failures."""

import time

import pytest

from repro.service.jobs import SpecError
from repro.service.manager import (
    CANCELLED,
    DONE,
    FAILED,
    JobManager,
    QUEUED,
)
from repro.sim import store
from repro.sim.runner import SweepRunner

SCALE = 0.05


def tiny_spec(*apps, schemes=("baseline",), **extra):
    return {"apps": list(apps) or ["GUPS"], "schemes": list(schemes),
            "scale": SCALE, **extra}


class TestLifecycle:
    def test_submit_runs_to_done_with_results_and_report(self):
        with JobManager(workers=1) as manager:
            record, deduplicated = manager.submit(tiny_spec("GUPS", "ATAX"))
            assert not deduplicated
            assert manager.wait(record.job_id, timeout=180) == DONE
            assert record.started_s is not None
            assert record.finished_s is not None
            assert len(record.results) == 2
            assert all(result is not None for result in record.results)
            assert record.report.jobs_submitted == 2
            assert record.report.jobs_simulated == 2
            # Events tell the whole story in order.
            kinds = [event["type"] for event in record.events]
            assert kinds[0] == "state" and kinds[-1] == "state"
            assert record.events[-1]["state"] == DONE

    def test_results_byte_identical_to_direct_runner(self):
        from repro.experiments.common import result_fingerprint

        spec = tiny_spec("GUPS", "ATAX", schemes=("baseline", "lds"))
        with JobManager(workers=1) as manager:
            record, _ = manager.submit(spec)
            manager.wait(record.job_id, timeout=180)
            service_prints = [result_fingerprint(r) for r in record.results]
        direct = SweepRunner(jobs=1).run(record.jobs)
        assert service_prints == [result_fingerprint(r) for r in direct]

    def test_invalid_spec_raises_before_enqueue(self):
        with JobManager(workers=1, autostart=False) as manager:
            with pytest.raises(SpecError):
                manager.submit({"apps": ["NOPE"]})
            assert manager.counts()[QUEUED] == 0


class TestDedup:
    def test_inflight_dedup_returns_same_record(self):
        with JobManager(workers=1, autostart=False) as manager:
            first, dedup_first = manager.submit(tiny_spec())
            second, dedup_second = manager.submit(tiny_spec())
            assert not dedup_first
            assert dedup_second
            assert first.job_id == second.job_id
            assert first.submissions == 2

    def test_completed_dedup_answers_instantly(self):
        with JobManager(workers=1) as manager:
            record, _ = manager.submit(tiny_spec())
            manager.wait(record.job_id, timeout=180)
            again, deduplicated = manager.submit(tiny_spec())
            assert deduplicated
            assert again.job_id == record.job_id
            assert again.state == DONE

    def test_case_normalization_dedups(self):
        with JobManager(workers=1, autostart=False) as manager:
            first, _ = manager.submit({"apps": ["GUPS"], "schemes": ["baseline"],
                                       "scale": SCALE})
            second, deduplicated = manager.submit(
                {"apps": ["gups"], "schemes": ["baseline"], "scale": SCALE}
            )
            assert deduplicated and first.job_id == second.job_id

    def test_cancelled_spec_resubmits_as_new_job(self):
        with JobManager(workers=1, autostart=False) as manager:
            record, _ = manager.submit(tiny_spec())
            assert manager.cancel(record.job_id) == (True, CANCELLED, "cancelled")
            fresh, deduplicated = manager.submit(tiny_spec())
            assert not deduplicated
            assert fresh.job_id != record.job_id


class TestCancel:
    def test_cancel_queued(self):
        with JobManager(workers=1, autostart=False) as manager:
            record, _ = manager.submit(tiny_spec())
            ok, state, message = manager.cancel(record.job_id)
            assert ok and state == CANCELLED and message == "cancelled"
            assert record.state == CANCELLED
            assert record.events[-1]["state"] == CANCELLED

    def test_cancel_unknown(self):
        with JobManager(workers=1, autostart=False) as manager:
            assert manager.cancel("feedfacecafe") == (False, None, "not found")

    def test_cancel_terminal_refused(self):
        with JobManager(workers=1) as manager:
            record, _ = manager.submit(tiny_spec())
            manager.wait(record.job_id, timeout=180)
            ok, state, reason = manager.cancel(record.job_id)
            assert not ok
            assert state == record.state
            assert "done" in reason

    def test_cancelled_job_never_runs(self):
        with JobManager(workers=1, autostart=False) as manager:
            record, _ = manager.submit(tiny_spec())
            manager.cancel(record.job_id)
            manager.start()
            time.sleep(0.3)
            assert record.state == CANCELLED
            assert record.results is None


class TestBatchingAndPool:
    def test_staged_submissions_share_one_pool_lease(self):
        with JobManager(workers=2, autostart=False) as manager:
            one, _ = manager.submit(tiny_spec("GUPS", "ATAX"))
            two, _ = manager.submit(tiny_spec("MVT", "BICG"))
            manager.start()
            assert manager.wait(one.job_id, timeout=300) == DONE
            assert manager.wait(two.job_id, timeout=300) == DONE
            stats = manager.pool.stats()
            # Both records rode one batch: one lease, one pool, no respawn.
            assert stats["leases"] == 1
            assert stats["pools_created"] == 1

    def test_shared_job_reported_to_both_records(self):
        with JobManager(workers=2, autostart=False) as manager:
            one, _ = manager.submit(tiny_spec("GUPS", "ATAX"))
            two, _ = manager.submit(tiny_spec("ATAX", "MVT"))
            manager.start()
            manager.wait(one.job_id, timeout=300)
            manager.wait(two.job_id, timeout=300)
            atax_key = one.jobs[1].key()
            assert atax_key == two.jobs[0].key()
            for record in (one, two):
                assert atax_key in [t.key for t in record.report.timings]
            assert all(r is not None for r in one.results + two.results)

    def test_idle_pool_evicted_and_recreated(self):
        with JobManager(workers=2, idle_timeout_s=0.2) as manager:
            record, _ = manager.submit(tiny_spec("GUPS", "ATAX"))
            manager.wait(record.job_id, timeout=300)
            deadline = time.monotonic() + 10.0
            while manager.pool.stats()["alive"]:
                assert time.monotonic() < deadline, "pool never evicted"
                time.sleep(0.05)
            assert manager.pool.stats()["evictions"] == 1
            # A new submission transparently recreates the pool.
            fresh, _ = manager.submit(tiny_spec("MVT", "BICG"))
            assert manager.wait(fresh.job_id, timeout=300) == DONE
            assert manager.pool.stats()["pools_created"] == 2


class TestBoundedMemory:
    def test_memory_front_bounded_and_evictions_served_from_disk(self, monkeypatch):
        # More distinct jobs than the in-memory bound, one spec each.
        monkeypatch.setattr(store, "MEMORY_ENTRIES", 2)
        apps = ("SRAD", "ATAX", "MVT", "BICG", "GEV")
        before = store.counters_snapshot()
        with JobManager(workers=1) as manager:
            for app in apps:
                record, _ = manager.submit(tiny_spec(app))
                assert manager.wait(record.job_id, timeout=180) == DONE
                assert len(store.RESULTS) <= store.MEMORY_ENTRIES
            evictions = store.counters_delta(before)["memory_evictions"]
            assert evictions >= len(apps) - store.MEMORY_ENTRIES

            # The evicted results come back from the disk store.
            again, deduplicated = manager.submit(tiny_spec(*apps))
            assert not deduplicated
            assert manager.wait(again.job_id, timeout=180) == DONE
            assert again.report.jobs_simulated == 0
            assert again.report.cache_hits == len(apps)
            assert len(store.RESULTS) <= store.MEMORY_ENTRIES
        delta = store.counters_delta(before)
        assert delta["hits"] >= len(apps) - store.MEMORY_ENTRIES
        assert delta["stores"] == len(apps)


class TestFailures:
    def test_job_failure_surfaces_in_record(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "GUPS:*:exc")
        with JobManager(workers=1, max_retries=0) as manager:
            record, _ = manager.submit(tiny_spec("GUPS", "SRAD"))
            assert manager.wait(record.job_id, timeout=180) == FAILED
            (failure,) = record.report.failures
            assert failure.app_name == "GUPS"
            assert failure.disposition == "exception"
            # keep_going semantics: the innocent neighbour completed.
            assert record.results[0] is None
            assert record.results[1] is not None
            assert any(e["type"] == "failure" for e in record.events)

    def test_worker_crash_surfaces_instead_of_hanging(self, monkeypatch):
        """A worker process dying mid-job (BrokenProcessPool) must recycle
        the shared pool, surface a crash JobFailure in the status payload,
        and leave the service able to run the next job."""

        monkeypatch.setenv("REPRO_FAULT_SPEC", "GUPS:*:crash")
        with JobManager(workers=2, max_retries=0) as manager:
            record, _ = manager.submit(tiny_spec("GUPS", "SRAD"))
            assert manager.wait(record.job_id, timeout=300) == FAILED
            (failure,) = record.report.failures
            assert failure.app_name == "GUPS"
            assert failure.disposition == "crash"
            assert record.results[1] is not None
            payload = manager.status_payload(record.job_id)
            assert payload["state"] == FAILED
            assert payload["report"]["failures"][0]["disposition"] == "crash"
            # The crash forced a pool recycle; a fresh job still runs.
            monkeypatch.delenv("REPRO_FAULT_SPEC")
            fresh, _ = manager.submit(tiny_spec("ATAX"))
            assert manager.wait(fresh.job_id, timeout=300) == DONE
            assert manager.pool.stats()["recycles"] >= 1

    def test_failure_in_one_record_spares_batch_neighbours(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "GUPS:*:exc")
        with JobManager(workers=1, max_retries=0, autostart=False) as manager:
            bad, _ = manager.submit(tiny_spec("GUPS"))
            good, _ = manager.submit(tiny_spec("SRAD"))
            manager.start()
            assert manager.wait(bad.job_id, timeout=180) == FAILED
            assert manager.wait(good.job_id, timeout=180) == DONE
            assert good.report.failures == []
