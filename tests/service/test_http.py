"""End-to-end HTTP API tests: BackgroundServer + ServiceClient."""

import json
import os
import threading
import urllib.request

import pytest

from repro.experiments.common import CACHE_SCHEMA, result_fingerprint
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import BackgroundServer, ServiceServer
from repro.service.jobs import expand_spec, validate_spec
from repro.service.manager import JobManager
from repro.sim.runner import REPORT_SCHEMA, SweepRunner

SCALE = 0.05
SPEC = {"apps": ["GUPS", "ATAX"], "schemes": ["baseline", "lds"], "scale": SCALE}


@pytest.fixture()
def live():
    """A running manager + server + client, torn down afterwards."""
    with JobManager(workers=1) as manager:
        with BackgroundServer(manager) as server:
            yield manager, server, ServiceClient(server.url)


@pytest.fixture()
def idle():
    """Server whose manager never executes — jobs stay queued."""
    with JobManager(workers=1, autostart=False) as manager:
        with BackgroundServer(manager) as server:
            yield manager, server, ServiceClient(server.url)


def _raw(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


class TestEndpoints:
    def test_healthz_and_version(self, live):
        _, server, client = live
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert "queued" in health["jobs"] and "done" in health["jobs"]
        assert "alive" in health["pool"]
        assert "cache_dir" in health["store"]
        assert {"hits", "misses", "stores"} <= set(health["store"])
        version = client.version()
        assert version["cache_schema"] == CACHE_SCHEMA
        assert version["report_schema"] == REPORT_SCHEMA
        assert "fig13" in version["figures"]
        assert "GUPS" in version["apps"]
        assert version["engines"] == ["event", "vectorized"]

    def test_unknown_route_404(self, live):
        _, _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client._checked("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, live):
        _, _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.status("feedfacecafe")
        assert excinfo.value.status == 404

    def test_bad_spec_400_with_choices(self, live):
        _, _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"apps": ["NOPE"], "scale": SCALE})
        assert excinfo.value.status == 400
        payload = excinfo.value.payload
        assert payload["field"] == "apps"
        assert "GUPS" in payload["choices"]

    def test_malformed_json_400(self, live):
        _, server, _ = live
        request = urllib.request.Request(
            server.url + "/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestJobFlow:
    def test_submitted_result_matches_direct_runner(self, live):
        _, _, client = live
        submitted = client.submit(SPEC)
        assert submitted["deduplicated"] is False
        job_id = submitted["job_id"]
        status = client.wait(job_id, timeout=300)
        assert status["state"] == "done"
        assert status["report"]["schema"] == REPORT_SCHEMA
        assert status["report"]["jobs_submitted"] == 4

        result = client.result(job_id)
        direct = SweepRunner(jobs=1).run(expand_spec(validate_spec(SPEC)))
        assert result["fingerprints"] == [result_fingerprint(r) for r in direct]
        assert len(result["results"]) == 4
        assert all(r["app_name"] in ("GUPS", "ATAX") for r in result["results"])

    def test_dedup_resubmit_same_job_without_resim(self, live):
        _, _, client = live
        first = client.submit(SPEC)
        client.wait(first["job_id"], timeout=300)
        again = client.submit(dict(SPEC, apps=["gups", "atax"]))
        assert again["deduplicated"] is True
        assert again["job_id"] == first["job_id"]
        assert again["state"] == "done"

    def test_queued_result_202(self, idle):
        _, server, client = idle
        job_id = client.submit(SPEC)["job_id"]
        status, payload = _raw(f"{server.url}/jobs/{job_id}/result")
        assert status == 202
        assert payload["state"] == "queued"

    def test_jobs_listing(self, idle):
        _, _, client = idle
        job_id = client.submit(SPEC)["job_id"]
        listing = client.jobs()
        assert [job["job_id"] for job in listing] == [job_id]

    def test_delete_cancels_queued_then_404s_unknown(self, idle):
        _, _, client = idle
        job_id = client.submit(SPEC)["job_id"]
        cancelled = client.cancel(job_id)
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("feedfacecafe")
        assert excinfo.value.status == 404

    def test_delete_terminal_409(self, live):
        _, _, client = live
        job_id = client.submit(SPEC)["job_id"]
        client.wait(job_id, timeout=300)
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.status == 409
        # The conflict body reports the job's actual state, so a client
        # can tell "too late, already done" from a malformed request.
        assert excinfo.value.payload["state"] == "done"
        assert "done" in excinfo.value.payload["error"]

    def test_delete_cancelled_409_reports_state(self, idle):
        _, _, client = idle
        job_id = client.submit(SPEC)["job_id"]
        assert client.cancel(job_id)["state"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["state"] == "cancelled"

    def test_cancelled_result_409(self, idle):
        _, server, client = idle
        job_id = client.submit(SPEC)["job_id"]
        client.cancel(job_id)
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 409


class TestEvents:
    def test_ndjson_stream_follows_to_terminal(self, live):
        _, _, client = live
        job_id = client.submit(SPEC)["job_id"]
        events = list(client.events(job_id))
        assert events, "stream produced no events"
        states = [e["state"] for e in events if e["type"] == "state"]
        assert states[0] == "queued"
        assert states[-1] == "done"
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)

    def test_stream_after_terminal_replays_and_closes(self, live):
        # Regression: the job reaches a terminal state BEFORE the stream
        # connects. The server must replay the full event log (ending
        # with the terminal state event) and close, not leave the client
        # hanging on a silent stream.
        _, _, client = live
        job_id = client.submit(SPEC)["job_id"]
        client.wait(job_id, timeout=300)
        events = list(client.events(job_id))
        assert events, "post-terminal stream replayed nothing"
        assert events[-1]["type"] == "state"
        assert events[-1]["state"] == "done"
        assert not events[-1].get("synthetic")

    def test_stream_after_cancel_replays_terminal(self, idle):
        _, _, client = idle
        job_id = client.submit(SPEC)["job_id"]
        client.cancel(job_id)
        events = list(client.events(job_id))
        assert [e["state"] for e in events if e["type"] == "state"] == [
            "queued", "cancelled"
        ]

    def test_dropped_stream_falls_back_to_status_poll(self, idle):
        # A stream that dies before delivering a terminal event must not
        # strand the consumer: the client polls status and yields a
        # synthetic terminal event instead.
        _, _, client = idle
        job_id = client.submit(SPEC)["job_id"]
        client.cancel(job_id)

        def broken_stream(_job_id):
            yield {"seq": 0, "type": "state", "state": "queued"}
            raise OSError("connection reset mid-stream")

        client._event_stream = broken_stream
        events = list(client.events(job_id))
        assert events[-1] == {
            "type": "state", "state": "cancelled", "seq": -1, "synthetic": True,
        }

    def test_stream_ends_while_a_socket_duplicate_is_held(self, idle, monkeypatch):
        # Regression: pool workers forked while a stream is open inherit
        # its server-side socket. A plain close() then sends no FIN, and
        # the client hung after the terminal event until those workers
        # exited; the server must half-close the stream instead.
        _, _, client = idle
        held = []
        stream_events = ServiceServer._stream_events

        async def stream_with_duplicate(self, job_id, writer):
            held.append(os.dup(writer.get_extra_info("socket").fileno()))
            await stream_events(self, job_id, writer)

        monkeypatch.setattr(ServiceServer, "_stream_events", stream_with_duplicate)
        job_id = client.submit(SPEC)["job_id"]
        client.cancel(job_id)
        events = []
        reader = threading.Thread(
            target=lambda: events.extend(client.events(job_id)), daemon=True
        )
        reader.start()
        try:
            reader.join(timeout=10.0)
            assert not reader.is_alive(), "stream stayed open after its terminal event"
        finally:
            for fd in held:
                os.close(fd)
            reader.join(timeout=10.0)
        assert held, "the stream never reached the server"
        assert events[-1]["state"] == "cancelled"
        assert not events[-1].get("synthetic")

    def test_failure_event_streamed(self, live, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "GUPS:*:exc")
        _, _, client = live
        job_id = client.submit(
            {"apps": ["GUPS"], "schemes": ["baseline"], "scale": SCALE,
             "max_retries": 0}
        )["job_id"]
        events = list(client.events(job_id))
        failures = [e for e in events if e["type"] == "failure"]
        assert failures and failures[0]["app"] == "GUPS"
        assert failures[0]["disposition"] == "exception"
        assert events[-1]["state"] == "failed"
        # The status payload carries the structured failure record too.
        status = client.status(job_id)
        assert status["state"] == "failed"
        assert status["report"]["failures"][0]["disposition"] == "exception"
