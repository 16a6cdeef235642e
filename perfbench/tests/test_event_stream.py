"""The service workload's event-stream reader against a stand-in server
that sends a terminal event and then either closes the stream or holds it
open, as a server whose socket was inherited by a forked worker does.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import socket
import threading
from types import SimpleNamespace

import pytest

import wl_service

EVENTS = [
    {"seq": 0, "type": "state", "state": "running"},
    {"seq": 1, "type": "progress"},
    {"seq": 2, "type": "state", "state": "done"},
]


@pytest.fixture
def stream_server():
    """Serve one events request; ``hold`` keeps the socket open until the
    test ends."""

    listener = socket.create_server(("127.0.0.1", 0))
    release = threading.Event()
    settings = {"hold": False}

    def serve():
        conn, _ = listener.accept()
        with conn:
            request = b""
            while b"\r\n\r\n" not in request:
                request += conn.recv(4096)
            body = "".join(json.dumps(event) + "\n" for event in EVENTS)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
                b"Connection: close\r\n\r\n" + body.encode()
            )
            if settings["hold"]:
                release.wait(10)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = SimpleNamespace(host="127.0.0.1", port=listener.getsockname()[1])
    yield client, settings
    release.set()
    thread.join(10)
    listener.close()


def test_stream_that_closes_is_not_a_stall(stream_server):
    client, _ = stream_server
    stream = wl_service.EventStream(client, "0123456789ab")
    try:
        assert stream.until_terminal() == "done"
        assert stream.closes_within(5.0)
    finally:
        stream.close()


def test_stream_held_open_after_the_terminal_event_is_a_stall(stream_server):
    client, settings = stream_server
    settings["hold"] = True
    stream = wl_service.EventStream(client, "0123456789ab")
    try:
        assert stream.until_terminal() == "done"
        assert not stream.closes_within(0.2)
    finally:
        stream.close()
