"""Deterministic mock chat endpoint for offline tests.

Serves the same wire protocol the client speaks. Replies come from a fixed
script and are dequeued in request order under a lock, each carrying scripted
usage counts and an optional injected delay so the metrics path can be
exercised with known numbers. An exhausted script answers with a protocol
error; malformed requests get a 400. Every accepted request body is kept in
``requests``, and the client address it came from in ``peers``, for
assertions about prompt content and connection reuse.

The endpoint speaks HTTP/1.1 and keeps connections alive, so a client that
pools connections pays for one TCP connection and one handler thread, not one
per call. Nagle's algorithm is off and each response leaves in one write:
otherwise a small body written after its headers waits for the client's
delayed ACK, which adds tens of milliseconds to a call. ``stop()`` closes
every open connection and waits for its handler to exit.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence


@dataclass(frozen=True)
class MockReply:
    content: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    delay: float = 0.0  # seconds slept before answering

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class _Server(ThreadingHTTPServer):
    """Threaded HTTP server that knows each open connection's handler thread."""

    def __init__(self, address, handler_class):
        super().__init__(address, handler_class)
        self._open: dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address):
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut every open connection down and wait for its handler to exit."""
        with self._open_lock:
            open_now = list(self._open.items())
        for request, _ in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # the client closed it first
                pass
        for _, thread in open_now:
            thread.join()


class MockChatServer:
    """Context-managed scripted endpoint bound to an ephemeral local port."""

    def __init__(self, script: Sequence[MockReply], port: int = 0):
        if not script:
            raise ValueError("mock script must not be empty")
        self._queue = deque(script)
        self._lock = threading.Lock()
        self.requests: list[dict] = []
        self.peers: list[tuple[str, int]] = []
        self._server = _Server(("127.0.0.1", port), self._handler_class())
        # A short poll interval bounds how long stop() waits for the loop.
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(0.05,), daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def start(self) -> "MockChatServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._server.close_connections()
        self._thread.join()

    def __enter__(self) -> "MockChatServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _handler_class(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True
            # Buffer the response: its headers and body leave in one write
            # when the request is done (up to 64 KiB).
            wbufsize = 1 << 16

            def log_message(self, *args):  # keep test output clean
                pass

            def _respond(self, status: int, body: dict) -> None:
                raw = json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                try:
                    payload = json.loads(self.rfile.read(length))
                except ValueError:
                    self._respond(400, {"error": {"message": "body is not JSON"}})
                    return
                if not isinstance(payload, dict) or "model" not in payload or "messages" not in payload:
                    self._respond(
                        400, {"error": {"message": "model and messages are required"}}
                    )
                    return
                with server._lock:
                    server.requests.append(payload)
                    server.peers.append(self.client_address)
                    reply = server._queue.popleft() if server._queue else None
                if reply is None:
                    self._respond(500, {"error": {"message": "mock script exhausted"}})
                    return
                if reply.delay > 0:
                    time.sleep(reply.delay)
                self._respond(
                    200,
                    {
                        "id": "mock",
                        "object": "chat.completion",
                        "model": payload["model"],
                        "choices": [
                            {
                                "index": 0,
                                "message": {"role": "assistant", "content": reply.content},
                                "finish_reason": "stop",
                            }
                        ],
                        "usage": {
                            "prompt_tokens": reply.prompt_tokens,
                            "completion_tokens": reply.completion_tokens,
                            "total_tokens": reply.total_tokens,
                        },
                    },
                )

        return Handler


def serve_mock(script: Sequence[MockReply], port: int = 0) -> MockChatServer:
    """Start a mock endpoint and hand back its (already running) handle."""
    return MockChatServer(script, port=port).start()


def script_from_json(data) -> list[MockReply]:
    """Load a script from parsed JSON: a list of reply objects."""
    replies = data["replies"] if isinstance(data, dict) else data
    return [
        MockReply(
            content=entry["content"],
            prompt_tokens=int(entry.get("prompt_tokens", 0)),
            completion_tokens=int(entry.get("completion_tokens", 0)),
            delay=float(entry.get("delay", 0.0)),
        )
        for entry in replies
    ]
