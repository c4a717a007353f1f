"""Deterministic mock chat endpoint for offline tests.

Serves the same wire protocol the client speaks. Replies come from a fixed
script and are dequeued in request order under a lock, each carrying scripted
usage counts and an optional injected delay so the metrics path can be
exercised with known numbers. A reply whose counts the client's
:class:`UsageRecord` would refuse, or whose delay is negative or not finite,
is refused when it is built, not when it is served. Every accepted request
body is kept in ``requests``, and the client address it came from in
``peers``, for assertions about prompt content and connection reuse. Each
message's text in a kept body is interned (``sys.intern``): an agent's calls
repeat a few system prompts, so a long run would otherwise keep one copy of
each per request.

The endpoint is a small HTTP/1.1 server of its own, not ``http.server``: it
reads the request line and, of the headers, only ``Content-Length``,
``Connection``, ``Expect`` and ``Transfer-Encoding``. A ``POST`` to any path
whose body is a JSON object with ``model`` and ``messages`` gets 200 and the
next scripted reply, after the reply's delay; any other body gets 400 and an
exhausted script 500. ``Expect: 100-continue`` is answered with ``100
Continue`` before the body is read. These requests get an error and the
connection is closed: a malformed request line (400) or header line (400), a
request line over 64 KiB (414), a header line over 64 KiB or more than 100 of
them (431), a ``Content-Length`` that is not a decimal number (400) or over
16 MiB (413), any ``Transfer-Encoding`` (501) and any method but ``POST``
(501). Every response is JSON with ``Content-Type`` and ``Content-Length``
and no ``Server`` or ``Date`` header.

Connections stay alive unless the request says ``Connection: close`` or is
HTTP/1.0 without ``keep-alive``, so a client that pools connections pays for
one TCP connection and one handler thread, not one per call. Nagle's
algorithm is off and each response leaves in one write: otherwise a small
body written after its headers waits for the client's delayed ACK, which
adds tens of milliseconds to a call. ``stop()`` closes every open connection
and waits for its handler to exit.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from http import HTTPStatus
from typing import Sequence

from .chat import UsageRecord
from .errors import ConfigurationError
from .harness import from_json

_MAX_LINE = 1 << 16  # bytes in the request line or one header line
_MAX_HEADERS = 100
_MAX_BODY = 1 << 24
_READ_HEADERS = frozenset(
    (b"content-length", b"connection", b"expect", b"transfer-encoding")
)
# The 200 body, filled in per reply: encoding the same structure as a dict
# with ``json.dumps`` takes several times longer, on every model call.
_COMPLETION = (
    '{"id": "mock", "object": "chat.completion", "model": %s, "choices": '
    '[{"index": 0, "message": {"role": "assistant", "content": %s}, '
    '"finish_reason": "stop"}], "usage": {"prompt_tokens": %d, '
    '"completion_tokens": %d, "total_tokens": %d}}'
)


def _error(message: str) -> str:
    return json.dumps({"error": {"message": message}})


def _intern_texts(messages) -> None:
    """Intern, in place, the text of each message object in a request's
    ``messages``; any other shape is left as it is, since the request is
    answered the same either way."""
    if type(messages) is list:
        for message in messages:
            if type(message) is dict and type(text := message.get("content")) is str:
                message["content"] = sys.intern(text)


@dataclass(frozen=True)
class MockReply:
    """One scripted reply. Counts that the client's :class:`UsageRecord`
    would refuse, or a delay that is negative or not finite, raise
    :class:`ConfigurationError`."""

    content: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    delay: float = 0.0  # seconds slept before answering

    def __post_init__(self):
        try:
            UsageRecord(self.prompt_tokens, self.completion_tokens, self.total_tokens, 0.0)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ConfigurationError(f"delay must be finite and not negative, not {self.delay}")

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class _Handler(socketserver.StreamRequestHandler):
    """One connection: answers its requests in order until one closes it."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except ConnectionError:  # the client reset the connection
            pass

    def _serve_one(self) -> bool:
        """Answer one request; whether the connection stays open."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            return False
        if len(line) > _MAX_LINE:
            return self._fail(414, "request line too long")
        parts = line.split()
        if len(parts) != 3 or parts[2] not in (b"HTTP/1.0", b"HTTP/1.1"):
            return self._fail(400, "malformed request line")
        method, _, version = parts

        headers = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > _MAX_LINE:
                return self._fail(431, "header line too long")
            name, colon, value = line.partition(b":")
            if not colon or not name or name != name.strip():
                return self._fail(400, "malformed header line")
            name = name.lower()
            if name in _READ_HEADERS:
                headers[name] = value.strip()
        else:
            return self._fail(431, "too many header lines")
        if not line:
            return False

        if method != b"POST":
            return self._fail(501, f"unsupported method {method.decode('latin-1')}")
        if b"transfer-encoding" in headers:
            return self._fail(501, "Transfer-Encoding is not supported")
        length = headers.get(b"content-length", b"0")
        if not length.isdigit():
            return self._fail(400, "Content-Length is not a decimal number")
        if int(length) > _MAX_BODY:
            return self._fail(413, "body too large")
        tokens = {t.strip().lower() for t in headers.get(b"connection", b"").split(b",")}
        keep_alive = b"close" not in tokens and (
            version == b"HTTP/1.1" or b"keep-alive" in tokens
        )
        if version == b"HTTP/1.1" and headers.get(b"expect", b"").lower() == b"100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(int(length))
        self._send(*self.server.mock._reply(body, self.client_address), keep_alive)
        return keep_alive

    def _send(self, status: int, body: str, keep_alive: bool) -> None:
        raw = body.encode()
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(raw)}\r\n"
        )
        if not keep_alive:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode() + b"\r\n" + raw)

    def _fail(self, status: int, message: str) -> bool:
        """Answer an error and close: the rest of the request is not read."""
        self._send(status, _error(message), keep_alive=False)
        return False


class _Server(socketserver.ThreadingTCPServer):
    """Threaded TCP server that knows each open connection's handler thread."""

    allow_reuse_address = True

    def __init__(self, address, mock: MockChatServer):
        super().__init__(address, _Handler)
        self.mock = mock
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
    """Context-managed scripted endpoint bound to a local port, by default an
    ephemeral one. An empty script, or a port outside 0..65535, raises
    :class:`ConfigurationError`."""

    def __init__(self, script: Sequence[MockReply], port: int = 0):
        if not script:
            raise ConfigurationError("mock script must not be empty")
        if not 0 <= port <= 65535:
            raise ConfigurationError(f"port must be in 0..65535, not {port}")
        self._queue = deque(script)
        self._lock = threading.Lock()
        self.requests: list[dict] = []
        self.peers: list[tuple[str, int]] = []
        self._server = _Server(("127.0.0.1", port), self)
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

    def _reply(self, raw: bytes, peer: tuple[str, int]) -> tuple[int, str]:
        """The status and JSON text answering one request body from ``peer``."""
        try:
            payload = json.loads(raw)
        except (ValueError, RecursionError):
            return 400, _error("body is not JSON")
        if not isinstance(payload, dict) or "model" not in payload or "messages" not in payload:
            return 400, _error("model and messages are required")
        _intern_texts(payload["messages"])
        with self._lock:
            self.requests.append(payload)
            self.peers.append(peer)
            reply = self._queue.popleft() if self._queue else None
        if reply is None:
            return 500, _error("mock script exhausted")
        if reply.delay > 0:
            time.sleep(reply.delay)
        return 200, _COMPLETION % (
            json.dumps(payload["model"]),
            json.dumps(reply.content),
            reply.prompt_tokens,
            reply.completion_tokens,
            reply.total_tokens,
        )


def script_from_json(data) -> list[MockReply]:
    """Load a script from parsed JSON: a list of reply objects, bare or as
    the one key ``replies``. A reply with a malformed, missing or unknown key
    raises :class:`ConfigurationError` naming its index."""
    if isinstance(data, dict) and data.keys() == {"replies"}:
        data = data["replies"]
    if not isinstance(data, list):
        raise ConfigurationError(f"script: expected a list of replies, not {data!r:.80}")
    return [from_json(MockReply, reply, f"reply {i}") for i, reply in enumerate(data)]
