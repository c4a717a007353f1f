from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import os
import socket
import socketserver
import threading
import zlib

import pytest
import requests
from requests.adapters import BaseAdapter, HTTPAdapter
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_SECTION_RE, ScriptedCompleter, make_world
from wumpusbench import (
    Action,
    ChatClient,
    ChatMessage,
    EpisodeProtocolFailure,
    LlmAgent,
    MECHANISM_COS,
    MECHANISM_COT,
    MockChatServer,
    MockReply,
    UsageRecord,
    build_observation,
    chat,
)
from wumpusbench.errors import (
    ActionParseError,
    ConfigurationError,
    ProtocolError,
    TransportError,
)
from wumpusbench.llm import (
    MAX_PARSE_RETRIES,
    _SECTION_RE,
    _split_sections,
    build_prompt,
    default_system_prompt,
    parse_cos_response,
    run_cos_round,
)


def fresh_obs(n=3):
    return build_observation(make_world(n=n, gold=(n, n)))


COS_REPLY = (
    "Analysis: stench at (1,2) and (2,1) pins the wumpus to the diagonal.\n"
    'Guess: {"wumpus": [[2,2]], "pits": []}\n'
    "Action: <shootright>"
)


# ---------------------------------------------------------------------------
# Client transport


def test_client_returns_content_and_usage():
    with MockChatServer([MockReply("ok", 10, 5)]) as server:
        client = ChatClient(server.url, "test-model", max_retries=0)
        content, usage = client.complete([ChatMessage("user", "hi")])
    assert content == "ok"
    assert usage.prompt_tokens == 10
    assert usage.completion_tokens == 5
    assert usage.total_tokens == 15
    assert usage.latency >= 0


def test_client_errors_after_script_exhausted():
    with MockChatServer([MockReply("only one", 1, 1)]) as server:
        client = ChatClient(server.url, "test-model", max_retries=1, backoff=0.01)
        client.complete([ChatMessage("user", "hi")])
        with pytest.raises(TransportError):
            client.complete([ChatMessage("user", "hi")])


def test_client_transport_error_on_unreachable_endpoint():
    client = ChatClient(
        "http://127.0.0.1:1/nothing", "test-model", max_retries=1, backoff=0.01
    )
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "hi")])


def test_client_rejects_malformed_body():
    import http.server
    import json
    import threading as _threading

    class BadHandler(http.server.BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            raw = json.dumps({"weird": True}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), BadHandler)
    thread = _threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/"
        client = ChatClient(url, "test-model", max_retries=0)
        with pytest.raises(ProtocolError):
            client.complete([ChatMessage("user", "hi")])
    finally:
        server.shutdown()
        server.server_close()


def test_concurrent_calls_get_independent_usage():
    script = [MockReply("a", 11, 1), MockReply("b", 22, 2)]
    results = []
    with MockChatServer(script) as server:
        client = ChatClient(server.url, "test-model", max_retries=0)

        def call():
            results.append(client.complete([ChatMessage("user", "hi")]))

        threads = [threading.Thread(target=call) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    got = {(content, usage.prompt_tokens, usage.completion_tokens) for content, usage in results}
    assert got == {("a", 11, 1), ("b", 22, 2)}


def test_mock_validates_requests():
    import requests

    with MockChatServer([MockReply("x")]) as server:
        bad = requests.post(server.url, data=b"not json")
        assert bad.status_code == 400
        bad = requests.post(server.url, json={"messages": []})
        assert bad.status_code == 400


def test_mock_stop_closes_kept_alive_connections():
    before = set(threading.enumerate())
    server = MockChatServer([MockReply("a"), MockReply("b")]).start()
    client = ChatClient(server.url, "test-model", max_retries=0)
    client.complete([ChatMessage("user", "hi")])
    server.stop()
    assert [t for t in threading.enumerate() if t not in before] == []
    # The pooled connection is gone with its handler: the second scripted
    # reply is never served.
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "hi")])
    assert len(server.requests) == 1


def test_client_reuses_one_connection_to_the_mock():
    with MockChatServer([MockReply(str(i)) for i in range(5)]) as server:
        client = ChatClient(server.url, "test-model", max_retries=0)
        for _ in range(5):
            client.complete([ChatMessage("user", "hi")])
    assert len(server.peers) == 5
    assert len(set(server.peers)) == 1


class CountingPostSession(requests.Session):
    def __init__(self):
        super().__init__()
        self.posts = 0

    def post(self, *args, **kwargs):
        self.posts += 1
        return super().post(*args, **kwargs)


class RecordingSession(requests.Session):
    """Keeps what would be sent instead of sending it."""

    def send(self, request, **kwargs):
        self.sent = (request, kwargs)
        raise requests.ConnectionError("not sent")


@pytest.fixture
def clean_environment(monkeypatch):
    """No proxy, CA bundle, netrc or API key settings from the outside."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy") or name in (
            "REQUESTS_CA_BUNDLE",
            "CURL_CA_BUNDLE",
            "WUMPUSBENCH_API_KEY",
            "OPENAI_API_KEY",
        ):
            monkeypatch.delenv(name)
    monkeypatch.setenv("NETRC", os.devnull)
    return monkeypatch


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize(
    "endpoint",
    [
        "localhost:8000/v1/chat/completions",
        "htp://127.0.0.1:1/v1",
        "http://",
        "http://127.0.0.1:99999/v1",
    ],
)
def test_client_does_not_retry_a_malformed_endpoint(clean_environment, endpoint):
    session = CountingPostSession()
    with pytest.raises(ConfigurationError, match="^endpoint: "):
        ChatClient(endpoint, "test-model", max_retries=3, backoff=0, session=session)
    assert session.posts == 0


def test_client_reads_proxies_from_the_environment_when_built(clean_environment):
    clean_environment.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port()}")
    with MockChatServer([MockReply("ok")]) as server:
        session = CountingPostSession()
        client = ChatClient(
            server.url, "test-model", max_retries=1, backoff=0.01, session=session
        )
        with pytest.raises(TransportError):
            client.complete([ChatMessage("user", "hi")])
        assert session.posts == 2  # one per attempt
        # A second client on the same session reads the environment too.
        with pytest.raises(TransportError):
            ChatClient(server.url, "m", max_retries=0, session=session).complete(
                [ChatMessage("user", "hi")]
            )
        assert session.posts == 3
        assert server.requests == []

        clean_environment.setenv("NO_PROXY", "127.0.0.1")
        session = CountingPostSession()
        client = ChatClient(server.url, "test-model", max_retries=0, session=session)
        assert client.complete([ChatMessage("user", "hi")])[0] == "ok"
        assert session.posts == 1


def test_client_ignores_environment_changes_after_it_is_built(clean_environment):
    with MockChatServer([MockReply("ok")]) as server:
        client = ChatClient(server.url, "test-model", max_retries=0)
        clean_environment.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port()}")
        assert client.complete([ChatMessage("user", "hi")])[0] == "ok"


def test_client_keeps_a_session_that_does_not_trust_the_environment(clean_environment):
    clean_environment.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port()}")
    session = requests.Session()
    session.trust_env = False
    with MockChatServer([MockReply("ok")]) as server:
        client = ChatClient(server.url, "test-model", max_retries=0, session=session)
        assert client.complete([ChatMessage("user", "hi")])[0] == "ok"


def test_client_sends_what_a_default_session_would(clean_environment, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine api.example login user password secret\n")
    clean_environment.setenv("NETRC", str(netrc))
    clean_environment.setenv("HTTPS_PROXY", "http://127.0.0.1:3128")
    clean_environment.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "ca.pem"))
    url = "https://api.example/v1/chat/completions"
    client_session = RecordingSession()
    client = ChatClient(url, "m", max_retries=0, timeout=7.0, session=client_session)
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "hi")])
    reference = RecordingSession()
    with pytest.raises(requests.ConnectionError):
        reference.post(
            url,
            json={
                "model": "m",
                "messages": [{"role": "user", "content": "hi"}],
                "temperature": 0.0,
            },
            headers={"Content-Type": "application/json"},
            timeout=7.0,
        )
    (sent, sent_kwargs), (expected, expected_kwargs) = client_session.sent, reference.sent
    assert sent_kwargs == expected_kwargs
    assert expected_kwargs["proxies"] == {"https": "http://127.0.0.1:3128"}
    assert expected_kwargs["verify"] == str(tmp_path / "ca.pem")
    assert sent.headers == expected.headers
    assert expected.headers["Authorization"].startswith("Basic ")
    assert sent.body == expected.body


def test_clients_on_one_session_share_its_connection(clean_environment):
    session = requests.Session()
    with MockChatServer([MockReply(str(i)) for i in range(4)]) as server:
        for timeout in (5.0, (5.0, 5.0), None, 5.0):
            client = ChatClient(
                server.url, "m", max_retries=0, timeout=timeout, session=session
            )
            client.complete([ChatMessage("user", "hi")])
    assert len(server.peers) == 4
    assert len(set(server.peers)) == 1


def test_each_thread_keeps_its_own_connection(clean_environment):
    calls = 3
    with MockChatServer([MockReply("ok")] * (2 * calls)) as server:
        client = ChatClient(server.url, "m", max_retries=0)

        def call(name):
            for _ in range(calls):
                client.complete([ChatMessage("user", name)])

        threads = [threading.Thread(target=call, args=(f"t{i}",)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    peers = {"t0": set(), "t1": set()}
    for request, peer in zip(server.requests, server.peers):
        peers[request["messages"][0]["content"]].add(peer)
    assert len(server.peers) == 2 * calls
    assert len(peers["t0"]) == len(peers["t1"]) == 1
    assert peers["t0"] != peers["t1"]


COMPLETION = json.dumps(
    {
        "choices": [{"message": {"role": "assistant", "content": "decoded"}}],
        "usage": {"prompt_tokens": 3, "completion_tokens": 2},
    }
).encode()


@contextlib.contextmanager
def raw_server(
    response: bytes | None,
    *,
    close: bool = False,
    received: list | None = None,
    drop: int | None = None,
    after=None,
):
    """A one-route HTTP server that answers each request with ``response``
    verbatim (never, when it is None), calls ``after`` with the connection's
    writer when given, and then closes the connection when ``close`` is set.
    The request numbered ``drop``, counting from 0 over every connection, is
    read and its connection closed unanswered. Appends each request to
    ``received``, when given, as its request line, its header lines and its
    body. Yields its URL and a semaphore released each time it has closed a
    connection."""
    release = threading.Event()
    closed = threading.Semaphore(0)
    numbers = itertools.count()

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            while True:
                lines = []
                while (line := self.rfile.readline()) not in (b"\r\n", b""):
                    lines.append(line.rstrip(b"\r\n"))
                if not line:
                    return
                length = 0
                for header in lines[1:]:
                    name, _, value = header.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                body = self.rfile.read(length)
                if received is not None:
                    received.append((lines[0], lines[1:], body))
                if next(numbers) == drop:
                    return
                if response is None:
                    release.wait(10)
                    return
                self.wfile.write(response)
                if after is not None:
                    after(self.wfile)
                if close:
                    return

    class Server(socketserver.ThreadingTCPServer):
        daemon_threads = True

        def shutdown_request(self, request):
            super().shutdown_request(request)
            closed.release()

    server = Server(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", closed
    finally:
        release.set()
        server.shutdown()
        server.server_close()


def http_response(body: bytes, *headers: str) -> bytes:
    head = "".join(f"{h}\r\n" for h in ("HTTP/1.1 200 OK", *headers))
    return head.encode() + b"\r\n" + body


REPLY = http_response(COMPLETION, f"Content-Length: {len(COMPLETION)}")

# A deflate stream without the zlib header and checksum, as some servers send.
_raw = zlib.compressobj(wbits=-zlib.MAX_WBITS)
RAW_DEFLATE = _raw.compress(COMPLETION) + _raw.flush()


def chunked(body: bytes) -> bytes:
    parts = [body[i : i + 16] for i in range(0, len(body), 16)]
    return b"".join(b"%x\r\n%s\r\n" % (len(p), p) for p in parts) + b"0\r\n\r\n"


def test_a_server_that_closes_after_each_reply_is_answered_without_retries(
    clean_environment,
):
    session = CountingPostSession()
    with raw_server(REPLY, close=True) as (url, closed):
        client = ChatClient(url, "m", max_retries=0, session=session)
        for i in range(6):
            assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"
            # Every other call starts once the server has closed the idle
            # connection; the rest race the close.
            if i % 2:
                assert all(closed.acquire(timeout=10) for _ in range(2))
    assert session.posts == 6


def test_a_request_dropped_on_a_reused_connection_goes_once_more_on_a_new_one(
    clean_environment,
):
    session = CountingPostSession()
    received = []
    with raw_server(REPLY, received=received, drop=1) as (url, closed):
        client = ChatClient(url, "m", max_retries=0, session=session)
        for _ in range(2):
            assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"
        assert session.posts == 2  # no retry by the client: the adapter resent it
        assert len(received) == 3
        assert closed.acquire(timeout=10)  # the connection that dropped it
        assert not closed.acquire(timeout=0.2)  # the new one, kept alive
        session.close()
        assert closed.acquire(timeout=10)


def test_a_body_shorter_than_its_length_is_retried_as_transient(clean_environment):
    session = CountingPostSession()
    cut = http_response(COMPLETION[:10], f"Content-Length: {len(COMPLETION)}")
    with raw_server(cut, close=True) as (url, _):
        client = ChatClient(url, "m", max_retries=2, backoff=0, session=session)
        with pytest.raises(TransportError, match="after 3 attempts.*IncompleteRead"):
            client.complete([ChatMessage("user", "hi")])
    assert session.posts == 3


@pytest.mark.parametrize(
    "response, close",
    [
        (REPLY, False),
        (http_response(chunked(COMPLETION), "Transfer-Encoding: chunked"), False),
        (
            http_response(
                gzip.compress(COMPLETION),
                "Content-Encoding: gzip",
                f"Content-Length: {len(gzip.compress(COMPLETION))}",
            ),
            False,
        ),
        (
            http_response(
                chunked(zlib.compress(COMPLETION)),
                "Content-Encoding: deflate",
                "Transfer-Encoding: chunked",
            ),
            False,
        ),
        (
            http_response(
                RAW_DEFLATE,
                "Content-Encoding: deflate",
                f"Content-Length: {len(RAW_DEFLATE)}",
            ),
            False,
        ),
        (http_response(COMPLETION, "Connection: close"), True),
    ],
    ids=["length", "chunked", "gzip", "deflate-chunked", "deflate-raw", "until-close"],
)
def test_every_body_framing_and_encoding_decodes_the_same(
    clean_environment, response, close
):
    with raw_server(response, close=close) as (url, _):
        client = ChatClient(url, "m", max_retries=0)
        for _ in range(2):
            content, usage = client.complete([ChatMessage("user", "hi")])
            assert (content, usage.prompt_tokens, usage.total_tokens) == ("decoded", 3, 5)


@pytest.mark.parametrize(
    "head, kept",
    [
        ("HTTP/1.0 200 OK", False),
        ("HTTP/1.0 200 OK\r\nConnection: keep-alive", True),
        ("HTTP/1.0 200 OK\r\nKeep-Alive: timeout=5", True),
        ("HTTP/1.1 200 OK\r\nConnection: close", False),
        ("HTTP/1.1 200 OK", True),
    ],
    ids=["http-1.0", "http-1.0-keep-alive", "http-1.0-keep-alive-header", "close", "http-1.1"],
)
def test_a_reply_keeps_or_closes_the_connection_as_its_version_and_headers_say(
    clean_environment, head, kept
):
    response = f"{head}\r\nContent-Length: {len(COMPLETION)}\r\n\r\n".encode() + COMPLETION
    session = CountingPostSession()
    received = []
    with raw_server(response, received=received) as (url, closed):
        client = ChatClient(url, "m", max_retries=0, session=session)
        for _ in range(3):
            assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"
            # The server keeps every connection open: only the client ends one.
            if not kept:
                assert closed.acquire(timeout=10)
        assert not closed.acquire(timeout=0.2)
        assert (session.posts, len(received)) == (3, 3)


@pytest.mark.parametrize(
    "response",
    [
        b"HTTP/1.1 100 Continue\r\n\r\n" + REPLY,
        b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\nHTTP/1.1 100 Continue\r\n\r\n" + REPLY,
        http_response(
            b"".join(
                b"%x;name=value\r\n%s\r\n" % (len(part), part)
                for part in (COMPLETION[:16], COMPLETION[16:])
            )
            + b"0;last\r\nExpires: never\r\nX-Trailer: 1\r\n\r\n",
            "Transfer-Encoding: chunked",
        ),
        http_response(chunked(COMPLETION), "Transfer-Encoding: chunked", "Content-Length: 3"),
    ],
    ids=["continue", "two-continues", "chunk-extensions-and-trailer", "chunked-over-length"],
)
def test_interim_replies_chunk_extensions_and_trailers_are_read_past(
    clean_environment, response
):
    received = []
    with raw_server(response, received=received) as (url, closed):
        client = ChatClient(url, "m", max_retries=0)
        for _ in range(3):
            content, usage = client.complete([ChatMessage("user", "hi")])
            assert (content, usage.total_tokens) == ("decoded", 5)
        # All of each reply was read, so one connection served every request.
        assert not closed.acquire(timeout=0.2)
        assert len(received) == 3


@pytest.mark.parametrize(
    "response, message",
    [
        (
            http_response(COMPLETION, f"X-Long: {'a' * 65536}", f"Content-Length: {len(COMPLETION)}"),
            "got more than 65536 bytes when reading header line",
        ),
        (
            http_response(
                COMPLETION, *(f"X-{i}: 1" for i in range(100)), f"Content-Length: {len(COMPLETION)}"
            ),
            "got more than 100 headers",
        ),
        (b"HTTP/1.1 200 " + b"o" * 65536 + b"\r\n\r\n", "status line"),
        (b"ICY 200 OK\r\n\r\n", "ICY 200 OK"),
        (b"HTTP/1.1 2000 OK\r\n\r\n", "HTTP/1.1 2000 OK"),
        (b"HTTP/2 200 OK\r\n\r\n", "HTTP/2$"),
        (
            http_response(b"1" * 65537 + b"\r\n", "Transfer-Encoding: chunked"),
            "got more than 65536 bytes when reading chunk size",
        ),
        (
            http_response(
                b"0\r\nX-Trailer: " + b"a" * 65536 + b"\r\n\r\n", "Transfer-Encoding: chunked"
            ),
            "got more than 65536 bytes when reading trailer line",
        ),
        (b"HTTP/1.1 2oo OK\r\n\r\n", "HTTP/1.1 2oo OK"),
    ],
    ids=[
        "header-line-too-long",
        "too-many-headers",
        "status-line-too-long",
        "not-http",
        "four-digit-status",
        "unknown-version",
        "chunk-size-line-too-long",
        "trailer-line-too-long",
        "status-not-a-number",
    ],
)
def test_a_reply_past_the_limits_or_with_a_bad_status_line_is_retried_as_transient(
    clean_environment, response, message
):
    session = CountingPostSession()
    received = []
    with raw_server(response, received=received) as (url, _):
        client = ChatClient(url, "m", max_retries=2, backoff=0, session=session)
        with pytest.raises(TransportError, match=f"after 3 attempts.*{message}"):
            client.complete([ChatMessage("user", "hi")])
    assert session.posts == 3
    assert len(received) == 3


@pytest.mark.parametrize(
    "response, message",
    [
        (
            http_response(COMPLETION, "X-No-Colon", f"Content-Length: {len(COMPLETION)}"),
            "malformed header line 'X-No-Colon",
        ),
        (http_response(b"zz\r\n" + COMPLETION, "Transfer-Encoding: chunked"), "IncompleteRead"),
        (http_response(b"40\r\n" + COMPLETION[:10], "Transfer-Encoding: chunked"), "IncompleteRead"),
        (http_response(b"a\r\n" + COMPLETION[:10], "Transfer-Encoding: chunked"), "IncompleteRead"),
    ],
    ids=["header-without-colon", "chunk-size-not-hex", "short-chunk", "chunk-without-crlf"],
)
def test_a_malformed_header_line_or_chunked_body_is_retried_as_transient(
    clean_environment, response, message
):
    session = CountingPostSession()
    received = []
    with raw_server(response, close=True, received=received) as (url, _):
        client = ChatClient(url, "m", max_retries=2, backoff=0, session=session)
        with pytest.raises(TransportError, match=f"after 3 attempts.*{message}"):
            client.complete([ChatMessage("user", "hi")])
    assert session.posts == 3
    assert len(received) == 3


@pytest.mark.parametrize(
    "fields, name, value",
    [
        (("X-Folded: first", " second", "\tthird"), "X-Folded", "first\r\n second\r\n\tthird"),
        (("X-Twice: 1", "x-twice: 2"), "X-Twice", "1, 2"),
    ],
    ids=["folded", "repeated"],
)
def test_a_folded_field_keeps_its_lines_and_a_repeated_one_is_joined(
    clean_environment, fields, name, value
):
    response = http_response(COMPLETION, *fields, f"Content-Length: {len(COMPLETION)}")
    with raw_server(response) as (url, _), requests.Session() as session:
        client = ChatClient(url, "m", max_retries=0, session=session)
        assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"
        reply = session.post(url, json={"model": "m", "messages": []})
        assert reply.headers[name] == value


def test_a_204_fails_at_once_and_its_connection_answers_the_next_call(clean_environment):
    session = CountingPostSession()
    received = []
    with raw_server(b"HTTP/1.1 204 No Content\r\n\r\n", received=received) as (url, closed):
        client = ChatClient(url, "m", max_retries=3, backoff=0, timeout=2, session=session)
        for posts in (1, 2):
            with pytest.raises(TransportError, match="^endpoint returned 204: $"):
                client.complete([ChatMessage("user", "hi")])
            assert session.posts == len(received) == posts
        # No body was waited for, so one kept-alive connection served both.
        assert not closed.acquire(timeout=0.2)
        session.close()


def test_the_most_headers_a_reply_may_have_are_read(clean_environment):
    # 99 header lines and the blank line that ends them: as many as
    # http.client reads.
    response = http_response(
        COMPLETION, *(f"X-{i}: 1" for i in range(98)), f"Content-Length: {len(COMPLETION)}"
    )
    with raw_server(response) as (url, _):
        client = ChatClient(url, "m", max_retries=0)
        assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"


@pytest.mark.parametrize("late", [False, True], ids=["with-the-reply", "after-the-reply"])
def test_bytes_no_request_asked_for_never_answer_the_next_request(clean_environment, late):
    session = CountingPostSession()
    received = []
    answered, sent = threading.Event(), threading.Event()
    stray = http_response(b"stray", "Content-Length: 5")

    def send_stray(wfile):  # on the first connection, once its reply was read
        if not sent.is_set() and answered.wait(10):
            wfile.write(stray)
            sent.set()

    response = REPLY if late else REPLY + stray
    with raw_server(response, received=received, after=send_stray if late else None) as (
        url,
        closed,
    ):
        client = ChatClient(url, "m", max_retries=0, session=session)
        assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"
        answered.set()
        assert not late or sent.wait(10)
        assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"
        if late:  # the connection that held them was closed, not used again
            assert closed.acquire(timeout=10)
    assert (session.posts, len(received)) == (2, 2)


@pytest.mark.parametrize(
    "coding, message",
    [("br", "unsupported Content-Encoding 'br'"), ("gzip", "cannot decode the gzip body")],
    ids=["unsupported", "corrupt"],
)
def test_an_undecodable_body_fails_at_once(clean_environment, coding, message):
    session = CountingPostSession()
    response = http_response(
        COMPLETION, f"Content-Encoding: {coding}", f"Content-Length: {len(COMPLETION)}"
    )
    with raw_server(response) as (url, _):
        client = ChatClient(url, "m", max_retries=3, backoff=0, session=session)
        with pytest.raises(TransportError, match=message):
            client.complete([ChatMessage("user", "hi")])
    assert session.posts == 1


def completion_with(content, usage) -> bytes:
    body = json.dumps(
        {"choices": [{"message": {"role": "assistant", "content": content}}], "usage": usage}
    ).encode()
    return http_response(body, f"Content-Length: {len(body)}")


NOT_TEXT = completion_with(42, {"prompt_tokens": 3, "completion_tokens": 2})


@pytest.mark.parametrize(
    "response, error, message",
    [
        (
            b"HTTP/1.1 401 Unauthorized\r\nContent-Length: 6\r\n\r\ndenied",
            TransportError,
            "^endpoint returned 401: denied$",
        ),
        (
            http_response(b"not json", "Content-Length: 8"),
            ProtocolError,
            "^response body is not JSON",
        ),
        (
            http_response(b"[" * 200_000, "Content-Length: 200000"),
            ProtocolError,
            "^response body is not JSON",
        ),
        (NOT_TEXT, ProtocolError, "^chat response content is not text$"),
        *(
            (completion_with("ok", usage), ProtocolError, "^chat response token counts must")
            for usage in (
                {"prompt_tokens": 12.9, "completion_tokens": 3},
                {"prompt_tokens": 12, "completion_tokens": True},
                {"prompt_tokens": "12", "completion_tokens": 3},
                {"prompt_tokens": 12, "completion_tokens": 3, "total_tokens": 15.0},
                {"prompt_tokens": 12, "completion_tokens": 3, "total_tokens": None},
            )
        ),
        *(
            (completion_with("ok", usage), ProtocolError, message)
            for usage, message in (
                (
                    {"prompt_tokens": -5, "completion_tokens": 3, "total_tokens": 999},
                    "^chat response token counts must not be negative",
                ),
                (
                    {"prompt_tokens": 5, "completion_tokens": -3, "total_tokens": 2},
                    "^chat response token counts must not be negative",
                ),
                (
                    {"prompt_tokens": 5, "completion_tokens": 3, "total_tokens": 9},
                    r"^chat response total_tokens 9 != prompt_tokens 5 \+ completion_tokens 3$",
                ),
                (
                    {"prompt_tokens": 5, "completion_tokens": 3, "total_tokens": -8},
                    r"^chat response total_tokens -8 != ",
                ),
            )
        ),
    ],
    ids=[
        "unauthorized",
        "not-json",
        "too-deeply-nested",
        "content-not-text",
        "fractional-prompt-tokens",
        "bool-completion-tokens",
        "string-prompt-tokens",
        "fractional-total-tokens",
        "null-total-tokens",
        "negative-prompt-tokens",
        "negative-completion-tokens",
        "total-tokens-not-the-sum",
        "negative-total-tokens",
    ],
)
def test_a_refused_or_malformed_answer_is_not_retried(
    clean_environment, response, error, message
):
    received = []
    with raw_server(response, received=received) as (url, _):
        client = ChatClient(url, "m", max_retries=3, backoff=0)
        with pytest.raises(error, match=message):
            client.complete([ChatMessage("user", "hi")])
    assert len(received) == 1


@pytest.mark.parametrize(
    "counts, latency, message",
    [
        ((12.9, 3, 15.9), 0.1, r"token counts must be ints: prompt_tokens is 12\.9"),
        ((12, True, 13), 0.1, "token counts must be ints: completion_tokens is True"),
        ((12, 3, "15"), 0.1, "token counts must be ints: total_tokens is '15'"),
        ((-5, 3, -2), 0.1, "token counts must not be negative: prompt_tokens is -5"),
        ((5, -3, 2), 0.1, "token counts must not be negative: completion_tokens is -3"),
        ((5, 3, 9), 0.1, r"total_tokens 9 != prompt_tokens 5 \+ completion_tokens 3"),
        ((5, 3, 8), float("nan"), "latency must be finite and not negative, not nan"),
        ((5, 3, 8), float("inf"), "latency must be finite and not negative, not inf"),
        ((5, 3, 8), -0.5, r"latency must be finite and not negative, not -0\.5"),
        ((5, 3, 8), None, "latency must be finite and not negative, not None"),
    ],
    ids=[
        "fractional-count",
        "bool-count",
        "string-total",
        "negative-prompt",
        "negative-completion",
        "total-not-the-sum",
        "nan-latency",
        "infinite-latency",
        "negative-latency",
        "no-latency",
    ],
)
def test_a_usage_record_refuses_an_impossible_value(counts, latency, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        UsageRecord(*counts, latency)
    assert UsageRecord(0, 0, 0, 0).latency == 0


def test_closing_the_session_ends_the_kept_alive_connection(clean_environment):
    with raw_server(REPLY) as (url, closed):
        session = requests.Session()
        client = ChatClient(url, "m", max_retries=0, session=session)
        for _ in range(2):
            assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"
        assert not closed.acquire(timeout=0.2)  # one connection, kept alive
        session.close()
        assert closed.acquire(timeout=10)  # the server saw it end
        # So the next post comes from a new connection.
        assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"


@pytest.mark.parametrize("timeout", [0.05, (5.0, 0.05)], ids=["float", "tuple"])
def test_a_read_timeout_is_retried_until_the_budget_is_spent(clean_environment, timeout):
    session = CountingPostSession()
    with raw_server(None) as (url, _):
        client = ChatClient(
            url, "m", max_retries=2, backoff=0, timeout=timeout, session=session
        )
        with pytest.raises(TransportError, match="after 3 attempts.*timed out"):
            client.complete([ChatMessage("user", "hi")])
    assert session.posts == 3


@pytest.mark.parametrize(
    "status, retry_after, sleeps",
    [
        ("429 Too Many Requests", "7", [7, 7, 7]),
        ("503 Service Unavailable", "1", [1, 1, 2]),
        ("429 Too Many Requests", "86400", [60, 60, 60]),
        ("429 Too Many Requests", "Wed, 21 Oct 2026 07:28:00 GMT", [0.5, 1, 2]),
        ("503 Service Unavailable", "-5", [0.5, 1, 2]),
        ("500 Internal Server Error", "7", [0.5, 1, 2]),
    ],
    ids=["seconds", "below-the-backoff", "capped", "http-date", "malformed", "not-429-or-503"],
)
def test_a_retry_waits_as_long_as_retry_after_asks_up_to_a_cap(
    clean_environment, monkeypatch, status, retry_after, sleeps
):
    slept = []
    monkeypatch.setattr(chat.time, "sleep", slept.append)
    body = b'{"error": {"message": "slow down"}}'
    response = (
        f"HTTP/1.1 {status}\r\nRetry-After: {retry_after}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body
    with raw_server(response) as (url, _):
        client = ChatClient(url, "m", max_retries=3, backoff=0.5)
        with pytest.raises(TransportError, match="after 4 attempts.*slow down"):
            client.complete([ChatMessage("user", "hi")])
    assert slept == sleeps


@contextlib.contextmanager
def recording_proxy():
    """A :func:`raw_server` to name as a proxy: yields its origin and the
    list of the requests it answers."""
    received = []
    with raw_server(REPLY, received=received) as (url, _):
        yield url.removesuffix("/v1/chat/completions"), received


def test_an_https_endpoint_never_gets_the_keep_alive_transport(clean_environment):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        url = f"https://127.0.0.1:{listener.getsockname()[1]}/v1"
        client = ChatClient(url, "m", max_retries=0, timeout=0.5)
        with pytest.raises(TransportError):
            client.complete([ChatMessage("user", "hi")])
        connection, _ = listener.accept()
        with connection:
            connection.settimeout(5)
            # A TLS handshake record, where the keep-alive path sends "POST".
            assert connection.recv(1) == b"\x16"


def test_a_later_client_with_a_proxy_reaches_the_proxy(clean_environment):
    with (
        MockChatServer([MockReply("direct"), MockReply("again")]) as server,
        recording_proxy() as (proxy, proxied_requests),
    ):
        session = requests.Session()
        direct = ChatClient(server.url, "m", max_retries=0, session=session)
        assert direct.complete([ChatMessage("user", "hi")])[0] == "direct"
        clean_environment.setenv("HTTP_PROXY", proxy)
        proxied = ChatClient(server.url, "m", max_retries=0, session=session)
        assert proxied.complete([ChatMessage("user", "hi")])[0] == "decoded"
        assert direct.complete([ChatMessage("user", "hi")])[0] == "again"
    assert [line for line, _, _ in proxied_requests] == [
        f"POST {server.url} HTTP/1.1".encode()
    ]
    assert len(server.peers) == 2
    assert len(set(server.peers)) == 1


def test_an_earlier_client_with_a_proxy_keeps_reaching_the_proxy(clean_environment):
    with (
        MockChatServer([MockReply("direct"), MockReply("again")]) as server,
        recording_proxy() as (proxy, proxied_requests),
    ):
        session = requests.Session()
        clean_environment.setenv("HTTP_PROXY", proxy)
        proxied = ChatClient(server.url, "m", max_retries=0, session=session)
        clean_environment.delenv("HTTP_PROXY")
        direct = ChatClient(server.url, "m", max_retries=0, session=session)
        for expected in ("direct", "again"):
            assert proxied.complete([ChatMessage("user", "hi")])[0] == "decoded"
            assert direct.complete([ChatMessage("user", "hi")])[0] == expected
    assert len(proxied_requests) == 2
    assert len(server.peers) == 2
    assert len(set(server.peers)) == 1


def test_the_sessions_own_proxies_reach_the_proxy(clean_environment):
    with (
        MockChatServer([MockReply("direct")]) as server,
        recording_proxy() as (proxy, proxied_requests),
    ):
        session = requests.Session()
        session.proxies = {"http": proxy}
        client = ChatClient(server.url, "m", max_retries=0, session=session)
        assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"
        session.proxies = {}  # the same client and session, now direct
        assert client.complete([ChatMessage("user", "hi")])[0] == "direct"
    assert len(proxied_requests) == 1
    assert len(server.requests) == 1


class CountingAdapter(HTTPAdapter):
    """requests' own transport, mounted by the caller."""

    sent = 0

    def send(self, request, **kwargs):
        self.sent += 1
        return super().send(request, **kwargs)


def test_both_transports_send_the_same_request(clean_environment):
    received = []
    with raw_server(REPLY, received=received) as (url, _):
        keep_alive, stock = requests.Session(), requests.Session()
        stock.mount("http://", adapter := CountingAdapter())
        for session in (keep_alive, stock):
            # A coding that only requests' own transport may ask for.
            session.headers["Accept-Encoding"] = "gzip, deflate, br"
            client = ChatClient(url, "m", max_retries=0, api_key="k", session=session)
            assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"
    assert adapter.sent == 1
    (line, sent, body), (expected_line, expected, expected_body) = received
    assert (line, body) == (expected_line, expected_body)

    def coding(lines):
        return [h for h in lines if h.lower().startswith(b"accept-encoding:")]

    assert coding(sent) == [b"Accept-Encoding: gzip, deflate"]
    assert coding(expected) == [b"Accept-Encoding: gzip, deflate, br"]
    # In any order: where Host goes is up to each transport.
    assert sorted(h for h in sent if h not in coding(sent)) == sorted(
        h for h in expected if h not in coding(expected)
    )


CHAT_BODY = json.dumps({"model": "m", "messages": [{"role": "user", "content": "other"}]})


@pytest.mark.parametrize(
    "send, status",
    [
        (lambda session, url: session.get(url), 501),
        (lambda session, url: session.head(url), 501),
        (lambda session, url: session.post(url, data=CHAT_BODY), 200),
        (lambda session, url: session.post(url, data=io.BytesIO(CHAT_BODY.encode())), 200),
        # A body of unknown length: requests sends it chunked.
        (lambda session, url: session.post(url, data=iter([CHAT_BODY.encode()])), 501),
    ],
    ids=["get", "head", "str-body", "file-body", "generator-body"],
)
def test_any_request_but_the_clients_own_post_goes_underneath(clean_environment, send, status):
    with (
        MockChatServer([MockReply("ok")] * 3) as server,
        requests.Session() as session,
    ):
        client = ChatClient(server.url, "m", max_retries=0, session=session)
        adapter = session.get_adapter(server.url)
        underneath, send_underneath = [], adapter.underneath.send

        def counting_send(request, *args, **kwargs):
            underneath.append(request.method)
            return send_underneath(request, *args, **kwargs)

        adapter.underneath.send = counting_send
        assert client.complete([ChatMessage("user", "client")])[0] == "ok"
        response = send(session, server.url)
        assert response.status_code == status
        assert client.complete([ChatMessage("user", "client")])[0] == "ok"
        assert underneath == [response.request.method]
    # The client's own posts still share one kept-alive socket.
    peers = {
        peer
        for request, peer in zip(server.requests, server.peers)
        if request["messages"][0]["content"] == "client"
    }
    assert len(peers) == 1


class RefusingAdapter(BaseAdapter):
    def send(self, request, **kwargs):
        raise requests.ConnectionError("refused by the test adapter", request=request)

    def close(self):
        pass


@pytest.mark.parametrize(
    "prefix, adapter",
    [("http://127.0.0.1", RefusingAdapter()), ("http://", HTTPAdapter(max_retries=2))],
    ids=["host-test-double", "retrying-http-adapter"],
)
def test_a_callers_own_adapter_is_kept(clean_environment, prefix, adapter):
    session = requests.Session()
    session.mount(prefix, adapter)
    ChatClient("http://127.0.0.1:8000/v1", "m", session=session)
    assert session.get_adapter("http://127.0.0.1:8000/v1") is adapter


@pytest.mark.parametrize(
    "accept_encoding",
    [
        "gzip, deflate",
        "gzip;q=1.0, identity; q=0.5",
        "gzip, deflate, br",
        "gzip, deflate, zstd",
        "",
    ],
    ids=["default", "q-values", "br", "zstd", "empty"],
)
def test_the_keep_alive_transport_needs_codings_it_can_decode(
    clean_environment, accept_encoding
):
    received = []
    body = gzip.compress(COMPLETION)
    reply = http_response(body, "Content-Encoding: gzip", f"Content-Length: {len(body)}")
    with raw_server(REPLY, received=received) as (url, _):
        session = requests.Session()
        session.headers["Accept-Encoding"] = accept_encoding
        client = ChatClient(url, "m", max_retries=0, session=session)
        assert client.complete([ChatMessage("user", "hi")])[0] == "decoded"
    # Whatever the session asks for, the request asks for what _decoded reads.
    [(_, headers, _)] = received
    assert [h for h in headers if h.lower().startswith(b"accept-encoding:")] == [
        b"Accept-Encoding: gzip, deflate"
    ]


# ---------------------------------------------------------------------------
# Prompt assembly


def test_prompt_is_system_plus_user_with_observation():
    obs = fresh_obs()
    messages = build_prompt(MECHANISM_COS, obs, None, 3)
    assert [m.role for m in messages] == ["system", "user"]
    assert messages[0].content == default_system_prompt(MECHANISM_COS, 3)
    assert '"number of Wumpus"' in messages[1].content
    assert "Previous guess" not in messages[1].content


def test_cos_prompt_carries_previous_guess_verbatim():
    obs = fresh_obs()
    guess = '{"wumpus": [[2,2]], "pits": [[3 ,1]]}'
    messages = build_prompt(MECHANISM_COS, obs, guess, 3)
    assert guess in messages[1].content
    assert "Previous guess" in messages[1].content


def test_cot_prompt_never_carries_a_guess():
    obs = fresh_obs()
    messages = build_prompt(MECHANISM_COT, obs, '{"wumpus": []}', 3)
    assert "Previous guess" not in messages[1].content
    assert messages[0].content == default_system_prompt(MECHANISM_COT, 3)


def test_default_system_prompts_document_grammar_and_format():
    cos = default_system_prompt(MECHANISM_COS, 3)
    assert "move to position (x,y)" in cos
    assert "<shootup>" in cos and "<exit>" in cos
    assert "Analysis:" in cos and "Guess:" in cos and "Action:" in cos
    assert "3x3" in cos
    cot = default_system_prompt(MECHANISM_COT, 4)
    assert "Guess:" not in cot
    assert "4x4" in cot


# ---------------------------------------------------------------------------
# Response parsing


def test_parse_cos_response_extracts_three_sections():
    decision = parse_cos_response(COS_REPLY, grid_size=3)
    assert "diagonal" in decision.analysis
    assert decision.guess == {"wumpus": [[2, 2]], "pits": []}
    assert decision.action == Action.shoot("right")
    assert decision.flags == []
    assert decision.guess_raw == '{"wumpus": [[2,2]], "pits": []}'


def test_parse_cos_response_tolerates_tuple_syntax():
    text = 'Analysis: x\nGuess: {"wumpus": [(2,2)], "pits": [(3,1)]}\nAction: <exit>'
    decision = parse_cos_response(text, grid_size=3)
    assert decision.guess == {"wumpus": [[2, 2]], "pits": [[3, 1]]}
    assert decision.flags == []


@pytest.mark.parametrize(
    "guess",
    [
        '{"wumpus": [[2,2]], "pits": [], "note": "ends with }"}',
        '{"wumpus": [[2,2]], "pits": [], "note": "{ opens"}',
        '{"wumpus": [(2,2)], "pits": [], "note": "(ends with })"}',
    ],
    ids=["closing-brace", "opening-brace", "tuple-syntax"],
)
def test_a_brace_inside_a_guess_string_is_read_as_text(guess):
    text = f"Analysis: x\nGuess: {guess} trailing words\nAction: <exit>"
    decision = parse_cos_response(text, grid_size=3)
    assert decision.flags == []
    assert decision.guess == {"wumpus": [[2, 2]], "pits": []}
    assert decision.guess_raw == guess


def test_parse_cos_response_missing_guess_degrades():
    text = "Analysis: just exploring.\nAction: move to position (2,1)"
    decision = parse_cos_response(text, grid_size=3)
    assert decision.flags == ["malformed-guess"]
    assert decision.guess == {"wumpus": [], "pits": []}
    assert decision.guess_raw is None
    assert decision.action == Action.move(2, 1)


def test_parse_cos_response_rejects_out_of_grid_guess():
    text = 'Analysis: x\nGuess: {"wumpus": [[9,9]], "pits": []}\nAction: <exit>'
    decision = parse_cos_response(text, grid_size=3)
    assert decision.flags == ["malformed-guess"]
    assert decision.guess == {"wumpus": [], "pits": []}
    assert decision.guess_raw is None


@pytest.mark.parametrize(
    "guess",
    [
        '{"wumpus": [[1]], "pits": []}',
        '{"wumpus": [], "pits": [["a", 1]]}',
        '{"pits": 5}',
        '{"wumpus": [[1.9, true]], "pits": [["2", "1"]]}',
        '{"wumpus": [[2, 2]], "pits": [["2", "1"]]}',
        '{"wumpus": [[2.0, 2]], "pits": []}',
        '{"wumpus": [[true, 1]], "pits": []}',
        '{"wumpus": [[2, 2, 1]], "pits": []}',
        '{"wumpus": [[2, 2]], "pits": [[3, 1, 0]]}',
    ],
    ids=[
        "one-number-cell",
        "text-coordinate",
        "hazards-not-a-list",
        "float-and-bool-and-digit-text",
        "digit-text",
        "float-coordinate",
        "bool-coordinate",
        "three-number-cell",
        "three-number-pit",
    ],
)
def test_a_guess_with_malformed_cells_is_flagged(guess):
    decision = parse_cos_response(f"Analysis: x\nGuess: {guess}\nAction: <exit>", 3)
    assert decision.flags == ["malformed-guess"]
    assert decision.guess == {"wumpus": [], "pits": []}
    assert decision.guess_raw is None


def test_a_too_deeply_nested_guess_is_malformed():
    # json.loads raises RecursionError on this guess, not ValueError.
    text = 'Analysis: x\nGuess: {"wumpus": ' + "[" * 100_000 + "}\nAction: <exit>"
    parsed = parse_cos_response(text, grid_size=3)
    assert parsed.flags == ["malformed-guess"] and parsed.guess_raw is None
    agent = LlmAgent(ScriptedCompleter([MockReply(text, 5, 5)], "m"), 3)
    decision = agent.decide(fresh_obs())
    assert decision.action == Action.exit()
    assert decision.flags == ["malformed-guess"]


def test_parse_cos_response_without_action_raises():
    with pytest.raises(ActionParseError):
        parse_cos_response('Analysis: hmm\nGuess: {"wumpus": []}\n', grid_size=3)


def test_action_section_wins_over_candidates_in_analysis():
    text = (
        "Analysis: I could move to position (1,2) but the breeze worries me.\n"
        'Guess: {"wumpus": [], "pits": [[2,2]]}\n'
        "Action: move to position (2,1)"
    )
    assert parse_cos_response(text, grid_size=3).action == Action.move(2, 1)


SECTION_PIECES = [
    "Analysis", "analysis:", "Guess:", "ACTION :", "guess", ":", "\n", "\n\n",
    " ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "x", "<exit>",
]


def sections(pattern, text):
    """(label, stripped text) of each section that ``pattern`` finds."""
    matches = list(pattern.finditer(text))
    ends = [m.start() for m in matches[1:]] + [len(text)]
    return [(m.group(1), text[m.end():end].strip()) for m, end in zip(matches, ends)]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(SECTION_PIECES), max_size=30).map("".join))
def test_sections_equal_those_of_the_reference_pattern(text):
    expected = sections(REFERENCE_SECTION_RE, text)
    assert sections(_SECTION_RE, text) == expected
    first = {}
    for label, body in expected:
        first.setdefault(label.lower(), body)
    assert _split_sections(text) == first


def test_parse_cos_response_reads_a_section_before_many_blank_lines():
    decision = parse_cos_response("Action: <exit>\nAnalysis: x" + "\n" * 32_000)
    assert decision.analysis == "x"
    assert decision.action == Action.exit()


# ---------------------------------------------------------------------------
# Round orchestration and the agent


def test_run_cos_round_retries_until_parseable():
    script = [
        MockReply("no action here", 5, 5),
        MockReply(COS_REPLY.replace("<shootright>", "move to position (9,9)"), 5, 5),
        MockReply(COS_REPLY, 5, 5),
    ]
    obs = fresh_obs()
    decision = run_cos_round(ScriptedCompleter(script, "m"), obs, None, grid_size=3)
    assert decision.action == Action.shoot("right")
    assert decision.provenance == "model"
    assert [c.response for c in decision.calls] == [r.content for r in script]
    assert decision.flags == ["unparseable-action", "illegal-action"]
    assert decision.guess == {"wumpus": [[2, 2]], "pits": []}


def test_run_cos_round_exhaustion_is_protocol_failure():
    # One reply more than the budget: the round must not ask for it.
    script = [MockReply("still nothing", 1, 1)] * (MAX_PARSE_RETRIES + 2)
    obs = fresh_obs()
    client = ScriptedCompleter(script, "m")
    with pytest.raises(EpisodeProtocolFailure) as excinfo:
        run_cos_round(client, obs, None, grid_size=3)
    assert len(client.requests) == MAX_PARSE_RETRIES + 1
    assert len(excinfo.value.calls) == MAX_PARSE_RETRIES + 1
    assert excinfo.value.flags == ["unparseable-action"] * (MAX_PARSE_RETRIES + 1)


def test_run_cos_round_endpoint_error_keeps_the_calls_made():
    # The retry after the unparseable reply finds the script exhausted.
    with MockChatServer([MockReply("no action here", 5, 5)]) as server:
        client = ChatClient(server.url, "m", max_retries=0)
        with pytest.raises(EpisodeProtocolFailure) as excinfo:
            run_cos_round(client, fresh_obs(), None, grid_size=3)
    assert str(excinfo.value).startswith("TransportError: ")
    assert [c.response for c in excinfo.value.calls] == ["no action here"]


def test_llm_agent_propagates_guess_between_rounds():
    replies = [
        MockReply(
            'Analysis: a\nGuess: {"wumpus": [[2,2]], "pits": []}\n'
            "Action: move to position (2,1)",
            7,
            3,
        ),
        MockReply(
            'Analysis: b\nGuess: {"wumpus": [[2,2]], "pits": [[3,1]]}\n'
            "Action: <exit>",
            8,
            4,
        ),
    ]
    world = make_world(n=3, wumpus=(3, 3), gold=(3, 1))
    client = ScriptedCompleter(replies, "m")
    agent = LlmAgent(client, 3)
    first = agent.decide(build_observation(world))
    assert first.guess_raw == '{"wumpus": [[2,2]], "pits": []}'
    from wumpusbench import apply_action

    apply_action(world, first.action)
    second = agent.decide(build_observation(world))
    round2_user = client.requests[1][1].content
    assert first.guess_raw in round2_user
    assert second.action == Action.exit()


def test_cot_agent_accepts_plain_reasoning():
    world = make_world(n=3, gold=(3, 3))
    client = ScriptedCompleter([MockReply("thinking... move to position (1,2)", 5, 5)], "m")
    agent = LlmAgent(client, 3, mechanism=MECHANISM_COT)
    decision = agent.decide(build_observation(world))
    assert decision.action == Action.move(1, 2)
    assert decision.provenance == "model"
    assert decision.guess == {"wumpus": [], "pits": []}


def test_llm_agent_refuses_an_unsupported_mechanism_as_a_configuration_error():
    with pytest.raises(ConfigurationError, match="unsupported mechanism 'planner_critic'"):
        LlmAgent(ChatClient("http://127.0.0.1:9/v1", "m"), 3, mechanism="planner_critic")
