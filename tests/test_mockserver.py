"""The mock endpoint's HTTP framing, driven over raw sockets.

``requests`` only ever sends well-formed requests, so these tests write the
bytes themselves: keep-alive and ``Connection: close`` handling, ``Expect:
100-continue``, a client that resets its connection, and every malformed
request that must get an error status and a closed connection without
touching the script or printing to stderr.
"""

from __future__ import annotations

import json
import socket
import struct
from contextlib import contextmanager
from urllib.parse import urlsplit

import pytest

from wumpusbench import MockChatServer, MockReply

BODY = json.dumps({"model": "m", "messages": [{"role": "user", "content": "hi"}]}).encode()


def request(*headers: str, body: bytes = BODY, start: str = "POST /v1 HTTP/1.1") -> bytes:
    lines = [start, *headers, f"Content-Length: {len(body)}", "", ""]
    return "\r\n".join(lines).encode() + body


@contextmanager
def connect(server: MockChatServer):
    url = urlsplit(server.url)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        with sock.makefile("rb") as stream:
            yield sock, stream


def read_response(stream) -> tuple[int, dict[str, str], bytes]:
    status = int(stream.readline().split()[1])
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers["content-length"]))


def content(body: bytes) -> str:
    return json.loads(body)["choices"][0]["message"]["content"]


@pytest.mark.parametrize(
    "version, connection, stays_open",
    [
        ("HTTP/1.1", None, True),
        ("HTTP/1.1", "Connection: close", False),
        ("HTTP/1.0", None, False),
        ("HTTP/1.0", "Connection: keep-alive", True),
    ],
)
def test_mock_keeps_a_connection_alive_unless_told_to_close(version, connection, stays_open):
    with MockChatServer([MockReply("a"), MockReply("b")]) as server:
        with connect(server) as (sock, stream):
            headers = [connection] if connection else []
            sock.sendall(request(*headers, start=f"POST /v1 {version}"))
            status, got, body = read_response(stream)
            assert (status, content(body)) == (200, "a")
            expected = {"content-type": "application/json", "content-length": str(len(body))}
            if not stays_open:
                expected["connection"] = "close"
            assert got == expected  # no Server or Date header
            if stays_open:
                sock.sendall(request(*headers, start=f"POST /v1 {version}"))
                assert content(read_response(stream)[2]) == "b"
            else:
                assert stream.read() == b""
    assert len(server.requests) == (2 if stays_open else 1)


def test_mock_answers_with_the_chat_completion_shape():
    text = 'Action: "move" \\ \u00e9\n'
    with MockChatServer([MockReply(text, 7, 3)]) as server:
        with connect(server) as (sock, stream):
            sock.sendall(request(body=json.dumps({"model": ["m", 1], "messages": []}).encode()))
            status, _, body = read_response(stream)
    assert status == 200
    assert json.loads(body) == {
        "id": "mock",
        "object": "chat.completion",
        "model": ["m", 1],
        "choices": [
            {
                "index": 0,
                "message": {"role": "assistant", "content": text},
                "finish_reason": "stop",
            }
        ],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3, "total_tokens": 10},
    }


def test_mock_answers_expect_100_continue_before_the_body_is_sent():
    with MockChatServer([MockReply("a")]) as server:
        with connect(server) as (sock, stream):
            head, _, body = request("Expect: 100-continue").partition(b"\r\n\r\n")
            sock.sendall(head + b"\r\n\r\n")
            assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert stream.readline() == b"\r\n"
            sock.sendall(body)
            status, _, reply = read_response(stream)
    assert (status, content(reply)) == (200, "a")


def test_mock_turns_nagle_off():
    with MockChatServer([MockReply("a")]) as server:
        with connect(server) as (sock, stream):
            sock.sendall(request())
            assert read_response(stream)[0] == 200
            (accepted,) = server._server._open
            assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_mock_handler_ends_quietly_when_the_client_resets(capfd):
    with MockChatServer([MockReply("a")]) as server:
        with connect(server) as (sock, stream):
            sock.sendall(request())
            assert read_response(stream)[0] == 200
            # A zero linger time makes close() reset the connection.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    assert capfd.readouterr().err == ""


def test_mock_closes_quietly_at_end_of_file_inside_the_headers(capfd):
    with MockChatServer([MockReply("first")]) as server:
        with connect(server) as (sock, stream):
            sock.sendall(b"POST /v1 HTTP/1.1\r\nContent-Length: 2\r\n")
            sock.shutdown(socket.SHUT_WR)
            assert stream.read() == b""
        assert server.requests == []
        with connect(server) as (sock, stream):  # the script is untouched
            sock.sendall(request())
            assert content(read_response(stream)[2]) == "first"
    assert capfd.readouterr().err == ""


ODD_BODIES = {
    "messages not a list": ({"model": "m", "messages": "hi"}, 200),
    "messages an object": ({"model": "m", "messages": {"role": "user", "content": "hi"}}, 200),
    "items not objects": ({"model": "m", "messages": [1, None, "hi", ["x"]]}, 200),
    "content not text": (
        {"model": "m", "messages": [{"role": "user", "content": 5}, {"content": ["a"]}, {}]},
        200,
    ),
    "no messages": ({"model": "m"}, 400),
    "not an object": (["model", "messages"], 400),
}


@pytest.mark.parametrize("payload, status", ODD_BODIES.values(), ids=ODD_BODIES)
def test_mock_answers_an_odd_message_list_as_it_always_has(payload, status):
    # Message texts are interned as a body is kept; any other shape of
    # ``messages`` is kept and answered as it was before.
    with MockChatServer([MockReply("first")]) as server:
        with connect(server) as (sock, stream):
            sock.sendall(request(body=json.dumps(payload).encode()))
            got, _, body = read_response(stream)
    assert got == status
    if status == 200:
        assert content(body) == "first"
        assert server.requests == [payload]
    else:
        assert "message" in json.loads(body)["error"]
        assert server.requests == []


BAD_LENGTHS = ["abc", "-1", "1e3", ""]
BAD_REQUESTS = {
    "request line": (b"NONSENSE\r\n\r\n", 400),
    "extra request-line part": (b"POST /v1 HTTP/1.1 more\r\n\r\n", 400),
    "unknown version": (b"POST /v1 HTTP/2.0\r\n\r\n", 400),
    "header without colon": (b"POST /v1 HTTP/1.1\r\nno colon here\r\n\r\n", 400),
    "space before colon": (b"POST /v1 HTTP/1.1\r\nContent-Length : 2\r\n\r\n{}", 400),
    "too many headers": (b"POST /v1 HTTP/1.1\r\n" + b"X-A: 1\r\n" * 101 + b"\r\n", 431),
    "long header line": (b"POST /v1 HTTP/1.1\r\nX-A: " + b"a" * (1 << 16) + b"\r\n\r\n", 431),
    "long request line": (b"POST /" + b"a" * (1 << 16) + b" HTTP/1.1\r\n\r\n", 414),
    "transfer encoding": (
        b"POST /v1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        501,
    ),
    "body too large": (b"POST /v1 HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n", 413),
    "GET": (b"GET /v1 HTTP/1.1\r\nHost: x\r\n\r\n", 501),
    **{
        f"Content-Length {value!r}": (
            f"POST /v1 HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode() + BODY,
            400,
        )
        for value in BAD_LENGTHS
    },
}


@pytest.mark.parametrize("raw, status", BAD_REQUESTS.values(), ids=BAD_REQUESTS)
def test_mock_answers_a_malformed_request_and_closes(capfd, raw, status):
    with MockChatServer([MockReply("first")]) as server:
        with connect(server) as (sock, stream):
            sock.sendall(raw)
            got, headers, body = read_response(stream)
            assert (got, headers["connection"]) == (status, "close")
            assert "message" in json.loads(body)["error"]
            assert stream.read() == b""
        assert server.requests == []
        with connect(server) as (sock, stream):
            sock.sendall(request())
            got, _, body = read_response(stream)
            assert (got, content(body)) == (200, "first")
    assert capfd.readouterr().err == ""
