"""Minimal chat-completions HTTP client.

Speaks the prevailing commercial wire shape: POST a JSON body of
``{"model", "messages": [{"role", "content"}], "temperature"}`` and read
``choices[0].message.content`` plus the ``usage`` token counts back. Latency
is measured locally around the successful request; a :class:`UsageRecord`
holds both and refuses an invalid usage, which the client reports as
:class:`ProtocolError`. Transient failures
(connection errors, timeouts, a broken chunked body, 429 and 5xx statuses)
are retried with exponential backoff; any other failure raises
``TransportError`` at once. After a 429 or 503 whose ``Retry-After`` is a
whole number of seconds, the client waits the larger of its backoff and that
value, which is capped at ``_MAX_RETRY_AFTER`` seconds; an HTTP date or a
malformed value leaves the backoff as it is. An endpoint that is not an
``http`` or ``https`` URL with a host and a valid port, or a temperature that
is not a finite number, is refused with ``ConfigurationError`` when the
client is built.

Credentials are never taken from config files: the client reads
``WUMPUSBENCH_API_KEY`` (falling back to ``OPENAI_API_KEY``) unless a key is
passed explicitly.

The environment is read once, when a client is built. A ``requests`` session
that trusts the environment scans it on every request for proxies, a CA
bundle and netrc credentials; on a small local call that scan costs more CPU
than the rest of the post. The client resolves the same settings for its
endpoint up front, turns the session's own lookup off and passes them with
each post.

A client for a plain ``http`` endpoint mounts a keep-alive adapter on its
session for that exact URL, unless one is mounted there already or the
session would send the URL through anything but requests' stock
``HTTPAdapter`` without retries: a caller's own adapter stands. The adapter
carries what the client sends, a ``POST`` with a ``bytes`` body that no
proxy applies to, on one socket per thread, and speaks HTTP/1.1 on it
itself: the request goes out in one write, and the reply is read from the
bytes each read of the socket gives, by http.client's rules for framing,
limits and keep-alive (see ``_KeepAliveAdapter``). It asks for ``gzip`` or
``deflate`` bodies only. Every other request goes on to the ``HTTPAdapter``
it replaced; ``https`` requests never meet it. On a local call requests' own
adapter costs about as much CPU as the rest of the post, which matters to
local OpenAI-compatible servers on plain ``http`` and to ``mock-serve``;
hosted APIs are ``https``. The adapter stores no ``Set-Cookie`` in the
session.
"""

from __future__ import annotations

import functools
import http.client
import math
import os
import re
import select
import socket
import threading
import time
import weakref
import zlib
from dataclasses import dataclass
from typing import Sequence
from urllib.parse import urlsplit

import requests
from requests.adapters import BaseAdapter, HTTPAdapter
from requests.exceptions import ChunkedEncodingError, ContentDecodingError
from requests.structures import CaseInsensitiveDict
from requests.utils import (
    get_encoding_from_headers,
    get_environ_proxies,
    get_netrc_auth,
    select_proxy,
)

from .errors import ConfigurationError, ProtocolError, TransportError

API_KEY_ENV = "WUMPUSBENCH_API_KEY"
_FALLBACK_KEY_ENV = "OPENAI_API_KEY"

# Request failures that a later attempt can get past; any other one (a
# malformed or unsupported URL, say) fails the call at once.
_TRANSIENT = (
    requests.ConnectionError,
    requests.Timeout,
    ChunkedEncodingError,
)

# The longest wait a Retry-After header can ask for, in seconds.
_MAX_RETRY_AFTER = 60.0

# Sessions whose environment lookup a client turned off: they still trusted
# the environment, so every later client on them reads it too.
_ENV_READ_BY_CLIENT: weakref.WeakSet[requests.Session] = weakref.WeakSet()


def _environment_settings(session: requests.Session, url: str) -> dict:
    """The proxies, CA bundle and netrc credentials that ``session`` would
    read from the environment for each request to ``url``, resolved now; the
    session stops reading them itself."""
    if not (session.trust_env or session in _ENV_READ_BY_CLIENT):
        return {}
    _ENV_READ_BY_CLIENT.add(session)
    session.trust_env = False
    settings = {
        "proxies": get_environ_proxies(url),
        "verify": os.environ.get("REQUESTS_CA_BUNDLE")
        or os.environ.get("CURL_CA_BUNDLE")
        or None,
    }
    if not session.auth:
        settings["auth"] = get_netrc_auth(url)
    return settings


def _retry_after(response: requests.Response) -> float:
    """The seconds a 429 or 503 ``response`` asks the client to wait, up to
    ``_MAX_RETRY_AFTER``; 0 when it gives no whole number of seconds."""
    if response.status_code not in (429, 503):
        return 0.0
    value = (response.headers.get("Retry-After") or "").strip()
    if not (value.isascii() and value.isdigit()):  # an HTTP date, or malformed
        return 0.0
    return min(float(value), _MAX_RETRY_AFTER)


def _readable(sock: socket.socket) -> bool:
    """Whether ``sock`` can be read without waiting: on an idle connection,
    the server closed it or sent what no request asked for."""
    if hasattr(select, "poll"):  # select.select fails on descriptors over 1023
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _decoded(body: bytes, coding: str | None) -> bytes:
    """``body`` without its ``Content-Encoding``: ``gzip`` or ``deflate``,
    the codings that :class:`_KeepAliveAdapter` asks for, or ``identity``."""
    coding = (coding or "identity").strip().lower()
    if coding == "identity" or not body:
        return body
    try:
        if coding == "gzip":
            return zlib.decompress(body, 16 + zlib.MAX_WBITS)
        if coding == "deflate":
            try:
                return zlib.decompress(body)
            except zlib.error:  # raw deflate without the zlib header, as urllib3 accepts
                return zlib.decompress(body, -zlib.MAX_WBITS)
    except zlib.error as exc:
        raise ContentDecodingError(f"cannot decode the {coding} body: {exc}") from exc
    raise ContentDecodingError(f"unsupported Content-Encoding {coding!r}")


# http.client's limits on the head of a reply: the bytes of one line, and
# the lines of a header block, counting the blank line that ends it.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_RECV_BYTES = 65536

# A header line as the email parser under http.client reads one: a name of
# visible characters but the colon, the colon, and a value without a CR or
# an LF but at its end, its leading spaces and tabs left out.
_FIELD = re.compile(r"([!-9;-~]+):[ \t]*([^\r\n]*\r?\n?)")


class _Connection:
    """One kept-alive connection: a connected socket, and the bytes read from
    it that no reply has used yet."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = b""
        self._pos = 0  # where the unused bytes of _buffer start

    @property
    def pending(self) -> bool:
        """Whether bytes were read past the replies read so far."""
        return self._pos < len(self._buffer)

    def _fill(self) -> bool:
        """Read more of the socket into the buffer; False at its end."""
        data = self.sock.recv(_RECV_BYTES)
        if data:
            self._buffer = self._buffer[self._pos :] + data
            self._pos = 0
        return bool(data)

    def readline(self, what: str) -> bytes:
        """The next line with its ending; at the end of the stream, what is
        left of it. A line over ``_MAX_LINE`` bytes raises ``LineTooLong``,
        which names it ``what``."""
        while True:
            start, limit = self._pos, self._pos + _MAX_LINE + 1
            end = self._buffer.find(b"\n", start, limit) + 1
            if end or len(self._buffer) >= limit or not self._fill():
                break
        self._pos = end or min(len(self._buffer), limit)
        if self._pos - start > _MAX_LINE:
            raise http.client.LineTooLong(what)
        return self._buffer[start : self._pos]

    def read(self, size: float) -> bytes:
        """The next ``size`` bytes, or fewer where the stream ends first;
        ``math.inf`` reads to the end."""
        start = self._pos
        self._pos = min(start + size, len(self._buffer))
        parts = [self._buffer[start : self._pos]]
        missing = size - len(parts[0])
        while missing > 0 and (data := self.sock.recv(min(missing, _RECV_BYTES))):
            parts.append(data)
            missing -= len(data)
        return b"".join(parts)


def _close_all(connections: set[_Connection]) -> None:
    for connection in connections:
        connection.sock.close()
    connections.clear()


def _read_status(connection: _Connection) -> tuple[str, int, str]:
    """The version, status code and reason of the status line read next."""
    line = connection.readline("status line")
    if not line:
        raise http.client.RemoteDisconnected(
            "Remote end closed connection without response"
        )
    text = str(line, "iso-8859-1")
    version, status, reason = (text.split(None, 2) + ["", ""])[:3]
    try:
        code = int(status)
    except ValueError:
        code = 0
    if not (version.startswith("HTTP/") and 100 <= code <= 999):
        raise http.client.BadStatusLine(text)
    return version, code, reason.strip()


def _read_fields(connection: _Connection) -> list[list[str]]:
    """The ``[name, value]`` pairs of the header block read next, each value
    as its lines came, without its leading spaces and tabs: an obsolete
    continuation line is kept in the value before it. A line that is no
    header raises ``HTTPException``."""
    fields = []
    for count in range(1, _MAX_HEADERS + 2):
        line = connection.readline("header line")
        if count > _MAX_HEADERS:
            break
        if line in (b"\r\n", b"\n", b""):
            return fields
        text = str(line, "iso-8859-1")
        if text[0] in " \t" and fields and "\r" not in text.rstrip("\r\n"):
            fields[-1][1] += text
        elif field := _FIELD.fullmatch(text):
            fields.append(list(field.groups()))
        else:
            raise http.client.HTTPException(f"malformed header line {text!r:.80}")
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_body(connection: _Connection, status: int, fields: dict) -> tuple[bytes, bool]:
    """The body of a reply, framed as http.client frames it by the first
    value of each of its ``fields`` (keyed by lowercase name), and whether it
    ran to the end of the stream."""
    if fields.get("transfer-encoding", "").lower() == "chunked":
        return _read_chunked(connection), False
    if status in (204, 304):
        return b"", False
    try:
        length = int(fields.get("content-length", ""))
    except ValueError:
        length = -1
    if length < 0:  # no length: the body ends where the stream does
        return connection.read(math.inf), True
    body = connection.read(length)
    if len(body) < length:
        raise http.client.IncompleteRead(body, length - len(body))
    return body, False


def _read_chunked(connection: _Connection) -> bytes:
    """A chunked body, without chunk extensions, and its trailer read past."""
    parts = []
    while True:
        try:
            size = int(connection.readline("chunk size").partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:  # no chunk size: the framing is lost
            raise http.client.IncompleteRead(b"")
        if size == 0:
            break
        part = connection.read(size)
        if len(part) < size:
            raise http.client.IncompleteRead(part, size - len(part))
        parts.append(part)
        connection.read(2)  # the CRLF; at the end of the stream no size follows
    while connection.readline("trailer line") not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(parts)


def _will_close(version: str, fields: dict) -> bool:
    """Whether a reply's version and headers close its connection after it,
    by http.client's rules."""
    connection = fields.get("connection", "").lower()
    if version != "HTTP/1.0" and version != "HTTP/0.9":
        return "close" in connection
    return not (
        fields.get("keep-alive")
        or "keep-alive" in connection
        or "keep-alive" in fields.get("proxy-connection", "").lower()
    )


# A reused connection that fails this way has not answered the request: the
# server closed it while it sat idle, after the readability check.
_DROPPED = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


class _KeepAliveAdapter(BaseAdapter):
    """requests transport for one plain-HTTP host and port. What
    :class:`ChatClient` sends, a ``POST`` whose body is ``bytes`` and that no
    proxy applies to, goes over one kept-alive socket per thread, spoken to
    in HTTP/1.1 directly; every other request goes to ``underneath``, the
    adapter this one was mounted over.

    A request goes out in one write: the request line, ``Host`` as
    http.client writes it, the request's headers and its body. The reply is
    read from the bytes the socket gives: a status line, past any ``1xx``
    interim reply, header lines of at most 64 KiB each and at most 100 with
    the blank line, and a body framed by ``Content-Length``, by ``chunked``
    (extensions and trailer read past), or by the close of the connection.
    The connection closes after an HTTP/1.0 reply without ``keep-alive``, a
    ``Connection: close``, a body read to the close, and bytes the server
    sent past the reply, which no request asked for.

    A line over the limits, a malformed status or header line and a short
    body fail the request as requests' own errors that the client retries.
    An idle connection that the server closed is replaced before it is used.
    When the close races the request, the request goes once more over a new
    connection; either way the caller sees one request and no error. The
    whole body is read before ``send`` returns, also when streaming is asked
    for.
    """

    def __init__(self, host: str, port: int, underneath: HTTPAdapter):
        super().__init__()
        self.underneath = underneath
        self._address = (host, port)
        self._local = threading.local()  # .connection: the calling thread's
        self._open: set[_Connection] = set()
        self._lock = threading.Lock()
        # An adapter dropped unclosed, with its session, closes its sockets,
        # as urllib3's pools do.
        weakref.finalize(self, _close_all, self._open)

    @functools.cached_property
    def _host_field(self) -> bytes:
        """The ``Host`` header line that http.client writes: the port left
        out when it is 80, an IPv6 literal in brackets without its zone."""
        host, port = self._address
        try:
            name = host.encode("ascii")
        except UnicodeEncodeError:
            name = host.encode("idna")
        if ":" in host:
            name = b"[" + name.partition(b"%")[0] + b"]"
        return b"Host: " + (name if port == 80 else b"%s:%d" % (name, port))

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        # Only what ChatClient sends is carried here; a proxy is looked up
        # as HTTPAdapter.send looks it up.
        if not (request.method == "POST" and type(request.body) is bytes) or (
            proxies and select_proxy(request.url, proxies)
        ):
            return self.underneath.send(request, stream, timeout, verify, cert, proxies)
        request.headers["Accept-Encoding"] = "gzip, deflate"  # what _decoded reads
        connect_s, read_s = timeout if isinstance(timeout, tuple) else (timeout, timeout)
        try:
            status, reason, headers, body = self._round_trip(request, connect_s, read_s)
        except socket.timeout as exc:
            raise requests.Timeout(exc, request=request) from exc
        except http.client.IncompleteRead as exc:
            raise ChunkedEncodingError(exc, request=request) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise requests.ConnectionError(exc, request=request) from exc
        # A body that cannot be decoded was still read in full, so the
        # connection stays usable.
        body = _decoded(body, headers.get("Content-Encoding"))

        response = requests.Response()
        response.status_code = status
        response.reason = reason
        response.headers = headers
        response.encoding = get_encoding_from_headers(headers)
        # A body already read: what requests holds once it has read ``raw``.
        response._content = body
        response._content_consumed = True
        response.url = request.url
        response.request = request
        response.connection = self
        return response

    def close(self) -> None:
        """Close every thread's connection, and ``underneath``."""
        with self._lock:
            self._local = threading.local()
            _close_all(self._open)
        self.underneath.close()

    def _serialized(self, request) -> bytes:
        """``request`` as the bytes of one write."""
        headers = request.headers
        lines = [f"{request.method} {request.path_url} HTTP/1.1".encode("ascii")]
        if "Host" not in headers:
            lines.append(self._host_field)
        for name, value in headers.items():
            if not isinstance(name, bytes):
                name = name.encode("ascii")
            if not isinstance(value, bytes):
                value = value.encode("latin-1")
            lines.append(name + b": " + value)
        head = b"\r\n".join(lines)
        # Each CR and LF ends a line: none is inside a header.
        if not head.count(b"\r") == head.count(b"\n") == len(lines) - 1:
            raise ValueError(f"a CR or LF inside a request header: {head!r:.200}")
        return head + b"\r\n\r\n" + request.body

    def _round_trip(self, request, connect_s, read_s) -> tuple:
        """The status, reason, headers and body as sent of the reply to
        ``request``; on any error the connection is closed."""
        data = self._serialized(request)
        connection = getattr(self._local, "connection", None)
        try:
            if connection is not None and _readable(connection.sock):
                self._discard(connection)
                connection = None
            if connection is not None:
                try:
                    head = self._exchange(connection, data, read_s)
                except _DROPPED:
                    self._discard(connection)
                    connection = None
            if connection is None:
                connection = self._connect(connect_s)
                head = self._exchange(connection, data, read_s)
            version, status, reason, fields = head
            headers = CaseInsensitiveDict()
            first = {}  # the first value of each field, by lowercase name
            for name, value in fields:
                value = value.rstrip("\r\n")
                if (key := name.lower()) in first:
                    headers[name] = f"{headers[name]}, {value}"
                else:
                    headers[name] = first[key] = value
            body, to_end = _read_body(connection, status, first)
            if to_end or connection.pending or _will_close(version, first):
                self._discard(connection)
            return status, reason, headers, body
        except BaseException:
            if connection is not None:
                self._discard(connection)
            raise

    def _connect(self, timeout) -> _Connection:
        connection = _Connection(socket.create_connection(self._address, timeout))
        self._local.connection = connection
        with self._lock:
            self._open.add(connection)
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def _discard(self, connection: _Connection) -> None:
        if getattr(self._local, "connection", None) is connection:
            del self._local.connection
        with self._lock:
            self._open.discard(connection)
        connection.sock.close()

    @staticmethod
    def _exchange(connection: _Connection, data: bytes, read_s) -> tuple:
        """Send ``data`` and read the final reply's version, status, reason
        and header fields."""
        if connection.sock.gettimeout() != read_s:
            connection.sock.settimeout(read_s)
        connection.sock.sendall(data)
        version, status, reason = _read_status(connection)
        while status < 200:  # an interim reply: only its headers follow
            _read_fields(connection)
            version, status, reason = _read_status(connection)
        if not (version in ("HTTP/1.0", "HTTP/0.9") or version.startswith("HTTP/1.")):
            raise http.client.UnknownProtocol(version)
        return version, status, reason, _read_fields(connection)


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "system" | "user" | "assistant"
    content: str

    def to_dict(self) -> dict:
        return {"role": self.role, "content": self.content}


@dataclass(frozen=True)
class UsageRecord:
    """One call's token counts and latency, valid as soon as it exists: each
    count is an int (a bool is not), none is negative and the total is the
    sum of the other two; the latency is a finite number of seconds, not
    below zero. Anything else raises ``ValueError``."""

    prompt_tokens: int
    completion_tokens: int
    total_tokens: int
    latency: float  # seconds of wall clock around the request

    def __post_init__(self):
        # JSON ints only: int() would read 12.9, true or "12" as a count.
        for name in ("prompt_tokens", "completion_tokens", "total_tokens"):
            if type(count := getattr(self, name)) is not int:
                raise ValueError(f"token counts must be ints: {name} is {count!r:.80}")
        for name in ("prompt_tokens", "completion_tokens"):
            if (count := getattr(self, name)) < 0:
                raise ValueError(f"token counts must not be negative: {name} is {count}")
        if self.total_tokens != self.prompt_tokens + self.completion_tokens:
            raise ValueError(
                f"total_tokens {self.total_tokens} != prompt_tokens {self.prompt_tokens} "
                f"+ completion_tokens {self.completion_tokens}"
            )
        # ``json`` reads NaN and Infinity, which would turn every rate to nan.
        latency = self.latency
        if type(latency) not in (int, float) or not (math.isfinite(latency) and latency >= 0):
            raise ValueError(f"latency must be finite and not negative, not {latency!r:.80}")


class ChatClient:
    """One model behind one endpoint; safe to share across threads.

    The environment (proxies, ``REQUESTS_CA_BUNDLE``/``CURL_CA_BUNDLE``,
    netrc) is read when the client is built, as a default session would read
    it for each request, and not again: set it before building the client.
    A session passed in with ``trust_env = False`` keeps ignoring it. An
    endpoint that is not an ``http`` or ``https`` URL with a host and a valid
    port, or a temperature that is not a finite ``int`` or ``float``, raises
    :class:`ConfigurationError`.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        *,
        temperature: float = 0.0,
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        api_key: str | None = None,
        session: requests.Session | None = None,
    ):
        parts = urlsplit(endpoint)
        try:
            port = parts.port
        except ValueError as exc:  # not a number, or out of range
            raise ConfigurationError(f"endpoint: {exc} in {endpoint!r:.80}") from exc
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigurationError(
                f"endpoint: expected an http or https URL with a host, not {endpoint!r:.80}"
            )
        # ``json`` reads NaN and Infinity, which no request body may carry.
        if type(temperature) not in (int, float) or not math.isfinite(temperature):
            raise ConfigurationError(
                f"temperature must be a finite number, not {temperature!r:.80}"
            )
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._api_key = api_key or os.environ.get(API_KEY_ENV) or os.environ.get(
            _FALLBACK_KEY_ENV
        )
        self._session = session or requests.Session()
        self._settings = _environment_settings(self._session, endpoint)
        if parts.scheme == "http" and endpoint not in self._session.adapters:
            underneath = self._session.get_adapter(endpoint)
            if type(underneath) is HTTPAdapter and underneath.max_retries.total == 0:
                self._session.mount(
                    endpoint, _KeepAliveAdapter(parts.hostname, port or 80, underneath)
                )

    def complete(self, messages: Sequence[ChatMessage]) -> tuple[str, UsageRecord]:
        """Run one completion; returns the assistant text and its usage."""
        payload = {
            "model": self.model,
            "messages": [m.to_dict() for m in messages],
            "temperature": self.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"

        last_error: Exception | None = None
        asked = 0.0  # seconds the last failed attempt's Retry-After asked for
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(max(self.backoff * 2 ** (attempt - 1), asked))
                asked = 0.0
            started = time.perf_counter()
            try:
                response = self._session.post(
                    self.endpoint,
                    json=payload,
                    headers=headers,
                    timeout=self.timeout,
                    **self._settings,
                )
            except _TRANSIENT as exc:
                last_error = exc
                continue
            except requests.RequestException as exc:
                raise TransportError(f"chat request failed: {exc}") from exc
            if response.status_code == 429 or response.status_code >= 500:
                last_error = TransportError(
                    f"endpoint returned {response.status_code}: {response.text[:200]}"
                )
                asked = _retry_after(response)
                continue
            if response.status_code != 200:
                raise TransportError(
                    f"endpoint returned {response.status_code}: {response.text[:200]}"
                )
            latency = time.perf_counter() - started
            return self._parse_body(response, latency)
        raise TransportError(
            f"chat endpoint failed after {self.max_retries + 1} attempts: {last_error}"
        )

    @staticmethod
    def _parse_body(response: requests.Response, latency: float) -> tuple[str, UsageRecord]:
        try:
            body = response.json()
        except (ValueError, RecursionError) as exc:  # too deep a nesting too
            raise ProtocolError(f"response body is not JSON: {exc}") from exc
        try:
            content = body["choices"][0]["message"]["content"]
            usage = body["usage"]
            prompt, completion = usage["prompt_tokens"], usage["completion_tokens"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat response: {exc}") from exc
        try:  # an endpoint may leave the total out: it is then the sum
            total = usage["total_tokens"] if "total_tokens" in usage else prompt + completion
        except TypeError:  # counts without a sum, which the record refuses
            total = None
        try:
            record = UsageRecord(prompt, completion, total, latency)
        except ValueError as exc:
            raise ProtocolError(f"chat response {exc}") from exc
        if not isinstance(content, str):
            raise ProtocolError("chat response content is not text")
        return content, record
