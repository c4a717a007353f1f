"""Minimal chat-completions HTTP client.

Speaks the prevailing commercial wire shape: POST a JSON body of
``{"model", "messages": [{"role", "content"}], "temperature"}`` and read
``choices[0].message.content`` plus the ``usage`` token counts back. Latency
is measured locally around the successful request. Transient failures
(connection errors, timeouts, a broken chunked body, 429 and 5xx statuses)
are retried with exponential backoff; any other failure raises
``TransportError`` at once. An endpoint that is not an ``http`` or ``https``
URL with a host and a valid port is refused with ``ConfigurationError`` when
the client is built.

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
posts over one keep-alive ``http.client`` connection per thread and asks for
``gzip`` or ``deflate`` bodies only. A request that a proxy applies to goes
on to the ``HTTPAdapter`` it replaced, which handles proxies; ``https``
requests never meet it. On a local call requests' own adapter costs about as
much CPU as the rest of the post, which matters to local OpenAI-compatible
servers on plain ``http`` and to ``mock-serve``; hosted APIs are ``https``.
The adapter stores no ``Set-Cookie`` in the session.
"""

from __future__ import annotations

import http.client
import os
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


def _close_all(connections: set[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()
    connections.clear()


# A reused connection that fails this way has not answered the request: the
# server closed it while it sat idle, after the readability check.
_DROPPED = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


class _KeepAliveAdapter(BaseAdapter):
    """requests transport for one plain-HTTP host and port: one keep-alive
    ``http.client`` connection per thread, and ``underneath``, the adapter it
    was mounted over, for each request that a proxy applies to.

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
        self._open: set[http.client.HTTPConnection] = set()
        self._lock = threading.Lock()
        # An adapter dropped unclosed, with its session, closes its sockets,
        # as urllib3's pools do.
        weakref.finalize(self, _close_all, self._open)

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        # As HTTPAdapter.send itself reads the proxies.
        if proxies and select_proxy(request.url, proxies):
            return self.underneath.send(request, stream, timeout, verify, cert, proxies)
        request.headers["Accept-Encoding"] = "gzip, deflate"  # what _decoded reads
        connect_s, read_s = timeout if isinstance(timeout, tuple) else (timeout, timeout)
        try:
            raw, body = self._round_trip(request, connect_s, read_s)
        except socket.timeout as exc:
            raise requests.Timeout(exc, request=request) from exc
        except http.client.IncompleteRead as exc:
            raise ChunkedEncodingError(exc, request=request) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise requests.ConnectionError(exc, request=request) from exc
        # A body that cannot be decoded was still read in full, so the
        # connection stays usable.
        body = _decoded(body, raw.getheader("Content-Encoding"))

        headers = CaseInsensitiveDict()
        for name, value in raw.getheaders():
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        response = requests.Response()
        response.status_code = raw.status
        response.reason = raw.reason
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

    def _round_trip(self, request, connect_s, read_s) -> tuple[http.client.HTTPResponse, bytes]:
        """The response to ``request`` and its body as sent; on any error the
        connection is closed."""
        connection = getattr(self._local, "connection", None)
        try:
            if connection is not None and _readable(connection.sock):
                self._discard(connection)
                connection = None
            if connection is not None:
                try:
                    raw = self._exchange(connection, request, read_s)
                except _DROPPED:
                    self._discard(connection)
                    connection = None
            if connection is None:
                connection = self._connect(connect_s)
                raw = self._exchange(connection, request, read_s)
            if raw.will_close:
                self._discard(connection)
            return raw, raw.read()
        except BaseException:
            if connection is not None:
                self._discard(connection)
            raise

    def _connect(self, timeout) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(*self._address, timeout=timeout)
        connection.connect()
        # http.client sets this itself only from Python 3.11 on.
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._local.connection = connection
        with self._lock:
            self._open.add(connection)
        return connection

    def _discard(self, connection: http.client.HTTPConnection) -> None:
        if getattr(self._local, "connection", None) is connection:
            del self._local.connection
        with self._lock:
            self._open.discard(connection)
        connection.close()

    @staticmethod
    def _exchange(connection, request, read_s) -> http.client.HTTPResponse:
        """Send ``request`` and read the response's status and headers."""
        if connection.sock.gettimeout() != read_s:
            connection.sock.settimeout(read_s)
        body = request.body
        if isinstance(body, str):  # as urllib3 sends it
            body = body.encode("utf-8")
        connection.request(
            request.method,
            request.path_url,
            body,
            request.headers,
            encode_chunked="Transfer-Encoding" in request.headers,
        )
        return connection.getresponse()


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "system" | "user" | "assistant"
    content: str

    def to_dict(self) -> dict:
        return {"role": self.role, "content": self.content}


@dataclass(frozen=True)
class UsageRecord:
    prompt_tokens: int
    completion_tokens: int
    total_tokens: int
    latency: float  # seconds of wall clock around the request


class ChatClient:
    """One model behind one endpoint; safe to share across threads.

    The environment (proxies, ``REQUESTS_CA_BUNDLE``/``CURL_CA_BUNDLE``,
    netrc) is read when the client is built, as a default session would read
    it for each request, and not again: set it before building the client.
    A session passed in with ``trust_env = False`` keeps ignoring it. An
    endpoint that is not an ``http`` or ``https`` URL with a host and a valid
    port raises :class:`ConfigurationError`.
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
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
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
        # JSON ints only: int() would read 12.9, true or "12" as a count.
        if not type(prompt) is int is type(completion) is type(usage.get("total_tokens", 0)):
            raise ProtocolError(f"chat response token counts must be ints: {usage!r:.200}")
        total = usage.get("total_tokens", prompt + completion)
        if prompt < 0 or completion < 0:
            raise ProtocolError(
                f"chat response token counts must not be negative: {usage!r:.200}"
            )
        if total != prompt + completion:
            raise ProtocolError(
                f"chat response total_tokens {total} != prompt_tokens {prompt} "
                f"+ completion_tokens {completion}"
            )
        if not isinstance(content, str):
            raise ProtocolError("chat response content is not text")
        record = UsageRecord(
            prompt_tokens=prompt,
            completion_tokens=completion,
            total_tokens=total,
            latency=latency,
        )
        return content, record
