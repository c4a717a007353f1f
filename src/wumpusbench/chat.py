"""Minimal chat-completions HTTP client.

Speaks the prevailing commercial wire shape: POST a JSON body of
``{"model", "messages": [{"role", "content"}], "temperature"}`` and read
``choices[0].message.content`` plus the ``usage`` token counts back. Latency
is measured locally around the successful request. Transient failures
(connection errors, timeouts, a broken chunked body, 429 and 5xx statuses)
are retried with exponential backoff; any other failure, such as an endpoint
URL without a usable scheme or host, raises ``TransportError`` at once.

Credentials are never taken from config files: the client reads
``WUMPUSBENCH_API_KEY`` (falling back to ``OPENAI_API_KEY``) unless a key is
passed explicitly.

The environment is read once, when a client is built. A ``requests`` session
that trusts the environment scans it on every request for proxies, a CA
bundle and netrc credentials; on a small local call that scan costs more CPU
than the rest of the post. The client resolves the same settings for its
endpoint up front, turns the session's own lookup off and passes them with
each post.
"""

from __future__ import annotations

import os
import time
import weakref
from dataclasses import dataclass
from typing import Sequence

import requests
from requests.utils import get_environ_proxies, get_netrc_auth

from .errors import ProtocolError, TransportError

API_KEY_ENV = "WUMPUSBENCH_API_KEY"
_FALLBACK_KEY_ENV = "OPENAI_API_KEY"

# Request failures that a later attempt can get past; any other one (a
# malformed or unsupported URL, say) fails the call at once.
_TRANSIENT = (
    requests.ConnectionError,
    requests.Timeout,
    requests.exceptions.ChunkedEncodingError,
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
    A session passed in with ``trust_env = False`` keeps ignoring it.
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
        except ValueError as exc:
            raise ProtocolError(f"response body is not JSON: {exc}") from exc
        try:
            content = body["choices"][0]["message"]["content"]
            usage = body["usage"]
            prompt = int(usage["prompt_tokens"])
            completion = int(usage["completion_tokens"])
            total = int(usage.get("total_tokens", prompt + completion))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed chat response: {exc}") from exc
        if not isinstance(content, str):
            raise ProtocolError("chat response content is not text")
        record = UsageRecord(
            prompt_tokens=prompt,
            completion_tokens=completion,
            total_tokens=total,
            latency=latency,
        )
        return content, record
