"""Completion providers: a deterministic scripted mock and a live
HTTP chat-completion client.

A mock script is a directory of numbered response files plus an
``index.json`` mapping prompt digests to files; digest hits replay
without consuming the sequence, anything else is served next-in-order.
Without an ``index.json``, the ``response-*.txt`` files are served in
name order.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from ..errors import (
    MockScriptError,
    ProviderRejection,
    ProviderTimeout,
    ScriptExhausted,
    _mkdir,
    _read_json,
    _read_text,
    _required_keys,
    _write_bytes,
)
from .config import DEFAULT_TEMPERATURE, OUTPUT_TOKENS

if TYPE_CHECKING:
    from ..manifest import RunConfig

INDEX_NAME = "index.json"
ENV_ENDPOINT = "SVLOOP_PROVIDER_ENDPOINT"
ENV_MODEL = "SVLOOP_PROVIDER_MODEL"
ENV_KEY = "SVLOOP_PROVIDER_KEY"
TIMEOUT_S = 60.0        # per POST attempt, and the longest wait before a retry
RETRIES = 2             # retries after a timeout, HTTP 429 or 5xx
RETRY_BACKOFF_S = 1.0   # wait before the first retry of an HTTP 429/5xx; doubles per retry


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ScriptedMockProvider:
    """Replays recorded responses."""

    def __init__(self, responses=(), digest_map: Optional[dict[str, str]] = None):
        self._sequence = list(responses)
        self._digests = dict(digest_map or {})
        self._cursor = 0

    @classmethod
    def from_dir(cls, path) -> "ScriptedMockProvider":
        path = Path(path)
        if not path.is_dir():
            raise MockScriptError(f"mock script directory not found: {path}")
        index_file = path / INDEX_NAME
        if not index_file.exists():
            names = sorted(p.name for p in path.glob("response-*.txt"))
            return cls([_read_text(path / name, MockScriptError) for name in names])
        index = _read_json(index_file, MockScriptError)
        with _required_keys(index_file, MockScriptError):
            digest_map = {digest: _read_text(path / name, MockScriptError)
                          for digest, name in index.get("digests", {}).items()}
            sequence = [_read_text(path / name, MockScriptError)
                        for name in index.get("sequence", [])]
        return cls(sequence, digest_map)

    def complete(self, prompt: str, cfg: RunConfig) -> str:
        digest = prompt_digest(prompt)
        if digest in self._digests:
            return self._digests[digest]
        if self._cursor >= len(self._sequence):
            raise ScriptExhausted(
                f"mock script exhausted after {self._cursor} sequential responses"
            )
        response = self._sequence[self._cursor]
        self._cursor += 1
        return response

    @property
    def calls_made(self) -> int:
        return self._cursor


def save_mock_script(path, sequence=(), digest_responses: Optional[dict[str, str]] = None):
    """Write a script directory consumable by ScriptedMockProvider."""
    path = Path(path)
    _mkdir(path, parents=True)
    index = {"digests": {}, "sequence": []}
    counter = 0
    for text in sequence:
        counter += 1
        name = f"response-{counter:03d}.txt"
        _write_bytes(path / name, text.encode())
        index["sequence"].append(name)
    for digest, text in sorted((digest_responses or {}).items()):
        counter += 1
        name = f"response-{counter:03d}.txt"
        _write_bytes(path / name, text.encode())
        index["digests"][digest] = name
    _write_bytes(path / INDEX_NAME, json.dumps(index, indent=2, sort_keys=True).encode())


class RecordingProvider:
    """Wraps another provider and records each prompt's digest and response
    so a run can later be replayed offline through the scripted mock."""

    def __init__(self, inner):
        self.inner = inner
        self.responses: dict[str, str] = {}  # prompt digest -> latest response

    def complete(self, prompt: str, cfg: RunConfig) -> str:
        response = self.inner.complete(prompt, cfg)
        self.responses[prompt_digest(prompt)] = response
        return response

    def save_script(self, path):
        save_mock_script(path, digest_responses=self.responses)


class LiveHttpProvider:
    """Chat-completion style HTTP client; credentials never reach logs.
    Timeouts, HTTP 429 and 5xx are retried up to ``RETRIES`` times, and no
    wait before a retry is longer than ``TIMEOUT_S``. With a ``log_dir``,
    every POST attempt writes one ``exchange-NNNN.json``: the request, and
    the JSON body it got back or what went wrong."""

    def __init__(self, endpoint: str, model: str, credential: str, log_dir=None):
        self.endpoint = endpoint
        self.model = model
        self.credential = credential
        self.log_dir = Path(log_dir) if log_dir else None
        self._counter = 0

    @classmethod
    def from_env(cls, log_dir=None, env=os.environ) -> "LiveHttpProvider":
        """The provider named by ``SVLOOP_PROVIDER_ENDPOINT/MODEL/KEY``."""
        endpoint, model, credential = (env.get(name)
                                       for name in (ENV_ENDPOINT, ENV_MODEL, ENV_KEY))
        if not (endpoint and model and credential):
            raise ProviderRejection(
                "live provider requires endpoint, model, and credential "
                f"(set {ENV_ENDPOINT}, {ENV_MODEL}, {ENV_KEY})"
            )
        return cls(endpoint, model, credential, log_dir)

    def complete(self, prompt: str, cfg: RunConfig) -> str:
        import requests

        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": DEFAULT_TEMPERATURE,
            "max_tokens": OUTPUT_TOKENS[cfg.strategy],
        }
        headers = {"Authorization": f"Bearer {self.credential}"}
        last_error = None
        for attempt in range(RETRIES + 1):
            try:
                response = requests.post(
                    self.endpoint,
                    json=body,
                    headers=headers,
                    timeout=TIMEOUT_S,
                )
            except requests.Timeout as exc:
                self._log(body, error=self._failure(exc))
                last_error = exc
                continue
            except requests.RequestException as exc:
                failure = self._failure(exc)
                self._log(body, error=failure)
                raise ProviderRejection(f"provider request failed: {failure['message']}") from exc
            status = response.status_code
            if status != 200:
                self._log(body, error={"status": status})
                last_error = ProviderRejection(
                    f"provider returned HTTP {status}: {response.text[:200]}"
                )
                if status != 429 and not 500 <= status < 600:
                    raise last_error
                if attempt < RETRIES:
                    time.sleep(min(_retry_delay(response, attempt), TIMEOUT_S))
                continue
            try:
                payload = response.json()
            except ValueError as exc:
                self._log(body, error=self._failure(exc))
                raise ProviderRejection("provider response body is not JSON") from exc
            try:
                text = _content(payload)
            except ProviderRejection as exc:
                self._log(body, response=payload, error=self._failure(exc))
                raise
            self._log(body, response=payload)
            return text
        if isinstance(last_error, ProviderRejection):
            raise last_error
        raise ProviderTimeout(
            f"provider timed out after {RETRIES + 1} attempts"
        ) from last_error

    def _failure(self, exc: Exception) -> dict:
        message = str(exc).replace(self.credential, "<redacted>")
        return {"type": type(exc).__name__, "message": message}

    def _log(self, request_body, **outcome):
        if self.log_dir is None:
            return
        _mkdir(self.log_dir, parents=True)
        self._counter += 1
        record = {"request": dict(request_body, authorization="<redacted>"), **outcome}
        _write_bytes(self.log_dir / f"exchange-{self._counter:04d}.json",
                     json.dumps(record, indent=2, sort_keys=True).encode())


def _content(payload) -> str:
    """The completion text of a chat-completion response body."""
    try:
        text = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProviderRejection("malformed provider response body") from exc
    if not isinstance(text, str):
        raise ProviderRejection("provider response content is not text")
    return text


def _retry_delay(response, attempt: int) -> float:
    """Seconds to wait before retrying a throttled or failed request: an
    integer ``Retry-After`` header, else exponential backoff."""
    retry_after = response.headers.get("Retry-After", "")
    if retry_after.isdigit():
        return int(retry_after)
    return RETRY_BACKOFF_S * 2 ** attempt


def build_provider(config, log_dir=None):
    """The provider a ``RunConfig`` names; a live one logs under ``log_dir``."""
    if config.provider == "mock":
        if not config.script_dir:
            raise ProviderRejection("--provider mock requires --mock-script DIR")
        return ScriptedMockProvider.from_dir(config.script_dir)
    return LiveHttpProvider.from_env(log_dir)
