import json

import pytest
import requests

from svloop.errors import ProviderRejection, ProviderTimeout
from svloop.gateway import GenConfig, ProviderBinding
from svloop.gateway.config import ENV_ENDPOINT, ENV_KEY, ENV_MODEL
from svloop.gateway.providers import LiveHttpProvider
from svloop.manifest import RunConfig
from svloop.matrix import evaluate_matrix

CFG = GenConfig()


def live_binding(**kw):
    defaults = dict(endpoint="https://llm.example/v1/chat", model="m-1",
                    credential="secret-key", retries=1, timeout=5.0)
    defaults.update(kw)
    return ProviderBinding("live", **defaults)


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise requests.JSONDecodeError("Expecting value", self.text, 0)
        return self._payload


def test_successful_completion_and_redacted_log(monkeypatch, tmp_path):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen["url"] = url
        seen["body"] = json
        seen["headers"] = headers
        return FakeResponse(200, {"choices": [{"message": {"content": "hi there"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    provider = LiveHttpProvider(live_binding(), log_dir=tmp_path / "log")
    assert provider.complete("prompt text", CFG) == "hi there"
    assert seen["url"] == "https://llm.example/v1/chat"
    assert seen["body"]["model"] == "m-1"
    assert seen["body"]["temperature"] == 0.8
    assert seen["headers"]["Authorization"] == "Bearer secret-key"
    logs = list((tmp_path / "log").glob("exchange-*.json"))
    assert len(logs) == 1
    record = json.loads(logs[0].read_text())
    assert "secret-key" not in json.dumps(record)


def test_http_error_is_rejection(monkeypatch):
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse(429, text="rate limited")
    )
    with pytest.raises(ProviderRejection, match="429"):
        LiveHttpProvider(live_binding()).complete("p", CFG)


def test_malformed_body_is_rejection(monkeypatch):
    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200, {"oops": 1}))
    with pytest.raises(ProviderRejection, match="malformed"):
        LiveHttpProvider(live_binding()).complete("p", CFG)


def test_non_json_body_is_rejection(monkeypatch):
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse(200, text="<html>busy</html>")
    )
    with pytest.raises(ProviderRejection, match="not JSON"):
        LiveHttpProvider(live_binding()).complete("p", CFG)


def test_non_json_body_does_not_abort_evaluate(monkeypatch, problems, tmp_path):
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse(200, text="<html>busy</html>")
    )
    monkeypatch.setenv(ENV_ENDPOINT, "https://llm.example/v1/chat")
    monkeypatch.setenv(ENV_MODEL, "m-1")
    monkeypatch.setenv(ENV_KEY, "secret-key")
    out = tmp_path / "run"
    summary = evaluate_matrix([problems["full_adder"]], RunConfig(provider="live"), out)
    assert (out / "summary.json").exists()
    assert "error" not in summary["problems"]["full_adder"]
    genstates = sorted(out.glob("problems/full_adder/sources/*/genstate.json"))
    assert genstates
    for path in genstates:
        rejections = json.loads(path.read_text())["rejections"]
        assert rejections and all(
            r["reason"] == "provider" and "not JSON" in r["detail"] for r in rejections
        )


def test_timeout_retries_then_raises(monkeypatch):
    calls = []

    def fake_post(*a, **k):
        calls.append(1)
        raise requests.Timeout("too slow")

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(ProviderTimeout):
        LiveHttpProvider(live_binding(retries=2)).complete("p", CFG)
    assert len(calls) == 3  # initial attempt plus two retries


def test_timeout_then_success(monkeypatch):
    state = {"n": 0}

    def fake_post(*a, **k):
        state["n"] += 1
        if state["n"] == 1:
            raise requests.Timeout("first try")
        return FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    assert LiveHttpProvider(live_binding()).complete("p", CFG) == "ok"


def test_mock_binding_cannot_build_live_provider():
    with pytest.raises(ProviderRejection):
        LiveHttpProvider(ProviderBinding.mock("/tmp/x"))
