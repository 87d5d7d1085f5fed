import json
import time

import pytest
import requests

from support import valid_arbiter_stimulus
from svloop.cli import main
from svloop.errors import ProviderRejection, ProviderTimeout
from svloop.gateway.providers import ENV_ENDPOINT, ENV_KEY, ENV_MODEL
from svloop.gateway import providers
from svloop.gateway.providers import LiveHttpProvider
from svloop.manifest import RunConfig
from svloop.matrix import evaluate_matrix

CFG = RunConfig()


def live_provider(monkeypatch, retries=1, timeout=10.0, log_dir=None):
    """A provider for the test endpoint, with ``RETRIES`` and ``TIMEOUT_S`` set."""
    monkeypatch.setattr(providers, "RETRIES", retries)
    monkeypatch.setattr(providers, "TIMEOUT_S", timeout)
    return LiveHttpProvider("https://llm.example/v1/chat", "m-1", "secret-key", log_dir)


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise requests.JSONDecodeError("Expecting value", self.text, 0)
        return self._payload


@pytest.fixture()
def live_env(monkeypatch):
    monkeypatch.setenv(ENV_ENDPOINT, "https://llm.example/v1/chat")
    monkeypatch.setenv(ENV_MODEL, "m-1")
    monkeypatch.setenv(ENV_KEY, "secret-key")


def test_successful_completion_and_redacted_log(monkeypatch, tmp_path):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen["url"] = url
        seen["body"] = json
        seen["headers"] = headers
        return FakeResponse(200, {"choices": [{"message": {"content": "hi there"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    provider = live_provider(monkeypatch, log_dir=tmp_path / "log")
    assert provider.complete("prompt text", CFG) == "hi there"
    assert seen["url"] == "https://llm.example/v1/chat"
    assert seen["body"]["model"] == "m-1"
    assert seen["body"]["temperature"] == 0.8
    assert seen["body"]["max_tokens"] == 2048
    assert seen["headers"]["Authorization"] == "Bearer secret-key"
    logs = list((tmp_path / "log").glob("exchange-*.json"))
    assert len(logs) == 1
    record = json.loads(logs[0].read_text())
    assert "secret-key" not in json.dumps(record)
    provider.complete("prompt text", RunConfig(strategy="nls"))
    assert seen["body"]["temperature"] == 0.8
    assert seen["body"]["max_tokens"] == 512


def test_http_error_is_rejection(monkeypatch):
    monkeypatch.setattr(time, "sleep", lambda seconds: None)
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse(429, text="rate limited")
    )
    with pytest.raises(ProviderRejection, match="429"):
        live_provider(monkeypatch).complete("p", CFG)


def scripted_posts(monkeypatch, *responses):
    """Patch requests.post to answer with ``responses`` in turn (the last
    one repeats) and time.sleep to record its waits; (posts, sleeps)."""
    posts, sleeps = [], []

    def fake_post(*a, **k):
        posts.append(k["json"])
        return responses[min(len(posts), len(responses)) - 1]

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return posts, sleeps


def test_server_error_is_retried_then_succeeds(monkeypatch):
    ok = FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})
    posts, sleeps = scripted_posts(monkeypatch, FakeResponse(503, text="busy"), ok)
    assert live_provider(monkeypatch, retries=2).complete("p", CFG) == "ok"
    assert len(posts) == 2
    assert sleeps == [providers.RETRY_BACKOFF_S]


def test_persistent_server_error_rejects_after_budget(monkeypatch):
    posts, sleeps = scripted_posts(monkeypatch, FakeResponse(500, text="down"))
    with pytest.raises(ProviderRejection, match="HTTP 500"):
        live_provider(monkeypatch, retries=3).complete("p", CFG)
    assert len(posts) == 4  # initial attempt plus three retries
    backoff = providers.RETRY_BACKOFF_S
    assert sleeps == [backoff, 2 * backoff, 4 * backoff]  # none after the last attempt


def test_retry_after_header_sets_the_wait(monkeypatch):
    ok = FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})
    throttled = FakeResponse(429, text="slow down", headers={"Retry-After": "7"})
    posts, sleeps = scripted_posts(monkeypatch, throttled, ok)
    assert live_provider(monkeypatch).complete("p", CFG) == "ok"
    assert sleeps == [7]


def test_retry_after_wait_is_capped_at_the_timeout(monkeypatch):
    ok = FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})
    throttled = FakeResponse(429, text="slow down", headers={"Retry-After": "86400"})
    posts, sleeps = scripted_posts(monkeypatch, throttled, ok)
    assert live_provider(monkeypatch, timeout=30.0).complete("p", CFG) == "ok"
    assert len(posts) == 2 and sleeps == [30.0]


def test_other_client_error_is_not_retried(monkeypatch):
    posts, sleeps = scripted_posts(monkeypatch, FakeResponse(404, text="no such model"))
    with pytest.raises(ProviderRejection, match="HTTP 404"):
        live_provider(monkeypatch, retries=3).complete("p", CFG)
    assert len(posts) == 1 and sleeps == []


def test_malformed_body_is_rejection(monkeypatch):
    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200, {"oops": 1}))
    with pytest.raises(ProviderRejection, match="malformed"):
        live_provider(monkeypatch).complete("p", CFG)


def test_non_text_content_is_rejection(monkeypatch):
    body = {"choices": [{"message": {"content": None}}]}
    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200, body))
    with pytest.raises(ProviderRejection, match="not text"):
        live_provider(monkeypatch).complete("p", CFG)


def test_non_json_body_is_rejection(monkeypatch):
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse(200, text="<html>busy</html>")
    )
    with pytest.raises(ProviderRejection, match="not JSON"):
        live_provider(monkeypatch).complete("p", CFG)


def answering(monkeypatch, text):
    posts = []

    def fake_post(*a, **k):
        posts.append(k["json"])
        return FakeResponse(200, {"choices": [{"message": {"content": text}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    return posts


def assert_logged(log_dir, posts):
    logs = sorted(log_dir.glob("exchange-*.json"))
    assert posts and len(logs) == len(posts)
    for path, body in zip(logs, posts):
        record = json.loads(path.read_text())
        assert record["request"]["messages"] == body["messages"]
        assert "secret-key" not in json.dumps(record)


def test_live_gen_tests_logs_exchanges(monkeypatch, live_env, corpus_dir, tmp_path):
    posts = answering(monkeypatch, valid_arbiter_stimulus())
    out = tmp_path / "tests"
    assert main([
        "gen-tests", "arbiter2", "--problems", str(corpus_dir), "--source", "BC01",
        "--out", str(out), "--provider", "live", "--iters", "1",
    ]) == 0
    assert_logged(out / "provider_log", posts)


def test_live_debug_logs_exchanges(monkeypatch, live_env, corpus_dir, tmp_path):
    problem_dir = corpus_dir / "problems" / "arbiter2"
    manifest = json.loads((problem_dir / "manifest.json").read_text())
    witness = next(r["witness"] for r in manifest["records"] if r["bc_id"] == "BC06")
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "w.stim").write_text(witness)
    posts = answering(monkeypatch, (problem_dir / "ref.sv").read_text())
    out = tmp_path / "debugged"
    assert main([
        "debug", "arbiter2", "--problems", str(corpus_dir), "--target", "BC06",
        "--tests", str(suite), "--out", str(out), "--provider", "live",
    ]) == 0
    assert_logged(out / "provider_log", posts)


def test_timeout_retries_then_raises(monkeypatch):
    calls = []

    def fake_post(*a, **k):
        calls.append(1)
        raise requests.Timeout("too slow")

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(ProviderTimeout):
        live_provider(monkeypatch, retries=2).complete("p", CFG)
    assert len(calls) == 3  # initial attempt plus two retries


def test_timeout_then_success(monkeypatch):
    state = {"n": 0}

    def fake_post(*a, **k):
        state["n"] += 1
        if state["n"] == 1:
            raise requests.Timeout("first try")
        return FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    assert live_provider(monkeypatch).complete("p", CFG) == "ok"


NOT_TEXT = {"choices": [{"message": {"content": None}}]}


@pytest.mark.parametrize("answer, error, attempts, outcome", [
    (requests.Timeout("too slow"), ProviderTimeout, 3,
     {"error": {"type": "Timeout", "message": "too slow"}}),
    (requests.ConnectionError("refused for secret-key"), ProviderRejection, 1,
     {"error": {"type": "ConnectionError", "message": "refused for <redacted>"}}),
    (FakeResponse(429, text="slow down"), ProviderRejection, 3, {"error": {"status": 429}}),
    (FakeResponse(503, text="busy"), ProviderRejection, 3, {"error": {"status": 503}}),
    (FakeResponse(200, text="<html>busy</html>"), ProviderRejection, 1,
     {"error": {"type": "JSONDecodeError",
                "message": "Expecting value: line 1 column 1 (char 0)"}}),
    (FakeResponse(200, {"oops": 1}), ProviderRejection, 1,
     {"response": {"oops": 1},
      "error": {"type": "ProviderRejection", "message": "malformed provider response body"}}),
    (FakeResponse(200, NOT_TEXT), ProviderRejection, 1,
     {"response": NOT_TEXT,
      "error": {"type": "ProviderRejection",
                "message": "provider response content is not text"}}),
], ids=["timeout", "connection", "429", "5xx", "not-json", "malformed", "not-text"])
def test_every_failed_attempt_leaves_a_redacted_record(monkeypatch, tmp_path, answer, error,
                                                       attempts, outcome):
    posts = []

    def fake_post(*a, **k):
        posts.append(k["json"])
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(time, "sleep", lambda seconds: None)
    provider = live_provider(monkeypatch, retries=2, log_dir=tmp_path / "log")
    with pytest.raises(error):
        provider.complete("prompt text", CFG)
    logs = sorted((tmp_path / "log").glob("exchange-*.json"))
    assert len(posts) == attempts
    assert [p.name for p in logs] == [f"exchange-{n:04d}.json" for n in range(1, attempts + 1)]
    for path in logs:
        text = path.read_text()
        assert "secret-key" not in text
        record = json.loads(text)
        assert record.pop("request") == dict(posts[0], authorization="<redacted>")
        assert record == outcome


# every input combination of full_adder, the answer to generation prompts
# when only the debug prompts fail
FULL_ADDER_SUITE = "inputs: a[1], b[1], c[1]\n" + "\n".join(
    " ".join(f"{n:03b}") for n in range(8)) + "\n"


@pytest.mark.parametrize("stage, states", [
    ("gen", "sources/*/genstate.json"),
    ("debug", "debug/*/state.json"),
], ids=["gen", "debug"])
@pytest.mark.parametrize("answer, attempts, detail", [
    (FakeResponse(200, text="<html>busy</html>"), 1, "provider response body is not JSON"),
    (requests.ConnectionError("refused for secret-key"), 1,
     "provider request failed: refused for <redacted>"),
    (requests.Timeout("too slow"), 3, "provider timed out after 3 attempts"),
    (FakeResponse(429, text="slow down"), 3, "provider returned HTTP 429: slow down"),
    (FakeResponse(503, text="busy"), 3, "provider returned HTTP 503: busy"),
    (FakeResponse(200, {"oops": 1}), 1, "malformed provider response body"),
    (FakeResponse(200, NOT_TEXT), 1, "provider response content is not text"),
], ids=["not-json", "connection", "timeout", "429", "5xx", "malformed", "not-text"])
def test_provider_faults_are_rejections_of_their_units(monkeypatch, live_env, problems,
                                                       tmp_path, answer, attempts, detail,
                                                       stage, states):
    posts, failed = [], []
    suite = FakeResponse(200, {"choices": [{"message": {"content": FULL_ADDER_SUITE}}]})

    def fake_post(*a, **k):
        posts.append(k["json"])
        prompt = k["json"]["messages"][0]["content"]
        if stage == "debug" and "corrected SystemVerilog" not in prompt:
            return suite
        failed.append(k["json"])
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(time, "sleep", lambda seconds: None)
    out = tmp_path / "run"
    summary = evaluate_matrix([problems["full_adder"]], RunConfig(provider="live"), out)
    assert (out / "summary.json").exists()
    assert "error" not in summary["problems"]["full_adder"]
    paths = sorted(out.glob(f"problems/full_adder/{states}"))
    assert paths
    rejections = []
    for path in paths:
        unit = json.loads(path.read_text())["rejections"]
        assert unit and {(r["reason"], r["detail"]) for r in unit} == {("provider", detail)}
        rejections += unit
    # every call that met the fault was rejected after all of its attempts
    assert len(failed) == attempts * len(rejections)
    logs = sorted((out / "provider_log").iterdir())
    assert [p.name for p in logs] == [f"exchange-{n:04d}.json" for n in range(1, len(posts) + 1)]
    for path in out.rglob("*"):
        assert path.is_dir() or b"secret-key" not in path.read_bytes(), path
