from __future__ import annotations

import email.utils
import json
import os
import re
import time
from pathlib import Path

import pytest
import requests

from conftest import one_gateway, write_fixtures
from vapu.errors import (
    AbortedRun,
    BackendRefused,
    ConfigInvalid,
    ContextOverflow,
    EmptyPrompt,
    FixtureMiss,
    GapInIndices,
    MalformedFixtureName,
    TransientExhausted,
    UnknownModel,
    VapuError,
)
from vapu.gateway import (
    ChatExchange,
    Gateway,
    GenerationParams,
    RETRY_AFTER_CAP,
    LiveGateway,
    ReplayGateway,
    SizeClass,
    TransientBackendError,
    load_registry,
    load_replay_fixtures,
    provider_credentials,
)
from vapu.models import AgentRole, CodeDocument, RequirementSpec, from_json
from vapu.pipeline import RunContext, run_update
from vapu.workspace import RunConfig, load_transcript

PARAMS = GenerationParams(temperature=0.0)


class ScriptedGateway(Gateway):
    """Returns canned responses; optionally fails transiently first."""

    backoff_base = 0.0

    def __init__(self, responses: list[str], fail_first: int = 0):
        super().__init__(model_id="scripted")
        self.responses = list(responses)
        self.fail_first = fail_first
        self.attempts = 0

    def _send(self, role, prompt, params):
        self.attempts += 1
        if self.attempts <= self.fail_first:
            raise TransientBackendError(f"synthetic failure {self.attempts}")
        return self.responses.pop(0)


# --- registry ---

def test_default_registry_has_the_five_evaluated_models() -> None:
    assert sorted(load_registry()) == [
        "claude-3.5-sonnet", "deepseek-v3", "gpt-4o", "gpt-4o-mini", "nova-pro-1.0",
    ]


def test_gpt_4o_profile() -> None:
    profile = load_registry()["gpt-4o"]
    assert profile.company == "OpenAI"
    assert profile.size_class is SizeClass.LARGE


def test_nova_pro_is_medium_sized() -> None:
    profile = load_registry()["nova-pro-1.0"]
    assert profile.size_class is SizeClass.MEDIUM


def test_unknown_model_rejected(tmp_path) -> None:
    config = RunConfig(model="gpt-5-unknown", output_dir=tmp_path, repetitions=1)
    with pytest.raises(UnknownModel, match="registry has: claude-3.5-sonnet, deepseek-v3, "):
        RunContext.from_config(config)


def test_registry_refuses_a_repeated_profile_id_naming_the_file(tmp_path) -> None:
    entry = {"profile_id": "m", "company": "c", "model_name": "m1",
             "context_length": 1000, "size_class": "small"}
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"profiles": [entry, entry]}), encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="duplicate profile_id 'm'") as excinfo:
        load_registry(path)
    assert str(path) in str(excinfo.value)


def test_registry_loads_from_file(tmp_path) -> None:
    path = tmp_path / "registry.json"
    path.write_text(
        '{"profiles": [{"profile_id": "m", "company": "c", "model_name": "m1",'
        ' "context_length": 1000, "size_class": "small"}]}',
        encoding="utf-8",
    )
    assert load_registry(path)["m"].context_length == 1000


@pytest.mark.parametrize("field, value", [
    ("context_length_is_placeholder", "false"),
    ("context_length", "128000"),
])
def test_registry_refuses_a_flag_or_count_written_as_a_string(tmp_path, field, value) -> None:
    entry = {"profile_id": "m", "company": "c", "model_name": "m1",
             "context_length": 1000, "size_class": "small", field: value}
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"profiles": [entry]}), encoding="utf-8")
    with pytest.raises(ConfigInvalid) as excinfo:
        load_registry(path)
    assert str(path) in str(excinfo.value)


def test_size_classes_follow_parameter_ordering() -> None:
    classes = {pid: p.size_class for pid, p in load_registry().items()}
    assert classes["gpt-4o-mini"] is SizeClass.SMALL
    assert classes["deepseek-v3"] is SizeClass.MEDIUM
    assert classes["claude-3.5-sonnet"] is SizeClass.LARGE
    assert classes["gpt-4o"] is SizeClass.LARGE


# --- generation params ---

def test_generation_params_validation() -> None:
    with pytest.raises(ValueError):
        GenerationParams(temperature=1.5)
    with pytest.raises(ValueError):
        GenerationParams(temperature=0.0, max_retries=-1)
    GenerationParams(temperature=1.0)  # both endpoints allowed


# --- fixtures ---

def test_load_fixtures_counts_per_role(tmp_path) -> None:
    fixtures = load_replay_fixtures(write_fixtures(
        tmp_path, {"executor-0": "a", "executor-1": "b"}
    ))
    assert sum(1 for role, _ in fixtures if role == AgentRole.EXECUTOR.value) == 2
    assert fixtures[(AgentRole.EXECUTOR.value, 1)] == "b"


def test_load_fixtures_rejects_gaps(tmp_path) -> None:
    write_fixtures(tmp_path, {"executor-0": "a", "executor-2": "c"})
    with pytest.raises(GapInIndices):
        load_replay_fixtures(tmp_path)


def test_load_fixtures_rejects_malformed_names(tmp_path) -> None:
    (tmp_path / "executor.txt").write_text("x", encoding="utf-8")
    with pytest.raises(MalformedFixtureName):
        load_replay_fixtures(tmp_path)


def test_load_fixtures_rejects_unknown_role(tmp_path) -> None:
    write_fixtures(tmp_path, {"wizard-0": "x"})
    with pytest.raises(MalformedFixtureName):
        load_replay_fixtures(tmp_path)


def test_empty_fixture_dir_is_valid_but_always_misses(tmp_path) -> None:
    fixtures = load_replay_fixtures(tmp_path)
    assert len(fixtures) == 0
    gateway = ReplayGateway(fixtures)
    with pytest.raises(BackendRefused):
        gateway.complete(AgentRole.EXECUTOR, "prompt", PARAMS)


def test_a_missing_fixture_dir_is_a_config_error_naming_it(tmp_path) -> None:
    with pytest.raises(ConfigInvalid, match=re.escape(str(tmp_path / "absent"))):
        load_replay_fixtures(tmp_path / "absent")


def test_a_directory_named_like_a_fixture_is_refused_as_a_file_would_be(tmp_path) -> None:
    write_fixtures(tmp_path, {"executor-0": "a"})
    (tmp_path / "x.txt").mkdir()
    with pytest.raises(MalformedFixtureName, match="'x.txt'"):
        load_replay_fixtures(tmp_path)
    (tmp_path / "x.txt").rmdir()
    (tmp_path / "executor-1.txt").mkdir()
    with pytest.raises(ConfigInvalid, match=re.escape(str(tmp_path / "executor-1.txt"))):
        load_replay_fixtures(tmp_path)


def test_a_fixture_dir_that_cannot_be_listed_is_a_config_error_naming_it(
        tmp_path, monkeypatch) -> None:
    def listdir(path):  # simulated: a permission bit would not stop root
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "listdir", listdir)
    with pytest.raises(ConfigInvalid, match=f"{re.escape(str(tmp_path))}: Permission denied"):
        load_replay_fixtures(tmp_path)


def test_fixtures_in_the_current_directory_are_named_without_a_dot_prefix(
        tmp_path, monkeypatch) -> None:
    (tmp_path / "executor-0.txt").write_bytes(b"\xff")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigInvalid, match="cannot read replay fixture executor-0.txt:"):
        load_replay_fixtures(Path("."))


def test_non_txt_files_are_ignored(tmp_path) -> None:
    write_fixtures(tmp_path, {"executor-0": "a"})
    (tmp_path / "README.md").write_text("notes", encoding="utf-8")
    assert len(load_replay_fixtures(tmp_path)) == 1


# --- replay gateway ---

def test_replay_returns_fixtures_in_sequence(tmp_path) -> None:
    fixtures = load_replay_fixtures(write_fixtures(
        tmp_path, {"executor-0": "first", "executor-1": "second", "verifier-0": "ACCEPT"}
    ))
    gateway = ReplayGateway(fixtures)
    assert gateway.complete(AgentRole.EXECUTOR, "p", PARAMS).response == "first"
    assert gateway.complete(AgentRole.VERIFIER, "p", PARAMS).response == "ACCEPT"
    assert gateway.complete(AgentRole.EXECUTOR, "p", PARAMS).response == "second"


def test_replay_miss_names_the_key(tmp_path) -> None:
    gateway = ReplayGateway(load_replay_fixtures(write_fixtures(
        tmp_path, {"executor-0": "only"}
    )))
    gateway.complete(AgentRole.EXECUTOR, "p", PARAMS)
    with pytest.raises(FixtureMiss, match=r"\(executor, 1\)"):
        gateway.complete(AgentRole.EXECUTOR, "p", PARAMS)


def test_replay_is_deterministic_across_gateways(tmp_path) -> None:
    fixtures = load_replay_fixtures(write_fixtures(
        tmp_path, {"executor-0": "same", "executor-1": "next"}
    ))
    first = [ReplayGateway(fixtures).complete(AgentRole.EXECUTOR, "p", PARAMS).response
             for _ in range(3)]
    assert first == ["same", "same", "same"]


def test_exchange_records_temperature_and_duration(tmp_path) -> None:
    gateway = ReplayGateway(load_replay_fixtures(write_fixtures(
        tmp_path, {"executor-0": "x"}
    )))
    params = GenerationParams(temperature=1.0)
    exchange = gateway.complete(AgentRole.EXECUTOR, "p", params)
    assert exchange.temperature == 1.0
    assert exchange.duration >= 0
    assert exchange.model == "replay"


# --- retry behaviour ---

def test_flaky_backend_succeeds_with_recorded_retries() -> None:
    gateway = ScriptedGateway(["ok"], fail_first=2)
    exchange = gateway.complete(
        AgentRole.EXECUTOR, "p", GenerationParams(temperature=0.0, max_retries=3)
    )
    assert exchange.response == "ok"
    assert exchange.retries == 2
    assert gateway.attempts == 3


def test_retry_budget_exhaustion() -> None:
    gateway = ScriptedGateway(["never"], fail_first=99)
    with pytest.raises(TransientExhausted):
        gateway.complete(AgentRole.EXECUTOR, "p", GenerationParams(temperature=0.0, max_retries=1))
    assert gateway.attempts == 2  # first try + one retry


def test_attempts_never_exceed_retry_bound() -> None:
    for budget in range(4):
        gateway = ScriptedGateway(["x"], fail_first=99)
        with pytest.raises(TransientExhausted):
            gateway.complete(AgentRole.EXECUTOR, "p",
                             GenerationParams(temperature=0.0, max_retries=budget))
        assert gateway.attempts == 1 + budget


# --- pre-checks ---

def test_context_overflow_precheck() -> None:
    gateway = ScriptedGateway(["x"])
    gateway.context_length = 10
    with pytest.raises(ContextOverflow):
        gateway.complete(AgentRole.EXECUTOR, "word " * 100, PARAMS)


def test_blank_prompt_rejected() -> None:
    with pytest.raises(ValueError):
        ScriptedGateway(["x"]).complete(AgentRole.EXECUTOR, "  ", PARAMS)


def test_a_blank_prompt_is_an_error_a_run_aborts_on() -> None:
    with pytest.raises(EmptyPrompt, match="prompt must be non-empty") as excinfo:
        ScriptedGateway(["x"]).complete(AgentRole.EXECUTOR, "", PARAMS)
    assert isinstance(excinfo.value, VapuError)  # what _record_run turns into AbortedRun


def test_exchange_from_transcript_record_without_optional_keys() -> None:
    record = {"record": "exchange", "role": "executor", "prompt": "p", "response": "r",
              "duration": 0.5, "started_at": 1.0, "model": "m", "temperature": 0.0}
    exchange = from_json(ChatExchange, record)
    assert exchange.role is AgentRole.EXECUTOR
    assert (exchange.retries, exchange.flags) == (0, [])


# --- live gateway against a scripted endpoint ---

class FakeResponse:
    def __init__(self, payload, status_code: int = 200, headers: dict | None = None):
        self.payload = payload
        self.status_code = status_code
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})
        self.text = str(payload)

    def json(self):
        return self.payload


class FakeSession:
    """Stands in for requests.Session; answers every post from a script.

    A scripted exception is raised, as a failed connection would be; a
    scripted FakeResponse is returned as it is, with its status code and
    headers; any other payload is a 200 reply's JSON body."""

    def __init__(self, payloads: list):
        self.payloads = list(payloads)
        self.posts: list[dict] = []

    def post(self, url, **kwargs):
        self.posts.append({"url": url, **kwargs})
        payload = self.payloads.pop(0)
        if isinstance(payload, Exception):
            raise payload
        return payload if isinstance(payload, FakeResponse) else FakeResponse(payload)


def _reply(content) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def live_gateway(monkeypatch, payloads: list) -> tuple[LiveGateway, FakeSession]:
    monkeypatch.setenv("VAPU_API_KEY_OPENAI", "test-key")
    session = FakeSession(payloads)
    profile = load_registry()["gpt-4o"]
    return LiveGateway(profile, provider_credentials(profile), session=session), session


def test_live_gateway_returns_message_content(monkeypatch) -> None:
    gateway, session = live_gateway(monkeypatch, [_reply("1. do it")])
    assert gateway.complete(AgentRole.MANAGER, "p", PARAMS).response == "1. do it"
    assert session.posts[0]["url"] == "https://api.openai.com/v1/chat/completions"
    assert session.posts[0]["headers"] == {"Authorization": "Bearer test-key"}


@pytest.mark.parametrize("parallel, pool", [(1, 10), (32, 32)])
def test_every_run_of_a_live_command_shares_one_session(monkeypatch, tmp_path, parallel,
                                                        pool) -> None:
    monkeypatch.setenv("VAPU_API_KEY_OPENAI", "test-key")
    config = RunConfig(model="gpt-4o", output_dir=tmp_path, parallel=parallel)
    context = RunContext.from_config(config)
    gateways = [context.new_gateway() for _ in range(3)]
    assert len({id(gateway) for gateway in gateways}) == 3  # each run still owns its gateway
    session = gateways[0].session
    assert isinstance(session, requests.Session)
    assert all(gateway.session is session for gateway in gateways)
    # Its pool keeps a connection per worker open, so --parallel 32 drops none.
    for scheme in ("https://", "http://"):
        assert session.get_adapter(scheme + "api.openai.com")._pool_maxsize == pool
    # Another command gets its own session.
    assert RunContext.from_config(config).new_gateway().session is not session


def test_live_gateway_opens_its_own_session_by_default(monkeypatch) -> None:
    monkeypatch.setenv("VAPU_API_KEY_OPENAI", "test-key")
    profile = load_registry()["gpt-4o"]
    gateway = LiveGateway(profile, provider_credentials(profile))
    assert isinstance(gateway.session, requests.Session)


def test_a_company_name_is_trimmed_and_joined_into_both_variable_names(monkeypatch,
                                                                       tmp_path) -> None:
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"profiles": [{
        "profile_id": "m", "company": " Some Lab ", "model_name": "m1",
        "context_length": 1000, "size_class": "small"}]}), encoding="utf-8")
    monkeypatch.setenv("VAPU_API_KEY_SOME_LAB", "lab-key")
    monkeypatch.setenv("VAPU_API_BASE_SOME_LAB", "https://lab.example/v1/")
    session = FakeSession([_reply("ok")])
    profile = load_registry(path)["m"]
    gateway = LiveGateway(profile, provider_credentials(profile), session=session)
    assert gateway.complete(AgentRole.MANAGER, "p", PARAMS).response == "ok"
    assert session.posts[0]["url"] == "https://lab.example/v1/chat/completions"
    assert session.posts[0]["headers"] == {"Authorization": "Bearer lab-key"}
    assert session.posts[0]["json"]["model"] == "m1"


@pytest.mark.parametrize("model, env", [
    ("gpt-4o", {}),
    ("deepseek-v3", {"VAPU_API_KEY_DEEPSEEK": "k"}),  # only OpenAI has a default base URL
    ("deepseek-v3", {"VAPU_API_BASE_DEEPSEEK": "https://ds.example"}),
])
def test_missing_credentials_are_a_config_error_naming_both_variables(monkeypatch, model,
                                                                      env) -> None:
    for provider in ("OPENAI", "DEEPSEEK"):
        monkeypatch.delenv(f"VAPU_API_KEY_{provider}", raising=False)
        monkeypatch.delenv(f"VAPU_API_BASE_{provider}", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    profile = load_registry()[model]
    provider = profile.company.upper()
    with pytest.raises(ConfigInvalid) as excinfo:
        provider_credentials(profile)
    assert f"VAPU_API_KEY_{provider}" in str(excinfo.value)
    assert f"VAPU_API_BASE_{provider}" in str(excinfo.value)


def test_a_set_base_url_overrides_the_providers_default(monkeypatch) -> None:
    monkeypatch.setenv("VAPU_API_KEY_OPENAI", "k")
    profile = load_registry()["gpt-4o"]
    monkeypatch.delenv("VAPU_API_BASE_OPENAI", raising=False)
    assert provider_credentials(profile) == ("k", "https://api.openai.com/v1")
    monkeypatch.setenv("VAPU_API_BASE_OPENAI", "https://proxy.example/v1")
    assert provider_credentials(profile) == ("k", "https://proxy.example/v1")


def test_connection_error_is_a_transient_failure(monkeypatch) -> None:
    gateway, _ = live_gateway(monkeypatch, [requests.ConnectionError("connection refused")])
    with pytest.raises(TransientBackendError, match="connection refused"):
        gateway._send(AgentRole.MANAGER, "p", PARAMS)


def test_connection_errors_are_retried_until_the_budget_runs_out(monkeypatch) -> None:
    monkeypatch.setattr(LiveGateway, "backoff_base", 0.0)
    refused = requests.ConnectionError("connection refused")
    params = GenerationParams(temperature=0.0, max_retries=1)
    gateway, _ = live_gateway(monkeypatch, [refused, _reply("ok")])
    assert gateway.complete(AgentRole.MANAGER, "p", params).retries == 1
    gateway, session = live_gateway(monkeypatch, [refused, refused])
    with pytest.raises(TransientExhausted):
        gateway.complete(AgentRole.MANAGER, "p", params)
    assert len(session.posts) == 2


@pytest.fixture
def sleeps(monkeypatch) -> list[float]:
    """Every wait the gateway asks time.sleep for, in order, none of them slept."""
    waits: list[float] = []
    monkeypatch.setattr(time, "sleep", waits.append)
    return waits


def _refused(status: int, retry_after: str | None = None) -> FakeResponse:
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    return FakeResponse({"error": "busy"}, status_code=status, headers=headers)


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize("retry_after, wait", [("3", 3.0), ("0", 0.0), (" 7 ", 7.0)])
def test_a_rate_limit_waits_the_seconds_retry_after_names(monkeypatch, sleeps, status,
                                                          retry_after, wait) -> None:
    gateway, session = live_gateway(monkeypatch, [_refused(status, retry_after), _reply("ok")])
    exchange = gateway.complete(AgentRole.MANAGER, "p", PARAMS)
    assert (exchange.response, exchange.retries) == ("ok", 1)
    assert sleeps == [wait]
    assert len(session.posts) == 2


@pytest.mark.parametrize("status", [429, 503])
def test_retry_after_as_an_http_date_waits_until_that_time(monkeypatch, sleeps, status) -> None:
    when = email.utils.formatdate(time.time() + 30, usegmt=True)
    gateway, _ = live_gateway(monkeypatch, [_refused(status, when), _reply("ok")])
    gateway.complete(AgentRole.MANAGER, "p", PARAMS)
    [wait] = sleeps
    assert 28.0 < wait <= 30.0


# RFC 9110's preferred form and the two obsolete ones it asks recipients to read.
@pytest.mark.parametrize("when", [
    "Sun, 06 Nov 1994 08:49:37 GMT", "Sunday, 06-Nov-94 08:49:37 GMT", "Sun Nov  6 08:49:37 1994"])
def test_retry_after_as_a_past_http_date_retries_at_once(monkeypatch, sleeps, when) -> None:
    gateway, _ = live_gateway(monkeypatch, [_refused(429, when), _reply("ok")])
    gateway.complete(AgentRole.MANAGER, "p", PARAMS)
    assert sleeps == [0.0]


@pytest.mark.parametrize("retry_after", [
    "86400", email.utils.formatdate(time.time() + 86400, usegmt=True)])
def test_a_retry_after_wait_is_capped(monkeypatch, sleeps, retry_after) -> None:
    gateway, _ = live_gateway(monkeypatch, [_refused(429, retry_after), _reply("ok")])
    gateway.complete(AgentRole.MANAGER, "p", PARAMS)
    assert sleeps == [RETRY_AFTER_CAP]


@pytest.mark.parametrize("status, retry_after", [
    (429, None), (503, None), (429, ""), (429, "soon"), (429, "-1"), (429, "1.5"),
    (503, "Sun, 32 Nov 1994 08:49:37 GMT"), (429, "\u00b2"),
    # Only 429 and 503 carry a wait the gateway honours.
    (500, "3"), (502, "3"),
])
def test_without_a_readable_retry_after_the_backoff_doubles(monkeypatch, sleeps, status,
                                                            retry_after) -> None:
    params = GenerationParams(temperature=0.0, max_retries=2)
    refused = [_refused(status, retry_after), _refused(status, retry_after)]
    gateway, _ = live_gateway(monkeypatch, [*refused, _reply("ok")])
    assert gateway.complete(AgentRole.MANAGER, "p", params).retries == 2
    assert sleeps == [0.5, 1.0]


def test_retry_after_leaves_the_retry_budget_as_it_is(monkeypatch, sleeps) -> None:
    params = GenerationParams(temperature=0.0, max_retries=1)
    gateway, session = live_gateway(monkeypatch, [_refused(429, "0"), _refused(503, "2")])
    with pytest.raises(TransientExhausted, match="gave up after 2 attempts: HTTP 503"):
        gateway.complete(AgentRole.MANAGER, "p", params)
    assert sleeps == [0.0]
    assert len(session.posts) == 2


@pytest.mark.parametrize("payload", [
    _reply(None),
    _reply([{"type": "text", "text": "x"}]),
    {"choices": None},
])
def test_live_gateway_refuses_reply_without_text(monkeypatch, payload) -> None:
    gateway, _ = live_gateway(monkeypatch, [payload])
    with pytest.raises(BackendRefused):
        gateway.complete(AgentRole.MANAGER, "p", PARAMS)


def test_null_content_aborts_run_with_partial_transcript(monkeypatch, tmp_path) -> None:
    gateway, _ = live_gateway(monkeypatch, [_reply(None)])
    doc = CodeDocument(path="view.php", language_tag="php", content="<?php ?>")
    req = RequirementSpec.from_text(id="r", text="Update the view.")
    config = RunConfig(model="gpt-4o", output_dir=tmp_path, repetitions=1)
    with pytest.raises(AbortedRun) as excinfo:
        run_update(req, doc, config, context=one_gateway(gateway))
    assert isinstance(excinfo.value.__cause__, BackendRefused)
    transcript = load_transcript(tmp_path / f"{excinfo.value.run_id}.jsonl")
    assert transcript.status == "aborted"
