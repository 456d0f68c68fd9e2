from __future__ import annotations

import pytest

from conftest import write_fixtures
from vapu.errors import (
    AbortedRun,
    BackendRefused,
    ContextOverflow,
    FixtureMiss,
    GapInIndices,
    MalformedFixtureName,
    TransientExhausted,
    UnknownModel,
)
from vapu.gateway import (
    ChatExchange,
    Gateway,
    GenerationParams,
    LiveGateway,
    ModelRegistry,
    ReplayGateway,
    SizeClass,
    TransientBackendError,
    load_replay_fixtures,
    resolve_model,
)
from vapu.models import AgentRole, CodeDocument, RequirementSpec
from vapu.pipeline import run_update
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
    registry = ModelRegistry.default()
    assert sorted(registry.profiles) == [
        "claude-3.5-sonnet", "deepseek-v3", "gpt-4o", "gpt-4o-mini", "nova-pro-1.0",
    ]


def test_gpt_4o_profile() -> None:
    profile = resolve_model(ModelRegistry.default(), "gpt-4o")
    assert profile.company == "OpenAI"
    assert profile.size_class is SizeClass.LARGE


def test_nova_pro_is_medium_sized() -> None:
    profile = resolve_model(ModelRegistry.default(), "nova-pro-1.0")
    assert profile.size_class is SizeClass.MEDIUM


def test_unknown_model_rejected() -> None:
    with pytest.raises(UnknownModel):
        resolve_model(ModelRegistry.default(), "gpt-5-unknown")


def test_registry_loads_from_file(tmp_path) -> None:
    path = tmp_path / "registry.json"
    path.write_text(
        '{"profiles": [{"profile_id": "m", "company": "c", "model_name": "m1",'
        ' "context_length": 1000, "size_class": "small"}]}',
        encoding="utf-8",
    )
    registry = ModelRegistry.from_file(path)
    assert registry.resolve("m").context_length == 1000


def test_size_classes_follow_parameter_ordering() -> None:
    registry = ModelRegistry.default()
    classes = {pid: p.size_class for pid, p in registry.profiles.items()}
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
    assert fixtures.count(AgentRole.EXECUTOR) == 2
    assert fixtures.get(AgentRole.EXECUTOR, 1) == "b"


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


def test_exchange_dict_round_trip() -> None:
    exchange = ChatExchange(
        role=AgentRole.VERIFIER, prompt="p", response="r", duration=0.25,
        started_at=123.5, model="m", temperature=1.0, retries=2, flags=["no_fence"],
    )
    assert ChatExchange.from_dict(exchange.to_dict()) == exchange


# --- live gateway against a scripted endpoint ---

class FakeResponse:
    def __init__(self, payload, status_code: int = 200):
        self.payload = payload
        self.status_code = status_code
        self.text = str(payload)

    def json(self):
        return self.payload


class FakeSession:
    """Stands in for requests.Session; answers every post from a script."""

    def __init__(self, payloads: list):
        self.payloads = list(payloads)
        self.posts: list[dict] = []

    def post(self, url, **kwargs):
        self.posts.append({"url": url, **kwargs})
        return FakeResponse(self.payloads.pop(0))


def _reply(content) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def live_gateway(monkeypatch, payloads: list) -> tuple[LiveGateway, FakeSession]:
    monkeypatch.setenv("VAPU_API_KEY_OPENAI", "test-key")
    session = FakeSession(payloads)
    profile = ModelRegistry.default().resolve("gpt-4o")
    return LiveGateway(profile, session=session), session


def test_live_gateway_returns_message_content(monkeypatch) -> None:
    gateway, session = live_gateway(monkeypatch, [_reply("1. do it")])
    assert gateway.complete(AgentRole.MANAGER, "p", PARAMS).response == "1. do it"
    assert session.posts[0]["url"] == "https://api.openai.com/v1/chat/completions"
    assert session.posts[0]["headers"] == {"Authorization": "Bearer test-key"}


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
        run_update(req, doc, config, gateway=gateway)
    assert isinstance(excinfo.value.__cause__, BackendRefused)
    transcript = load_transcript(tmp_path / f"{excinfo.value.run_id}.jsonl")
    assert transcript.status == "aborted"
