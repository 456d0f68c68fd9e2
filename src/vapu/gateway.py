"""Provider-agnostic access to chat-completion endpoints.

Three backends share one contract: a live HTTP backend with retry and
backoff, a deterministic replay backend driven by fixture files, and
whatever test doubles subclass :class:`Gateway`.  Every call returns a
:class:`ChatExchange` so transcripts capture the full conversation.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping

import requests

from .errors import (
    BackendRefused,
    ContextOverflow,
    FixtureMiss,
    GapInIndices,
    MalformedFixtureName,
    TransientExhausted,
    UnknownModel,
)
from .models import AgentRole

# Rough prompt-size estimate used for the context pre-check.
CHARS_PER_TOKEN = 4


class SizeClass(str, Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


@dataclass(frozen=True)
class GenerationParams:
    """Per-call generation settings passed through to the endpoint."""

    temperature: float
    max_output_tokens: int = 4096
    request_timeout: float = 120.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError(f"temperature must be in [0, 1], got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


@dataclass(frozen=True)
class ModelProfile:
    """Registry entry: company, model, context length and categorized size."""

    profile_id: str
    company: str
    model_name: str
    context_length: int
    size_class: SizeClass
    context_length_is_placeholder: bool = False

    def __post_init__(self) -> None:
        if self.context_length <= 0:
            raise ValueError("context_length must be positive")


class ModelRegistry:
    """Lookup table of model profiles loaded from a registry file."""

    def __init__(self, profiles: Mapping[str, ModelProfile]):
        self.profiles = dict(profiles)

    def resolve(self, profile_id: str) -> ModelProfile:
        try:
            return self.profiles[profile_id]
        except KeyError:
            known = ", ".join(sorted(self.profiles))
            raise UnknownModel(f"unknown model {profile_id!r}; registry has: {known}") from None

    @classmethod
    def from_file(cls, path: Path) -> "ModelRegistry":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls._from_entries(data["profiles"])

    @classmethod
    def default(cls) -> "ModelRegistry":
        raw = resources.files("vapu").joinpath("registry.json").read_text(encoding="utf-8")
        return cls._from_entries(json.loads(raw)["profiles"])

    @classmethod
    def _from_entries(cls, entries: list[dict]) -> "ModelRegistry":
        profiles = {}
        for entry in entries:
            profile = ModelProfile(
                profile_id=entry["profile_id"],
                company=entry["company"],
                model_name=entry["model_name"],
                context_length=int(entry["context_length"]),
                size_class=SizeClass(entry["size_class"]),
                context_length_is_placeholder=bool(entry.get("context_length_is_placeholder", False)),
            )
            if profile.profile_id in profiles:
                raise ValueError(f"duplicate profile_id {profile.profile_id!r} in registry")
            profiles[profile.profile_id] = profile
        return cls(profiles)


def resolve_model(registry: ModelRegistry, profile_id: str) -> ModelProfile:
    """Look up a profile by id, raising UnknownModel when absent."""
    return registry.resolve(profile_id)


@dataclass
class ChatExchange:
    """One prompt/response pair with its timing and provenance.

    ``retries`` counts extra endpoint attempts beyond the first;
    ``flags`` collects pipeline annotations such as no_fence/truncated.
    """

    role: AgentRole
    prompt: str
    response: str
    duration: float
    started_at: float
    model: str
    temperature: float
    retries: int = 0
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "role": self.role.value,
            "prompt": self.prompt,
            "response": self.response,
            "duration": self.duration,
            "started_at": self.started_at,
            "model": self.model,
            "temperature": self.temperature,
            "retries": self.retries,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChatExchange":
        return cls(
            role=AgentRole(data["role"]),
            prompt=data["prompt"],
            response=data["response"],
            duration=data["duration"],
            started_at=data["started_at"],
            model=data["model"],
            temperature=data["temperature"],
            retries=data.get("retries", 0),
            flags=list(data.get("flags", [])),
        )


class ReplayFixtureSet:
    """Canned responses keyed by (role, per-role sequence index)."""

    def __init__(self, entries: Mapping[tuple[str, int], str]):
        self.entries = dict(entries)

    def get(self, role: AgentRole, index: int) -> str:
        try:
            return self.entries[(role.value, index)]
        except KeyError:
            raise FixtureMiss(f"no replay fixture for ({role.value}, {index})") from None

    def count(self, role: AgentRole) -> int:
        return sum(1 for key in self.entries if key[0] == role.value)

    def __len__(self) -> int:
        return len(self.entries)


def load_replay_fixtures(directory: Path) -> ReplayFixtureSet:
    """Load ``<role>-<index>.txt`` files from a directory.

    Indices must be contiguous from 0 within each role; other .txt files
    are rejected so a typoed fixture never silently disappears.
    """
    directory = Path(directory)
    entries: dict[tuple[str, int], str] = {}
    roles = {r.value for r in AgentRole}
    for path in sorted(directory.glob("*.txt")):
        stem = path.stem
        role, sep, index_text = stem.rpartition("-")
        if not sep or role not in roles or not index_text.isdigit():
            raise MalformedFixtureName(
                f"fixture file {path.name!r} must be named <role>-<index>.txt "
                f"with role in {sorted(roles)}"
            )
        entries[(role, int(index_text))] = path.read_text(encoding="utf-8")
    for role in {key[0] for key in entries}:
        indices = sorted(i for r, i in entries if r == role)
        if indices != list(range(len(indices))):
            raise GapInIndices(f"{role} fixture indices {indices} are not contiguous from 0")
    return ReplayFixtureSet(entries)


class TransientBackendError(Exception):
    """Internal marker for endpoint failures worth retrying."""


class Gateway:
    """Base backend: shared pre-checks, retry loop and exchange assembly.

    Subclasses implement ``_send``; transient failures raised as
    :class:`TransientBackendError` are retried with exponential backoff
    up to ``params.max_retries`` times.
    """

    # Doubling delay per attempt; test doubles set 0 to skip sleeping.
    backoff_base: float = 0.5

    def __init__(self, model_id: str, context_length: int | None = None):
        self.model_id = model_id
        self.context_length = context_length

    def complete(self, role: AgentRole, prompt: str, params: GenerationParams) -> ChatExchange:
        if not prompt.strip():
            raise ValueError("prompt must be non-empty")
        if self.context_length is not None:
            estimated = math.ceil(len(prompt) / CHARS_PER_TOKEN)
            if estimated > self.context_length:
                raise ContextOverflow(
                    f"prompt estimated at {estimated} tokens exceeds "
                    f"context length {self.context_length} of {self.model_id}"
                )
        started_at = time.time()
        clock_start = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                response = self._send(role, prompt, params)
                break
            except TransientBackendError as exc:
                if attempts > params.max_retries:
                    raise TransientExhausted(
                        f"{self.model_id}: gave up after {attempts} attempts: {exc}"
                    ) from exc
                self._sleep(self.backoff_base * 2 ** (attempts - 1))
        return ChatExchange(
            role=role,
            prompt=prompt,
            response=response,
            duration=time.perf_counter() - clock_start,
            started_at=started_at,
            model=self.model_id,
            temperature=params.temperature,
            retries=attempts - 1,
        )

    def _send(self, role: AgentRole, prompt: str, params: GenerationParams) -> str:
        raise NotImplementedError

    @staticmethod
    def _sleep(seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ReplayGateway(Gateway):
    """Deterministic backend replaying fixture files.

    Each run owns its gateway, so the per-role cursors are private to
    that run and no gateway is shared between threads; the underlying
    fixture set is shared read-only, so it needs no lock either.
    """

    backoff_base = 0.0

    def __init__(self, fixtures: ReplayFixtureSet, model_id: str = "replay",
                 context_length: int | None = None):
        super().__init__(model_id=model_id, context_length=context_length)
        self.fixtures = fixtures
        self._cursors: dict[str, int] = {}

    def _send(self, role: AgentRole, prompt: str, params: GenerationParams) -> str:
        index = self._cursors.get(role.value, 0)
        self._cursors[role.value] = index + 1
        return self.fixtures.get(role, index)


# Environment variable stems for live credentials, keyed by company slug.
API_KEY_ENV = "VAPU_API_KEY_{provider}"
API_BASE_ENV = "VAPU_API_BASE_{provider}"
DEFAULT_API_BASES = {
    "openai": "https://api.openai.com/v1",
}

RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}


def provider_slug(company: str) -> str:
    return company.strip().lower().replace(" ", "_")


class LiveGateway(Gateway):
    """Chat-completions HTTP backend (OpenAI-compatible wire format).

    Credentials come from ``VAPU_API_KEY_<PROVIDER>``; non-OpenAI
    providers must also set ``VAPU_API_BASE_<PROVIDER>`` to a compatible
    endpoint or proxy.
    """

    def __init__(self, profile: ModelProfile, session: requests.Session | None = None):
        super().__init__(model_id=profile.profile_id, context_length=profile.context_length)
        self.profile = profile
        self.session = session or requests.Session()
        provider = provider_slug(profile.company).upper()
        self.api_key = os.environ.get(API_KEY_ENV.format(provider=provider))
        self.api_base = os.environ.get(
            API_BASE_ENV.format(provider=provider),
            DEFAULT_API_BASES.get(provider_slug(profile.company), ""),
        )

    def _send(self, role: AgentRole, prompt: str, params: GenerationParams) -> str:
        if not self.api_key or not self.api_base:
            provider = provider_slug(self.profile.company).upper()
            raise BackendRefused(
                f"missing credentials for {self.profile.company}: set "
                f"{API_KEY_ENV.format(provider=provider)} and, if needed, "
                f"{API_BASE_ENV.format(provider=provider)}"
            )
        payload = {
            "model": self.profile.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
            "max_tokens": params.max_output_tokens,
        }
        try:
            response = self.session.post(
                f"{self.api_base.rstrip('/')}/chat/completions",
                json=payload,
                headers={"Authorization": f"Bearer {self.api_key}"},
                timeout=params.request_timeout,
            )
        except requests.RequestException as exc:
            raise TransientBackendError(str(exc)) from exc
        if response.status_code in RETRYABLE_STATUS:
            raise TransientBackendError(f"HTTP {response.status_code}")
        if response.status_code != 200:
            raise BackendRefused(f"HTTP {response.status_code}: {response.text[:200]}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendRefused(f"malformed endpoint response: {exc}") from exc
        if not isinstance(content, str):  # refusal or tool-call shaped reply
            raise BackendRefused(f"endpoint reply has no text content ({type(content).__name__})")
        return content
