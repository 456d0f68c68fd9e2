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
from typing import TYPE_CHECKING, Mapping

from .errors import (
    BackendRefused,
    ConfigInvalid,
    ContextOverflow,
    EmptyPrompt,
    FixtureMiss,
    GapInIndices,
    MalformedFixtureName,
    TransientExhausted,
)
from .models import AgentRole, from_json, join_path, read_input

if TYPE_CHECKING:  # requests is imported only when a live gateway is built
    import requests

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


def load_registry(path: Path | None = None) -> dict[str, ModelProfile]:
    """Read a ``{"profiles": [...]}`` file (the bundled one by default) into profiles by id.

    A missing or malformed file, or a repeated ``profile_id``, is a ConfigInvalid naming it.
    """
    def parse(text: str) -> dict[str, ModelProfile]:
        profiles = {}
        for entry in json.loads(text)["profiles"]:
            profile = from_json(ModelProfile, entry)
            if profile.profile_id in profiles:
                raise ValueError(f"duplicate profile_id {profile.profile_id!r}")
            profiles[profile.profile_id] = profile
        return profiles

    path = path or Path(str(resources.files("vapu").joinpath("registry.json")))
    return read_input(path, "model registry", parse)


@dataclass
class ChatExchange:
    """One prompt/response pair with its timing and provenance.

    ``retries`` counts extra endpoint attempts beyond the first;
    ``flags`` collects pipeline annotations such as no_fence/truncated.
    Each distinct text is held once, in memory as on disk: ``prompt``
    and ``response`` are plain strings until parts are attached as
    ``prompt_parts`` or ``response_parts``; from then on the text is
    held only as its parts and joined on read.  A prompt rendered from a
    template is its literal pieces and binding values, and a reply the
    pipeline took code from is the text before the code, the code and
    the text after it; a text with no parts reads as one part.  A v4
    transcript stores each non-empty part of such a list once, as a
    table text, so after a load every prompt that embeds a file, every
    reply that carries one and every prompt from one template share one
    ``str`` per text (a loaded list drops the empty parts).  ``==``,
    repr and :func:`~vapu.models.to_json` see the joined texts.
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

    def __getattr__(self, name: str) -> str:
        """``prompt`` or ``response`` once parts replaced it: its parts, joined.  Called
        only when the plain attribute ``__init__`` set is gone."""
        if name not in ("prompt", "response"):
            raise AttributeError(name)
        return "".join(self.__dict__[f"_{name}_parts"])

    @property
    def prompt_parts(self) -> list[str]:
        return [self.__dict__["prompt"]] if "prompt" in self.__dict__ else self._prompt_parts

    @prompt_parts.setter
    def prompt_parts(self, parts: list[str]) -> None:
        self.__dict__.pop("prompt", None)
        self._prompt_parts = parts

    @property
    def response_parts(self) -> list[str]:
        return [self.__dict__["response"]] if "response" in self.__dict__ else self._response_parts

    @response_parts.setter
    def response_parts(self, parts: list[str]) -> None:
        self.__dict__.pop("response", None)
        self._response_parts = parts


def load_replay_fixtures(directory: Path) -> dict[tuple[str, int], str]:
    """Load ``<role>-<index>.txt`` files from a directory, keyed by (role, index).

    Indices must be contiguous from 0 within each role; other .txt files
    are rejected so a typoed fixture never silently disappears.  A missing
    directory is a ConfigInvalid; an empty one loads.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigInvalid(f"cannot read replay fixture directory {directory}: not a directory")
    try:
        names = os.listdir(directory)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read replay fixture directory {directory}: "
                            f"{exc.strerror}") from None
    entries: dict[tuple[str, int], str] = {}
    roles = {r.value for r in AgentRole}
    for name in sorted(n for n in names if n.endswith(".txt")):
        role, sep, index_text = name[:-4].rpartition("-")
        if not sep or role not in roles or not index_text.isdigit():
            raise MalformedFixtureName(
                f"fixture file {name!r} must be named <role>-<index>.txt "
                f"with role in {sorted(roles)}"
            )
        entries[(role, int(index_text))] = read_input(join_path(directory, name),
                                                      "replay fixture")
    for role in {key[0] for key in entries}:
        indices = sorted(i for r, i in entries if r == role)
        if indices != list(range(len(indices))):
            raise GapInIndices(f"{role} fixture indices {indices} are not contiguous from 0")
    return entries


class TransientBackendError(Exception):
    """Internal marker for endpoint failures worth retrying; ``retry_after`` is the wait
    in seconds the endpoint asked for before the next attempt, or None."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class Gateway:
    """Base backend: shared pre-checks, retry loop and exchange assembly.

    Subclasses implement ``_send``; transient failures raised as
    :class:`TransientBackendError` are retried up to ``params.max_retries``
    times, after the wait the failure carries or, with none, exponential
    backoff.
    """

    # Doubling delay per attempt; test doubles set 0 to skip sleeping.
    backoff_base: float = 0.5

    def __init__(self, model_id: str, context_length: int | None = None):
        self.model_id = model_id
        self.context_length = context_length

    def complete(self, role: AgentRole, prompt: str, params: GenerationParams) -> ChatExchange:
        if not prompt or prompt.isspace():
            raise EmptyPrompt("prompt must be non-empty")
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
                wait = exc.retry_after
                time.sleep(self.backoff_base * 2 ** (attempts - 1) if wait is None else wait)
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


class ReplayGateway(Gateway):
    """Deterministic backend replaying fixture files or recorded replies.

    A fixture is a reply's text, or the list of parts it joins from (a
    recorded exchange's ``response_parts``), joined only when it is sent.
    Each run owns its gateway, so the per-role cursors are private to
    that run and no gateway is shared between threads; the underlying
    fixtures are shared read-only, so they need no lock either.
    """

    def __init__(self, fixtures: Mapping[tuple[str, int], str | list[str]],
                 model_id: str = "replay"):
        super().__init__(model_id=model_id)
        self.fixtures = fixtures
        self._cursors: dict[str, int] = {}

    def _send(self, role: AgentRole, prompt: str, params: GenerationParams) -> str:
        index = self._cursors.get(role.value, 0)
        self._cursors[role.value] = index + 1
        try:
            reply = self.fixtures[(role.value, index)]
        except KeyError:
            raise FixtureMiss(f"no replay fixture for ({role.value}, {index})") from None
        return reply if isinstance(reply, str) else "".join(reply)


DEFAULT_API_BASES = {"OPENAI": "https://api.openai.com/v1"}  # VAPU_API_BASE_<PROVIDER> if unset

RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}
# The statuses whose Retry-After header sets the wait before the next attempt.
RETRY_AFTER_STATUS = {429, 503}
# The longest Retry-After wait honoured, in seconds; a longer one is cut to this.
RETRY_AFTER_CAP = 60.0


def _retry_after_seconds(value: str | None) -> float | None:
    """The wait a ``Retry-After`` header value asks for (RFC 9110 §10.2.3), at most
    ``RETRY_AFTER_CAP``: a count of seconds, or an HTTP date (a past one waits 0).
    None for no value or one that is neither."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        seconds = float(value)
    else:
        import email.utils  # live path only: offline commands never load it
        from datetime import timezone

        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:  # the asctime form, or -0000: both UTC
            when = when.replace(tzinfo=timezone.utc)
        seconds = max(0.0, when.timestamp() - time.time())
    return min(seconds, RETRY_AFTER_CAP)


def provider_credentials(profile: ModelProfile) -> tuple[str, str]:
    """The key and base URL in ``VAPU_API_KEY_<PROVIDER>`` and ``VAPU_API_BASE_<PROVIDER>``.

    ``<PROVIDER>`` is the company trimmed, upper-cased and with ``_`` for
    spaces; either value missing is a ConfigInvalid naming both variables.
    """
    provider = profile.company.strip().upper().replace(" ", "_")
    key_name, base_name = f"VAPU_API_KEY_{provider}", f"VAPU_API_BASE_{provider}"
    key = os.environ.get(key_name)
    base = os.environ.get(base_name, DEFAULT_API_BASES.get(provider))
    if not key or not base:
        raise ConfigInvalid(f"missing credentials for {profile.company}: set {key_name} "
                            f"and, if needed, {base_name}")
    return key, base


class LiveGateway(Gateway):
    """Chat-completions HTTP backend (OpenAI-compatible wire format), sending with the
    key and base URL that :func:`provider_credentials` read for ``profile``."""

    def __init__(self, profile: ModelProfile, credentials: tuple[str, str],
                 session: requests.Session | None = None):
        super().__init__(model_id=profile.profile_id, context_length=profile.context_length)
        import requests  # only the live backend loads the HTTP stack

        self.profile = profile
        self.api_key, self.api_base = credentials
        self.session = session or requests.Session()

    def _send(self, role: AgentRole, prompt: str, params: GenerationParams) -> str:
        payload = {
            "model": self.profile.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
            "max_tokens": params.max_output_tokens,
        }
        import requests

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
            wait = (_retry_after_seconds(response.headers.get("Retry-After"))
                    if response.status_code in RETRY_AFTER_STATUS else None)
            raise TransientBackendError(f"HTTP {response.status_code}", retry_after=wait)
        if response.status_code != 200:
            raise BackendRefused(f"HTTP {response.status_code}: {response.text[:200]}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendRefused(f"malformed endpoint response: {exc}") from exc
        if not isinstance(content, str):  # refusal or tool-call shaped reply
            raise BackendRefused(f"endpoint reply has no text content ({type(content).__name__})")
        return content
