"""Run configuration, codebase ingestion and transcript persistence.

Transcripts are line-delimited JSON with a header record (config
snapshot plus the run inputs so a replay is self-contained), one record
per exchange, an outcome record, and a trailing checksum record.  The
append-per-line layout keeps partially written files diagnosable.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path, PurePosixPath
from typing import Sequence

from .errors import ConfigInvalid, CorruptTranscript, NoFilesMatched, StorageFull
from .gateway import ChatExchange
from .models import CodeDocument

logger = logging.getLogger(__name__)

TRANSCRIPT_FORMAT = "vapu-transcript-v1"

# File suffixes mapped to the language tag used for checker lookup.
LANGUAGE_TAGS = {
    ".py": "python",
    ".php": "php",
    ".ctp": "php",
    ".js": "javascript",
    ".ts": "typescript",
    ".rb": "ruby",
    ".java": "java",
}


class Method(str, Enum):
    VAPU = "vapu"
    ZSL = "zsl"
    OSL = "osl"


class Backend(str, Enum):
    LIVE = "live"
    REPLAY = "replay"


@dataclass
class RunConfig:
    """Everything one update or baseline run needs to know."""

    model: str
    output_dir: Path
    temperature: float = 0.0
    max_feedback_iterations: int = 2
    repetitions: int = 10
    backend: Backend = Backend.LIVE
    fixtures_dir: Path | None = None
    method: Method = Method.VAPU
    example_path: Path | None = None
    registry_path: Path | None = None
    templates_dir: Path | None = None
    parallel: int = 1

    def validate(self) -> None:
        if not self.model:
            raise ConfigInvalid("a model profile id is required")
        if self.max_feedback_iterations < 1:
            raise ConfigInvalid("max_feedback_iterations must be positive")
        if self.repetitions < 1:
            raise ConfigInvalid("repetitions must be positive")
        if self.parallel < 1:
            raise ConfigInvalid("parallel must be positive")
        if not 0.0 <= self.temperature <= 1.0:
            raise ConfigInvalid(f"temperature must be in [0, 1], got {self.temperature}")
        if self.temperature not in (0.0, 1.0):
            warnings.warn(
                f"temperature {self.temperature} is outside the evaluated settings {{0, 1}}",
                stacklevel=2,
            )
        if self.backend is Backend.REPLAY and self.fixtures_dir is None:
            raise ConfigInvalid("replay backend requires a fixtures directory")
        if self.method is Method.OSL and self.example_path is None:
            raise ConfigInvalid("one-shot baseline requires an example asset")

    def snapshot(self) -> dict:
        return {
            "model": self.model,
            "temperature": self.temperature,
            "max_feedback_iterations": self.max_feedback_iterations,
            "repetitions": self.repetitions,
            "backend": self.backend.value,
            "fixtures_dir": str(self.fixtures_dir) if self.fixtures_dir else None,
            "output_dir": str(self.output_dir),
            "method": self.method.value,
            "example_path": str(self.example_path) if self.example_path else None,
            "registry_path": str(self.registry_path) if self.registry_path else None,
            "templates_dir": str(self.templates_dir) if self.templates_dir else None,
            "parallel": self.parallel,
        }


def make_run_id(file_path: str, method: Method, model: str,
                temperature: float, repetition: int) -> str:
    """Self-describing artifact name: file, method, model, temperature, repetition.

    The file part is the project-relative path without its suffix, with
    "__" for "/" because run ids also name files and directories.
    """
    file_part = PurePosixPath(file_path).with_suffix("").as_posix().replace("/", "__")
    return f"{file_part}-{method.value}-{model}-t{temperature:g}-r{repetition}"


@dataclass
class RunTranscript:
    """Ordered record of every exchange in one run, plus its outcome."""

    run_id: str
    config: dict
    exchanges: list[ChatExchange] = field(default_factory=list)
    outcome: dict = field(default_factory=dict)
    duration: float = 0.0
    inputs: dict = field(default_factory=dict)
    status: str = "completed"

    def validate(self) -> None:
        previous = None
        for exchange in self.exchanges:
            if previous is not None and exchange.started_at <= previous:
                raise ValueError("exchanges must be strictly ordered by started_at")
            previous = exchange.started_at


def persist_transcript(transcript: RunTranscript, directory: Path) -> Path:
    """Write a transcript as checksummed JSON lines; returns the file path."""
    transcript.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{transcript.run_id}.jsonl"
    records: list[dict] = [{
        "record": "header",
        "format": TRANSCRIPT_FORMAT,
        "run_id": transcript.run_id,
        "config": transcript.config,
        "inputs": transcript.inputs,
    }]
    records.extend({"record": "exchange", **e.to_dict()} for e in transcript.exchanges)
    records.append({
        "record": "outcome",
        "status": transcript.status,
        "outcome": transcript.outcome,
        "duration": transcript.duration,
    })
    body = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    trailer = json.dumps({"record": "checksum", "sha256": digest}, sort_keys=True) + "\n"
    try:
        with path.open("wb") as handle:
            handle.write(body)
            handle.write(trailer.encode("utf-8"))
    except OSError as exc:
        if exc.errno == errno.ENOSPC:
            raise StorageFull(f"cannot persist transcript to {path}") from exc
        raise
    return path


def load_transcript(path: Path) -> RunTranscript:
    """Read a persisted transcript, verifying structure and checksum."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    if len(lines) < 3:
        raise CorruptTranscript(f"{path}: too short to be a transcript")
    try:
        records = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise CorruptTranscript(f"{path}: undecodable line: {exc}") from exc
    trailer = records[-1]
    if trailer.get("record") != "checksum":
        raise CorruptTranscript(f"{path}: missing checksum record (truncated?)")
    body = "".join(lines[:-1])
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != trailer.get("sha256"):
        raise CorruptTranscript(f"{path}: checksum mismatch")
    header, *middle, outcome = records[:-1]
    if header.get("record") != "header" or header.get("format") != TRANSCRIPT_FORMAT:
        raise CorruptTranscript(f"{path}: bad header record")
    if outcome.get("record") != "outcome":
        raise CorruptTranscript(f"{path}: bad outcome record")
    exchanges = []
    for record in middle:
        if record.get("record") != "exchange":
            raise CorruptTranscript(f"{path}: unexpected record type {record.get('record')!r}")
        exchanges.append(ChatExchange.from_dict(record))
    return RunTranscript(
        run_id=header["run_id"],
        config=header["config"],
        exchanges=exchanges,
        outcome=outcome["outcome"],
        duration=outcome["duration"],
        inputs=header.get("inputs", {}),
        status=outcome.get("status", "completed"),
    )


def language_tag_for(path: Path) -> str:
    return LANGUAGE_TAGS.get(path.suffix.lower(), path.suffix.lstrip(".").lower() or "text")


def load_codebase(root: Path, include_globs: Sequence[str]) -> list[CodeDocument]:
    """Read matching files under root as documents, in lexicographic path order."""
    root = Path(root)
    if not root.exists():
        raise NoFilesMatched(f"codebase root {root} does not exist")
    matched: set[Path] = set()
    for pattern in include_globs:
        matched.update(p for p in root.glob(pattern) if p.is_file())
    if not matched:
        raise NoFilesMatched(f"no files under {root} match {list(include_globs)}")
    documents = []
    for path in sorted(matched, key=lambda p: p.relative_to(root).as_posix()):
        documents.append(CodeDocument(
            path=path.relative_to(root).as_posix(),
            language_tag=language_tag_for(path),
            content=path.read_text(encoding="utf-8", errors="replace"),
        ))
    return documents
