"""Run configuration, codebase ingestion and transcript persistence.

Transcripts are line-delimited JSON with a header record (config
snapshot plus the run inputs so a replay is self-contained), one record
per exchange, an outcome record, and a trailing checksum record.  The
append-per-line layout keeps partially written files diagnosable.

Prompts embed the file being updated, often twice, and code replies
carry each new version of it, so format v3 stores each distinct text
once, in a text table that the records build up in order: text 0 is
the header's input file, and an exchange record's ``"texts"`` list
appends the values it is the first to use.  A prompt rendered from a
template is a list of literal template pieces (strings) and table
indices (ints), and a reply the pipeline took code from is a list of
the text before the code, the code's index and the text after it; any
other prompt or reply stays a string.  The outcome's
``final_code.content`` is an index when it is a table text.  Each line
needs only the lines before it.  Format v2 files (only prompts as
lists) and v1 files (all strings) still load.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path, PurePath, PurePosixPath
from typing import Sequence

from .errors import ConfigInvalid, CorruptTranscript, EmptyRequirements, NoFilesMatched, StorageFull
from .gateway import ChatExchange
from .models import CodeDocument, RequirementSpec, from_json, to_json

logger = logging.getLogger(__name__)

TRANSCRIPT_FORMAT = "vapu-transcript-v3"
# Formats load_transcript reads; each is the next one without some of its references.
READABLE_FORMATS = frozenset({"vapu-transcript-v1", "vapu-transcript-v2", TRANSCRIPT_FORMAT})

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


def is_project_relative(path: str) -> bool:
    """Whether ``path`` names a file under a project root: not empty, with no
    root or drive, and no ".." part that climbs out of the root."""
    pure = PurePath(path)
    return bool(pure.parts) and not pure.anchor and ".." not in pure.parts


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


def write_file(path: Path, data: str | bytes) -> Path:
    """Write ``data`` (text as UTF-8) over ``path``, making its directory if missing.

    Text is encoded before the file is opened, so text that cannot be
    encoded leaves no file behind.  Any OSError raises StorageFull.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        try:
            handle = open(path, "wb")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(path, "wb")
        with handle:
            handle.write(data)
    except OSError as exc:
        reason = "the device is full" if exc.errno == errno.ENOSPC else exc.strerror or exc
        raise StorageFull(f"cannot write {path}: {reason}") from exc
    return path


def persist_transcript(transcript: RunTranscript, directory: Path) -> Path:
    """Write a transcript as checksummed JSON lines; returns the file path."""
    transcript.validate()
    path = Path(directory) / f"{transcript.run_id}.jsonl"
    records: list[dict] = [{
        "record": "header",
        "format": TRANSCRIPT_FORMAT,
        "run_id": transcript.run_id,
        "config": transcript.config,
        "inputs": transcript.inputs,
    }]
    table = {text: index for index, text in enumerate(_input_texts(transcript.inputs))}
    records.extend(_exchange_record(e, table) for e in transcript.exchanges)
    records.append({
        "record": "outcome",
        "status": transcript.status,
        "outcome": _outcome_record(transcript.outcome, table),
        "duration": transcript.duration,
    })
    body = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    trailer = json.dumps({"record": "checksum", "sha256": digest}, sort_keys=True) + "\n"
    return write_file(path, body + trailer.encode("utf-8"))


def _input_texts(inputs: dict) -> list[str]:
    """The start of a transcript's text table: the input file, when the header has one."""
    code = inputs.get("code")
    content = code.get("content") if isinstance(code, dict) else None
    return [content] if isinstance(content, str) else []


def _exchange_record(exchange: ChatExchange, table: dict[str, int]) -> dict:
    """An exchange's record; its binding values and reply code become references into ``table``."""
    record = {"record": "exchange", **to_json(exchange)}
    texts: list[str] = []
    if exchange.parts is not None:
        record["prompt"] = _pieces(exchange.parts, table, texts)
    if exchange.response_parts is not None:
        record["response"] = _pieces(exchange.response_parts, table, texts)
    if texts:
        record["texts"] = texts
    return record


def _pieces(parts: list[str], table: dict[str, int], texts: list[str]) -> list[str | int]:
    """Literals (even indices) as strings, texts (odd) as indices; new texts join ``texts``."""
    pieces: list[str | int] = []
    for i, part in enumerate(parts):
        if i % 2 == 0:
            if part:  # an empty literal adds nothing to the joined text
                pieces.append(part)
            continue
        index = table.get(part)
        if index is None:
            index = table[part] = len(table)
            texts.append(part)
        pieces.append(index)
    return pieces


def _outcome_record(outcome: dict, table: dict[str, int]) -> dict:
    """The outcome, with its final code as a reference when that is a table text."""
    final = outcome.get("final_code")
    content = final.get("content") if isinstance(final, dict) else None
    index = table.get(content) if isinstance(content, str) else None
    if index is None:
        return outcome
    return {**outcome, "final_code": {**final, "content": index}}


def _text(reference: object, table: list[str], path: Path, where: str) -> str:
    """The table text a stored reference names."""
    # bool is an int subclass, and no reference.
    if type(reference) is not int:
        raise CorruptTranscript(f"{path}: {where} piece {reference!r} is not text or a reference")
    if not 0 <= reference < len(table):
        raise CorruptTranscript(f"{path}: {where} references undefined text {reference}")
    return table[reference]


def _parts(pieces: list, table: list[str], path: Path, where: str) -> list[str]:
    """The parts stored pieces stand for, empty literals restored between references."""
    parts = [""]
    for piece in pieces:
        if isinstance(piece, str):
            parts[-1] += piece
        else:
            parts += (_text(piece, table, path, where), "")
    return parts


def _exchange_from_record(record: dict, table: list[str], path: Path) -> ChatExchange:
    """Rebuild an exchange, appending its ``"texts"`` to ``table`` first."""
    texts = record.get("texts", [])
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise CorruptTranscript(f"{path}: exchange texts must be a list of strings")
    table.extend(texts)
    parts = {}
    for key in ("prompt", "response"):
        if isinstance(record.get(key), list):
            parts[key] = _parts(record[key], table, path, key)
            record[key] = "".join(parts[key])
    exchange = from_json(ChatExchange, record)
    exchange.parts = parts.get("prompt")
    exchange.response_parts = parts.get("response")
    return exchange


def _outcome_from_record(outcome: dict, table: list[str], path: Path) -> dict:
    """The outcome with a final code reference replaced by its text."""
    final = outcome.get("final_code")
    if isinstance(final, dict) and "content" in final and not isinstance(final["content"], str):
        final["content"] = _text(final["content"], table, path, "final code")
    return outcome


def load_transcript(path: Path) -> RunTranscript:
    """Read a persisted transcript, verifying structure and checksum.

    A file that cannot be read raises ConfigInvalid, and one that is not
    a well-formed transcript CorruptTranscript; both name the file.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read transcript {path}: {exc}") from None
    try:
        return _transcript_from_bytes(data, path)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptTranscript(f"{path}: malformed transcript: {exc!r}") from None


def _transcript_from_bytes(data: bytes, path: Path) -> RunTranscript:
    lines = data.decode("utf-8").splitlines(keepends=True)
    if len(lines) < 3:
        raise CorruptTranscript(f"{path}: too short to be a transcript")
    records = [json.loads(line) for line in lines]
    trailer = records[-1]
    if trailer.get("record") != "checksum":
        raise CorruptTranscript(f"{path}: missing checksum record (truncated?)")
    body = data[:len(data) - len(lines[-1].encode("utf-8"))]  # every line but the trailer
    digest = hashlib.sha256(body).hexdigest()
    if digest != trailer.get("sha256"):
        raise CorruptTranscript(f"{path}: checksum mismatch")
    header, *middle, outcome = records[:-1]
    if header.get("record") != "header" or header.get("format") not in READABLE_FORMATS:
        raise CorruptTranscript(f"{path}: bad header record")
    if outcome.get("record") != "outcome" or not isinstance(outcome.get("outcome"), dict):
        raise CorruptTranscript(f"{path}: bad outcome record")
    inputs = header.get("inputs", {})  # absent from partial headers
    if not isinstance(inputs, dict):
        raise CorruptTranscript(f"{path}: header inputs is not an object")
    table = _input_texts(inputs)
    exchanges = []
    for record in middle:
        if record.get("record") != "exchange":
            raise CorruptTranscript(f"{path}: unexpected record type {record.get('record')!r}")
        exchanges.append(_exchange_from_record(record, table, path))
    return RunTranscript(
        run_id=header["run_id"],
        config=header["config"],
        exchanges=exchanges,
        outcome=_outcome_from_record(outcome["outcome"], table, path),
        duration=outcome["duration"],
        inputs=inputs,
        status=outcome.get("status", "completed"),
    )


@dataclass(frozen=True)
class RunHeader:
    """The typed run a transcript's JSON objects record; see :func:`read_header`."""

    config: RunConfig
    requirement: RequirementSpec
    code: CodeDocument
    repetition: int
    example: tuple[str, str] | None = None  # a one-shot run's pair
    final_code: CodeDocument | None = None  # a completed run's


def read_header(transcript: RunTranscript, path: Path) -> RunHeader:
    """The typed run ``transcript``, loaded from ``path``, records: every field that
    is not optional present with its JSON type, a one-shot run's example pair and
    a completed run's final code, or CorruptTranscript naming the file and field."""
    def read(cls, data: object, where: str):
        try:  # a missing, null or non-object one reports its first field missing
            return from_json(cls, data if isinstance(data, dict) else {}, where, complete=True)
        except (TypeError, ValueError) as exc:
            raise CorruptTranscript(f"{path}: {exc}") from None
        except EmptyRequirements as exc:  # RequirementSpec's check of its body
            raise CorruptTranscript(f"{path}: {where}.body: {exc}") from None

    inputs = transcript.inputs
    config = read(RunConfig, transcript.config, "config")
    final = transcript.outcome.get("final_code")
    header = read(RunHeader, {
        **inputs,
        "config": config,
        "requirement": read(RequirementSpec, inputs.get("requirement"), "inputs.requirement"),
        "code": read(CodeDocument, inputs.get("code"), "inputs.code"),
        "example": inputs.get("example") if config.method is Method.OSL else None,
        "final_code": (read(CodeDocument, final, "outcome.final_code")
                       if transcript.status == "completed" else None),
    }, "inputs")
    if config.method is Method.OSL and header.example is None:
        raise CorruptTranscript(f"{path}: inputs.example is missing")
    if not is_project_relative(header.code.path):  # a replay writes its updated file there
        raise CorruptTranscript(f"{path}: inputs.code.path {header.code.path!r} "
                                f"is not a path inside a project")
    return header


def language_tag_for(path: Path) -> str:
    return LANGUAGE_TAGS.get(path.suffix.lower(), path.suffix.lstrip(".").lower() or "text")


def load_codebase(root: Path, include_globs: Sequence[str]) -> list[CodeDocument]:
    """Read matching files under root as documents, in lexicographic path order;
    a file that is not UTF-8 is logged and read with U+FFFD for its bad bytes."""
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
        try:
            content = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            logger.warning("%s is not UTF-8 (%s); its bad bytes read as U+FFFD", path, exc)
            content = path.read_text(encoding="utf-8", errors="replace")
        documents.append(CodeDocument(path.relative_to(root).as_posix(),
                                      language_tag_for(path), content))
    return documents
