"""Run configuration, codebase ingestion and transcript persistence.

Transcripts are line-delimited JSON with a header record (config
snapshot plus the run inputs so a replay is self-contained), one record
per exchange, an outcome record, and a trailing checksum record.  The
append-per-line layout keeps partially written files diagnosable.

Prompts embed the file being updated, often twice, code replies carry
each new version of it, and every prompt from one template repeats its
literal text, so format v4 stores each distinct text once, in a text
table that the records build up in order: text 0 is the header's input
file, and an exchange record's ``"texts"`` list appends the values it
is the first to use.  A prompt or reply of several parts (a rendered
template's literals and binding values; the text before a reply's
code, the code and the text after it) is the list of the table indices
of its non-empty parts; any other prompt or reply stays a string.  The
outcome's ``final_code.content`` is an index when it is a table text.
Each line needs only the lines before it.

The header records no machine path: its config leaves out the output
directory, which is the transcript's own (see :func:`read_header`), and
the fixture directory, since a replay sends the recorded replies.
Fields that hold nothing a reader needs are left out too: a code
document's line count and the outcome's copy of the run id.  An optional
exchange field is a ``ChatExchange`` field with a default: a record holds
it only when its value differs from that default, and it is read by
``from_json``'s rule (:func:`~vapu.models.read_fields`), so a new one
joins v4 records with no format bump while v1-v4 files still load.
Format v3 files (template literals and reply wrappers as strings in the
lists), v2 files (only prompts as lists) and v1 files (all strings)
still load, each list as one part per piece, as a v4 list loads.  The
reader takes each line once, in order, and keeps no line it has read.

Each distinct text is held once in memory too: an exchange holds its
prompt and reply as the parts it is stored as, a loaded one over one
``str`` per table text, and joins them only when they are read.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import warnings
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigInvalid, CorruptTranscript, EmptyRequirements, NoFilesMatched, StorageFull
from .gateway import ChatExchange
from .models import (
    AgentRole,
    CodeDocument,
    RequirementSpec,
    decode_text,
    from_json,
    join_path,
    read_bytes,
    read_fields,
    read_plan,
    to_json,
)

logger = logging.getLogger(__name__)

# Encodes as json.dumps(..., sort_keys=True) does, without making an encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True)
# The C encoder that _ENCODER.encode builds on every call, built once, without the
# circular-reference check: every record is a tree the codec builds.  None on a Python
# without the C accelerator, where _encode_line falls back to _ENCODER.encode.
_ENCODE = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None,
    _ENCODER.key_separator, _ENCODER.item_separator, True, False, True)
# Most buffers one os.writev takes; sysconf gives -1 for no limit, and POSIX allows 16.
_IOV_MAX = max(os.sysconf("SC_IOV_MAX"), 16)
# From this length on, bytes operations escape an ASCII text faster than json's C escaper.
LONG_TEXT = 2048
# The bytes json writes as they are, and those it writes as a backslash and one character,
# each with its escape, the backslash first, so that no escape is escaped again.
_PLAIN = bytes(byte for byte in range(0x20, 0x7F) if byte not in b'"\\')
_ESCAPES = ((b"\\", b"\\\\"), (b'"', b'\\"'), (b"\n", b"\\n"), (b"\r", b"\\r"),
            (b"\t", b"\\t"), (b"\b", b"\\b"), (b"\f", b"\\f"))
_SHORT_ESCAPED = b"".join(byte for byte, _ in _ESCAPES)

TRANSCRIPT_FORMAT = "vapu-transcript-v4"
# Formats whose lists hold literal text (strings) beside table indices.
LITERAL_FORMATS = frozenset({"vapu-transcript-v2", "vapu-transcript-v3"})
# Formats load_transcript reads; each is the next one without some of its references.
READABLE_FORMATS = frozenset({"vapu-transcript-v1", *LITERAL_FORMATS, TRANSCRIPT_FORMAT})
# Config fields a transcript header leaves out: machine paths no reader needs.
UNRECORDED_CONFIG = ("output_dir", "fixtures_dir")
# The roles by the value an exchange record stores.
_ROLES = {role._value_: role for role in AgentRole}
# ChatExchange's read_plan rules by field, and those of its required numbers.  Its optional
# fields are those ``==`` compares that have a default: each one's name, default and whether
# its value is JSON as it is (a number, flag, text or container of text) or takes to_json.
_RULES = {rule[0]: rule for rule in read_plan(ChatExchange)}
_NUMBERS = tuple(_RULES[name] for name in ("duration", "started_at", "temperature"))
_OPTIONAL_FIELDS = tuple(
    (f.name, f.default if f.default_factory is MISSING else f.default_factory(),
     _RULES[f.name][1] in (bool, int, float, str) or _RULES[f.name][3] is not None)
    for f in fields(ChatExchange)
    if f.compare and (f.default is not MISSING or f.default_factory is not MISSING))
_OPTIONAL_RULES = tuple(_RULES[name] for name, _, _ in _OPTIONAL_FIELDS)
# Path parts that name no file under a project: see is_project_relative.
_NON_NAMES = frozenset({"", ".", ".."})

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
        if self.method is Method.OSL and self.example_path is None:
            raise ConfigInvalid("one-shot baseline requires an example asset")


def is_project_relative(path: str) -> bool:
    """Whether ``path`` names a file under a project root in one spelling: "/"-separated
    parts, none of them empty, "." or "..", so no root and no climb out of it."""
    return _NON_NAMES.isdisjoint(path.split("/"))


def split_suffix(path: str) -> tuple[str, str]:
    """``PurePosixPath(path).stem`` and ``.suffix`` on every Python, without making one: the
    suffix runs from the last name's last dot, unless that is its first or last character."""
    name = path[path.rfind("/") + 1:]
    dot = name.rfind(".")
    return (name[:dot], name[dot:]) if 0 < dot < len(name) - 1 else (name, "")


def make_run_id(file_path: str, method: Method, model: str,
                temperature: float, repetition: int) -> str:
    """Self-describing artifact name: file, method, model, temperature, repetition.

    The file part is the project-relative path without its :func:`split_suffix` suffix,
    with "__" for "/" because run ids also name files and directories.  The same text on
    every Python; a path that :func:`is_project_relative` refuses raises ValueError.
    """
    if not is_project_relative(file_path):
        raise ValueError(f"file path {file_path!r} is not a path inside a project")
    head, _, name = file_path.rpartition("/")
    name = split_suffix(name)[0]
    file_part = f"{head.replace('/', '__')}__{name}" if head else name
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


def write_file(path: str | Path, data: str | bytes | list[bytes]) -> str | Path:
    """Write ``data`` (text as UTF-8, a list as its items in order) over ``path``,
    making its directory if missing; returns ``path``.

    Text is encoded before the file is opened, so text that cannot be
    encoded leaves no file behind.  The file is written with ``os.open`` and
    ``os.writev`` (POSIX), its mode what ``open(path, "wb")`` gives.  Any
    OSError raises StorageFull; a file that fails part-way is left as it is.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    chunks = [data] if isinstance(data, bytes) else data
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    try:
        try:
            fd = os.open(path, flags, 0o666)
        except FileNotFoundError:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, flags, 0o666)
        try:
            _write_all(fd, chunks)
        finally:
            os.close(fd)
    except OSError as exc:
        reason = "the device is full" if exc.errno == errno.ENOSPC else exc.strerror or exc
        raise StorageFull(f"cannot write {path}: {reason}") from exc
    return path


def _write_all(fd: int, chunks: list[bytes]) -> None:
    """Write every byte of ``chunks`` to ``fd`` in order, ``_IOV_MAX`` buffers per
    ``os.writev`` at most; a short write is resumed where it stopped."""
    start = 0
    while start < len(chunks):
        batch = chunks[start:start + _IOV_MAX]
        written = os.writev(fd, batch)
        for chunk in batch:
            if written < len(chunk):
                break
            written -= len(chunk)
            start += 1
        if written:  # the write stopped inside chunks[start]: its rest goes first
            chunks = [memoryview(chunks[start])[written:], *chunks[start + 1:]]
            start = 0


def _encode_line(record: object) -> bytes:
    """``json.dumps(record, sort_keys=True)`` and a newline, as UTF-8: the newline is
    joined with the encoder's own pieces, so a line is copied twice: joined, then encoded."""
    if _ENCODE is None:
        return (_ENCODER.encode(record) + "\n").encode("utf-8")
    return "".join([*_ENCODE(record, 0), "\n"]).encode("utf-8")


def persist_transcript(transcript: RunTranscript, directory: str | Path) -> str:
    """Write a transcript as checksummed JSON lines; returns the path written, a ``str``.

    Each line is encoded once, with its newline, and hashed as it is made,
    and the lines are written as they are, never joined into one body.  A record with a
    text of ``LONG_TEXT`` characters or more is written in pieces, with the same bytes: its
    other keys, then its ``"texts"`` (the last key sorted), each by :func:`_json_text`.
    """
    transcript.validate()
    path = join_path(directory, f"{transcript.run_id}.jsonl")
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
    digest = hashlib.sha256()
    lines: list[bytes] = []
    for record in records:
        texts = record.get("texts")
        if not texts or max(map(len, texts)) < LONG_TEXT:
            line = _encode_line(record)
            digest.update(line)
            lines.append(line)
            continue
        del record["texts"]
        pieces = [_encode_line(record)[:-2], b', "texts": [']
        for text in texts:
            _json_text(text, pieces)
            pieces.append(b", ")
        pieces[-1] = b"]}\n"
        for piece in pieces:
            digest.update(piece)
        lines += pieces
    lines.append(_encode_line({"record": "checksum", "sha256": digest.hexdigest()}))
    return write_file(path, lines)


def _json_text(text: str, pieces: list[bytes]) -> None:
    """Append ``encode_basestring_ascii(text)`` as bytes to ``pieces``: by ``bytes.replace``,
    its quotes pieces of their own, for an ASCII text of ``LONG_TEXT`` characters or more
    whose escapes are all two characters long, else (``\\u00XX`` too) by json's C escaper."""
    if len(text) >= LONG_TEXT and text.isascii():
        raw = text.encode("ascii")
        odd = raw.translate(None, _PLAIN)
        if not odd.translate(None, _SHORT_ESCAPED):
            for byte, escape in _ESCAPES:
                if byte in odd:
                    raw = raw.replace(byte, escape)
            pieces += (b'"', raw, b'"')
            return
    pieces.append(json.encoder.encode_basestring_ascii(text).encode("ascii"))


def _input_texts(inputs: dict) -> list[str]:
    """The start of a transcript's text table: the input file, when the header has one."""
    code = inputs.get("code")
    content = code.get("content") if isinstance(code, dict) else None
    return [content] if isinstance(content, str) else []


def _exchange_record(exchange: ChatExchange, table: dict[str, int]) -> dict:
    """The pinned v4 exchange record, written from the exchange's fields rather than
    through ``to_json`` (as ``ComparisonReport.to_dict`` writes the pinned report): a
    prompt or reply of one part is that string, and one of several parts the references
    of its non-empty parts into ``table``.  An optional field is written only when it
    differs from its default, which the reader restores."""
    record = {"record": "exchange", "role": exchange.role._value_,
              "duration": exchange.duration, "started_at": exchange.started_at,
              "model": exchange.model, "temperature": exchange.temperature}
    for name, default, as_is in _OPTIONAL_FIELDS:
        value = getattr(exchange, name)
        if value != default:
            record[name] = value if as_is else to_json(value)
    texts: list[str] = []
    for key, parts in (("prompt", exchange.prompt_parts),
                       ("response", exchange.response_parts)):
        record[key] = parts[0] if len(parts) == 1 else _references(parts, table, texts)
    if texts:
        record["texts"] = texts
    return record


def _references(parts: list[str], table: dict[str, int], texts: list[str]) -> list[int]:
    """The table index of each non-empty part; texts new to ``table`` join ``texts``."""
    references = []
    for part in parts:
        if not part:  # adds nothing to the joined text
            continue
        index = table.get(part)
        if index is None:
            index = table[part] = len(table)
            texts.append(part)
        references.append(index)
    return references


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
        raise CorruptTranscript(f"{path}: {where} piece {reference!r} is not a reference")
    if not 0 <= reference < len(table):
        raise CorruptTranscript(f"{path}: {where} references undefined text {reference}")
    return table[reference]


def _parts(stored: object, table: list[str], path: Path, where: str,
           literals: bool) -> list[str]:
    """The parts a stored prompt or reply stands for: a string is one part, and a list
    one part per piece, a reference the table text it names and a string piece, which
    only a v2 or v3 list (``literals``) may hold, itself.  A list of one reference gets
    an empty part after it, so it is written back as a list."""
    if isinstance(stored, str):
        return [stored]
    if not isinstance(stored, list):
        raise CorruptTranscript(f"{path}: exchange {where} must be text or a list of pieces")
    parts = [piece if literals and isinstance(piece, str) else _text(piece, table, path, where)
             for piece in stored]
    return [*parts, ""] if len(stored) == 1 and not isinstance(stored[0], str) else parts


def _exchange_from_record(record: dict, table: list[str], path: Path,
                          literals: bool) -> ChatExchange:
    """The exchange a record holds, read straight from its pinned fields, as
    :func:`_exchange_record` writes them; ``"texts"`` is appended to ``table`` first, and
    the prompt and reply stay parts over the table's texts, joined only when read.

    It reads as ``from_json(ChatExchange, record)`` does, by its rules (``read_fields``) where
    a value is not of its field's type: the fields with no default present, others their
    default when absent, other keys ignored.  A field it cannot read raises TypeError naming
    ``ChatExchange.<field>``, which :func:`load_transcript` reports as CorruptTranscript."""
    texts = record.get("texts", [])
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise CorruptTranscript(f"{path}: exchange texts must be a list of strings")
    table.extend(texts)
    prompt_parts = _parts(record.get("prompt"), table, path, "prompt", literals)
    response_parts = _parts(record.get("response"), table, path, "response", literals)
    try:  # in field order, so the first missing field is named
        role, duration, started_at = record["role"], record["duration"], record["started_at"]
        model, temperature = record["model"], record["temperature"]
    except KeyError as exc:
        raise TypeError(f"ChatExchange.{exc.args[0]} is missing") from None
    if type(role) is not str or role not in _ROLES:
        raise TypeError(f"ChatExchange.role must be AgentRole, got {role!r}")
    if type(model) is not str:
        raise TypeError(f"ChatExchange.model must be str, got {model!r}")
    if not type(duration) is type(started_at) is type(temperature) is float:  # an int, or worse
        duration, started_at, temperature = read_fields(record, _NUMBERS, "ChatExchange").values()
    exchange = ChatExchange(_ROLES[role], "", "", duration, started_at, model, temperature,
                            **read_fields(record, _OPTIONAL_RULES, "ChatExchange"))
    exchange.prompt_parts, exchange.response_parts = prompt_parts, response_parts
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
        with open(path, "rb") as handle:
            return _transcript_from_lines(handle, path)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read transcript {path}: {exc}") from None
    # RecursionError: JSON nested deeper than json's parser recurses.
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise CorruptTranscript(f"{path}: malformed transcript: {exc!r}") from None


def _transcript_from_lines(lines: Iterable[bytes], path: Path) -> RunTranscript:
    """The transcript whose lines ``lines`` yields, each parsed, checked and hashed as
    it is read: the header first, then exchanges, one outcome and the checksum record
    last, which is checked against the hash of every line before it.  Only the kept
    texts and one line are held at once.
    """
    body = hashlib.sha256()
    header: dict | None = None
    outcome: dict | None = None
    trailer: dict | None = None
    table: list[str] = []
    exchanges: list[ChatExchange] = []
    for line in lines:
        if trailer is not None:
            raise CorruptTranscript(f"{path}: a record follows the checksum record")
        record = json.loads(line.decode("utf-8"))
        kind = record.get("record")
        if header is None:
            if kind != "header" or record.get("format") not in READABLE_FORMATS:
                raise CorruptTranscript(f"{path}: bad header record")
            header = record
            inputs = header.setdefault("inputs", {})  # absent from partial headers
            if not isinstance(inputs, dict):
                raise CorruptTranscript(f"{path}: header inputs is not an object")
            table = _input_texts(inputs)
            literals = header["format"] in LITERAL_FORMATS
        elif kind == "exchange" and outcome is None:
            exchanges.append(_exchange_from_record(record, table, path, literals))
        elif kind == "outcome" and outcome is None:
            if not isinstance(record.get("outcome"), dict):
                raise CorruptTranscript(f"{path}: bad outcome record")
            outcome = record
        elif kind == "checksum" and outcome is not None:
            trailer = record
            continue
        else:
            where = "before" if outcome is None else "after"
            raise CorruptTranscript(f"{path}: unexpected {kind!r} record {where} the outcome")
        body.update(line)
    if trailer is None:
        raise CorruptTranscript(f"{path}: missing checksum record (truncated?)")
    if body.hexdigest() != trailer.get("sha256"):
        raise CorruptTranscript(f"{path}: checksum mismatch")
    return RunTranscript(
        run_id=header["run_id"],
        config=header["config"],
        exchanges=exchanges,
        outcome=_outcome_from_record(outcome["outcome"], table, path),
        duration=outcome["duration"],
        inputs=header["inputs"],
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
    a completed run's final code, or CorruptTranscript naming the file and field.
    Its config's output directory is the one holding ``path``, where the run wrote
    the transcript, wherever it was made."""
    def read(cls, data: object, where: str):
        try:  # a missing, null or non-object one reports its first field missing
            return from_json(cls, data if isinstance(data, dict) else {}, where, complete=True)
        except (TypeError, ValueError) as exc:
            raise CorruptTranscript(f"{path}: {exc}") from None
        except EmptyRequirements as exc:  # RequirementSpec's check of its body
            raise CorruptTranscript(f"{path}: {where}.body: {exc}") from None

    inputs = transcript.inputs
    recorded = transcript.config if isinstance(transcript.config, dict) else {}
    config = read(RunConfig, {**recorded, "output_dir": Path(path).parent}, "config")
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


def language_tag_for(path: str | os.PathLike) -> str:
    suffix = split_suffix(os.fspath(path))[1].lower()
    return LANGUAGE_TAGS.get(suffix, suffix[1:] or "text")


def _project_files(top: str, exclude: str | None) -> list[str]:
    """The files a ``"**/*"`` glob of ``top`` and ``is_file`` find, "/"-joined relative to
    ``top``, by one ``os.scandir`` walk that does not enter the directory ``exclude``."""
    files: list[str] = []
    pending = [""]  # the directories to list, each as its entries' path prefix
    while pending:
        prefix = pending.pop()
        try:
            entries = list(os.scandir(os.path.join(top, prefix)))
        except OSError:  # unreadable, as the glob skips it
            continue
        for entry in entries:
            rel = prefix + entry.name
            try:  # like the glob: a symlink to a directory is not entered, one to a file read
                if entry.is_dir(follow_symlinks=False):
                    if rel != exclude:
                        pending.append(rel + "/")
                elif entry.is_file():
                    files.append(rel)
            except OSError:  # a symlink loop, or an entry gone since it was listed
                pass
    return files


def _matches(parts: list[str], pattern: list[str]) -> bool:
    """Whether path ``parts`` match ``pattern``'s part by part, by ``fnmatchcase``; a
    ``"**"`` part matches any number of parts, none included."""
    if not pattern:
        return not parts
    if pattern[0] == "**":
        return any(_matches(parts[start:], pattern[1:]) for start in range(len(parts) + 1))
    return bool(parts) and fnmatchcase(parts[0], pattern[0]) and _matches(parts[1:], pattern[1:])


def load_codebase(root: Path, include_globs: Sequence[str] | None = None,
                  exclude: str | None = None) -> list[CodeDocument]:
    """Read every file under root, or those an ``include_globs`` pattern :func:`_matches`, as
    documents in path order, but those under ``exclude``, a directory's POSIX path relative
    to root.  Each file is read once, as bytes (:func:`~vapu.models.read_bytes`), and
    decoded as UTF-8 with the newlines text mode reads (:func:`~vapu.models.decode_text`);
    a file that is not UTF-8 is logged and its bytes decoded again with U+FFFD for its bad
    bytes.  A pattern that :func:`is_project_relative` refuses raises ConfigInvalid naming
    it."""
    for pattern in include_globs or ():
        if not is_project_relative(pattern):
            raise ConfigInvalid(f"--include pattern {pattern!r} is not a path inside a project")
    root = Path(root)
    if not root.exists():
        raise NoFilesMatched(f"codebase root {root} does not exist")
    files = _project_files(os.fspath(root), exclude)
    if include_globs is not None:
        split = [pattern.split("/") for pattern in include_globs]
        files = [rel for rel in files if any(_matches(rel.split("/"), parts) for parts in split)]
    if not files:
        outside = "" if exclude is None else f" outside {exclude}"
        patterns = ["**/*"] if include_globs is None else list(include_globs)
        raise NoFilesMatched(f"no files under {root}{outside} match {patterns}")
    documents = []
    for rel in sorted(files):
        path = join_path(root, rel)
        data = read_bytes(path)
        try:
            content = decode_text(data)
        except UnicodeDecodeError as exc:
            logger.warning("%s is not UTF-8 (%s); its bad bytes read as U+FFFD", path, exc)
            content = decode_text(data, errors="replace")
        documents.append(CodeDocument(rel, language_tag_for(rel), content))
    return documents
