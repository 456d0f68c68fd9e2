"""Shared domain types for the update pipeline.

These are plain dataclasses with their invariants enforced at
construction time, so every other module can assume a valid value once
it holds one.
"""

from __future__ import annotations

import functools
import io
import os
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path, PurePath
from typing import Callable, Iterable, Mapping, get_args, get_origin, get_type_hints

from .errors import ConfigInvalid, EmptyRequirements, VapuError


class AgentRole(str, Enum):
    """Roles an exchange can be attributed to, including the one-shot baseline."""

    MANAGER = "manager"
    PROMPT_MAKER = "prompt_maker"
    EXECUTOR = "executor"
    VERIFIER = "verifier"
    FINALIZER = "finalizer"
    BASELINE = "baseline"


class RequirementKind(str, Enum):
    REQUIREMENT_LIST = "requirement_list"
    PROJECT_DESCRIPTION = "project_description"


def count_loc(code: str) -> int:
    """Count lines of code: every line that is non-blank after trimming.

    Comment lines count; the rule is language-agnostic so updated files
    in any dialect are measured the same way.
    """
    return sum(1 for line in code.splitlines() if line.strip())


@functools.cache
def read_plan(cls) -> tuple[tuple[str, type, bool, object, str], ...]:
    """Each field's rule for :func:`read_fields`: its name, the type its value is read as
    (``list[str]`` as ``list``), whether it may be None, its item count if it holds text
    (``...``: any) and its type's name; once per class: get_type_hints costs ~150 us."""
    plan = []
    for name, kind in get_type_hints(cls).items():
        args = get_args(kind)
        optional = type(None) in args
        if optional:
            kind = next(k for k in args if k is not type(None))
        items, origin = get_args(kind), get_origin(kind) or kind
        count = None if not items or set(items) - {str, ...} else (
            len(items) if origin is tuple and ... not in items else ...)
        plan.append((name, origin, optional, count, str(kind) if items else kind.__name__))
    return tuple(plan)


def read_fields(data: Mapping, plan: Iterable[tuple[str, type, bool, object, str]],
                where: str, complete: bool = False) -> dict:
    """The values ``data`` holds for the fields of ``plan`` (:func:`read_plan`'s rules, or
    some of them) by name, each read by :func:`from_json`'s rules; see there."""
    values = {}
    for name, kind, optional, count, type_name in plan:
        if name not in data:
            if complete and not optional:
                raise TypeError(f"{where}.{name} is missing")
            continue
        value = data[name]
        if optional and (value is None or value == ""):
            value = None
        elif type(value) is not kind or count is not None:  # else as every rule takes it
            if count is not None:  # a container of text
                readable = (type(value) in (list, tuple) and (count is ... or len(value) == count)
                            and {*map(type, value)} <= {str})
            else:  # a flag, count or text as its exact type (bool is an int subclass)
                readable = kind is float and type(value) is int or kind not in _AS_IS
            try:
                value = value if isinstance(value, kind) or not readable else kind(value)
            except (OverflowError, TypeError, ValueError):  # OverflowError: an int past float's
                readable = False
            if not readable:
                raise TypeError(f"{where}.{name} must be {type_name}, got {value!r}")
        values[name] = value
    return values


def from_json(cls, data: Mapping, where: str | None = None, complete: bool = False):
    """``cls`` built from a JSON object, each value checked or converted to its field's type.

    Keys that are not fields are ignored and missing ones keep their
    defaults, unless ``complete`` asks for every field that is not optional;
    a None or empty-string optional reads as None.  Flags, counts, text and
    numbers take only their JSON type, and a container of text only a list of
    strings, of a fixed-length tuple's length; enums, paths and other values go
    through the field's type.  A value it cannot read raises TypeError naming
    ``where.field``; ``where`` defaults to the class name.
    """
    return cls(**read_fields(data, read_plan(cls), where or cls.__name__, complete))


# Each dataclass's write plan, by class: to_json looks a value's type up here first.
_WRITE_PLANS: dict[type, tuple[tuple[str, bool], ...]] = {}
_AS_IS = frozenset({str, int, float, bool, type(None)})


def _write_plan(cls) -> tuple[tuple[str, bool], ...]:
    """(name, whether its value is written as it is: a bool, int, float or str field) for
    each field ``==`` compares, the types from the read plan; worked out on a class's
    first write and kept in ``_WRITE_PLANS``."""
    compared = {f.name for f in fields(cls) if f.compare}  # fields() refuses a non-dataclass
    plan = _WRITE_PLANS[cls] = tuple(
        (name, kind in (bool, int, float, str)) for name, kind, *_ in read_plan(cls)
        if name in compared)
    return plan


def to_json(value, omit: tuple[str, ...] = ()):
    """``value`` as JSON data, the inverse of :func:`from_json`: a dataclass as an object
    of the fields ``==`` compares (not its properties, which derive from them), an enum as
    its value, a path as str, a tuple or list as a list; str, int, float, bool and None as
    they are.  Any other value raises TypeError.  ``omit`` names fields of ``value`` itself
    to leave out.

    The value's type is looked up in the write plans before any ``isinstance`` check:
    a dataclass written before is placed by that one lookup, and an exact str, int,
    float, bool or None by one more."""
    kind = type(value)
    plan = _WRITE_PLANS.get(kind)
    if plan is None:
        if kind in _AS_IS:
            return value
        if isinstance(value, Enum):  # before str: the enums here are str subclasses
            return value._value_  # what .value reads, without its descriptor
        if isinstance(value, (str, int, float)):
            return value
        if isinstance(value, PurePath):
            return str(value)
        if isinstance(value, (list, tuple)):
            return [to_json(item) for item in value]
        plan = _write_plan(kind)
    return {name: getattr(value, name) if plain else to_json(getattr(value, name))
            for name, plain in plan if name not in omit}


def join_path(directory: str | os.PathLike, *names: str) -> str:
    """``str(Path(directory, *names))`` by one join, for names with no "", "." or ".." part."""
    top = os.fspath(directory)
    return os.path.join(top, *names) if top != "." else os.path.join(*names)


# Bytes per os.read once a file is read on past the size it had when opened.
_READ_CHUNK = 1 << 16


def read_bytes(path: str | os.PathLike) -> bytes:
    """The bytes of file ``path``, by ``os.open`` and one ``os.read`` of the file's size
    and a byte more, which a file that keeps its size answers with all of it.  A file that
    answers otherwise (it changed size, or it is a pipe, of size 0) is read to its end.
    An OSError names ``path`` as ``open``'s does, even ``os.read``'s for a directory."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            data = os.read(fd, size + 1)
            if len(data) != size:
                chunks = [data]
                while chunk := os.read(fd, _READ_CHUNK):
                    chunks.append(chunk)
                data = b"".join(chunks)
        finally:
            os.close(fd)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise
    return data


def decode_text(data: bytes, errors: str = "strict") -> str:
    """``data`` as UTF-8 text with the newlines text mode reads: "\\r\\n" and "\\r" as
    "\\n", by text mode's own newline decoder, run only when there is a "\\r"."""
    text = data.decode("utf-8", errors)
    if "\r" not in text:
        return text
    return io.IncrementalNewlineDecoder(None, translate=True).decode(text, final=True)


def read_input(path: str | Path, what: str, parse: Callable[[str], object] | None = None):
    """The UTF-8 text of input file ``path``, read as bytes (:func:`read_bytes`) with the
    newlines text mode reads (:func:`decode_text`), or what ``parse`` makes of it.  Any
    failure, from a missing file to a value ``parse`` refuses or JSON nested deeper than
    json's parser recurses, raises ConfigInvalid naming both."""
    try:
        text = decode_text(read_bytes(path))
        return text if parse is None else parse(text)
    except (AttributeError, LookupError, OSError, RecursionError, TypeError, ValueError,
            VapuError) as exc:
        raise ConfigInvalid(f"cannot read {what} {path}: {type(exc).__name__}: {exc}") from None


@dataclass(frozen=True)
class RequirementSpec:
    """The user's update request: a requirement list or a project description."""

    id: str
    body: tuple[str, ...]
    kind: RequirementKind = RequirementKind.REQUIREMENT_LIST

    def __post_init__(self) -> None:
        cleaned = tuple(line.strip() for line in self.body if line.strip())
        if not cleaned:
            raise EmptyRequirements(f"requirement {self.id!r} has a blank body")
        object.__setattr__(self, "body", cleaned)

    @classmethod
    def from_text(cls, id: str, text: str,
                  kind: RequirementKind = RequirementKind.REQUIREMENT_LIST) -> "RequirementSpec":
        return cls(id=id, body=tuple(text.splitlines()), kind=kind)

    def as_text(self) -> str:
        return "\n".join(self.body)


@dataclass(frozen=True)
class Task:
    """One abstract update operation, ordered by its 1-based index."""

    index: int
    description: str

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"task index must be >= 1, got {self.index}")
        if not self.description.strip():
            raise ValueError("task description must be non-empty")


@dataclass(frozen=True)
class TaskPlan:
    """Ordered task list produced by the manager."""

    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a task plan must contain at least one task")
        for position, task in enumerate(self.tasks, start=1):
            if task.index != position:
                raise ValueError(
                    f"task indices must run 1..{len(self.tasks)} without gaps; "
                    f"position {position} holds index {task.index}"
                )

    @classmethod
    def from_descriptions(cls, descriptions: Iterable[str]) -> "TaskPlan":
        tasks = tuple(Task(index=i, description=d) for i, d in enumerate(descriptions, start=1))
        return cls(tasks=tasks)


@dataclass
class CodeDocument:
    """One code file under update.  ``loc`` is always derived from content."""

    path: str
    language_tag: str
    content: str

    @property
    def loc(self) -> int:
        return count_loc(self.content)

    def with_content(self, content: str) -> "CodeDocument":
        return CodeDocument(path=self.path, language_tag=self.language_tag, content=content)


@dataclass(frozen=True)
class ChangeRequest:
    """One correction the verifier demands before it will accept a task."""

    description: str

    def __post_init__(self) -> None:
        if not self.description.strip():
            raise ValueError("change request description must be non-empty")


@dataclass(frozen=True)
class Verdict:
    """Verifier decision; accepted exactly when no changes are requested."""

    accepted: bool
    changes: tuple[ChangeRequest, ...] = ()

    def __post_init__(self) -> None:
        if self.accepted != (len(self.changes) == 0):
            raise ValueError("verdict must be accepted iff its change list is empty")


@dataclass(frozen=True)
class TaskOutcome:
    """Per-task summary recorded on the final update result."""

    task_index: int
    accepted: bool
    finalizer_iterations: int


@dataclass
class UpdateResult:
    """Outcome of one full pipeline run over one file."""

    final_code: CodeDocument
    per_task_outcomes: tuple[TaskOutcome, ...]
    unverified: bool
    transcript_ref: str
    truncated: bool = False

    def __post_init__(self) -> None:
        expected = any(not o.accepted for o in self.per_task_outcomes)
        if self.unverified != expected:
            raise ValueError("unverified must reflect whether any task was left unaccepted")
