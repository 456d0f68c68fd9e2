"""Shared domain types for the update pipeline.

These are plain dataclasses with their invariants enforced at
construction time, so every other module can assume a valid value once
it holds one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, get_args, get_type_hints

from .errors import EmptyRequirements

# get_type_hints evaluates the postponed annotations on every call (~150 us).
_type_hints = functools.cache(get_type_hints)


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


def from_json(cls, data: Mapping):
    """``cls`` built from a JSON object, each value checked or converted to its field's type.

    Keys that are not fields are ignored and missing ones keep their
    defaults; an empty or None optional reads as None.  Flags, counts
    and text must be JSON booleans, integers and strings; other values
    (numbers, enums, paths) go through the field's type, so ``1`` reads
    as ``1.0`` for a float.
    """
    values = {}
    for name, kind in _type_hints(cls).items():
        if name not in data:
            continue
        value = data[name]
        if type(None) in get_args(kind):
            kind = next(k for k in get_args(kind) if k is not type(None))
            if not value:
                values[name] = None
                continue
        if kind in (bool, int, str):
            # Exact type: bool is an int subclass, and no count.
            if type(value) is not kind:
                raise TypeError(f"{cls.__name__}.{name} must be {kind.__name__}, got {value!r}")
        elif not isinstance(value, kind):
            value = kind(value)
        values[name] = value
    return cls(**values)


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
    """Ordered task list produced by the manager.

    ``reflected`` records whether the one reflection exchange has been
    applied; the pipeline only executes reflected plans.
    """

    tasks: tuple[Task, ...]
    reflected: bool = False

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
    def from_descriptions(cls, descriptions: Iterable[str], reflected: bool = False) -> "TaskPlan":
        tasks = tuple(Task(index=i, description=d) for i, d in enumerate(descriptions, start=1))
        return cls(tasks=tasks, reflected=reflected)


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

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "language_tag": self.language_tag,
            "content": self.content,
            "loc": self.loc,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CodeDocument":
        return cls(path=data["path"], language_tag=data["language_tag"], content=data["content"])


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


@dataclass
class FeedbackBudget:
    """Bounded verifier/finalizer loop allowance for one task."""

    max_iterations: int = 2
    used: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0 <= self.used <= self.max_iterations:
            raise ValueError("used iterations must stay within the budget")

    def exhausted(self) -> bool:
        return self.used >= self.max_iterations

    def spend(self) -> None:
        if self.exhausted():
            raise ValueError("feedback budget already exhausted")
        self.used += 1


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

    def to_dict(self) -> dict:
        record = vars(self).copy()
        record["final_code"] = self.final_code.to_dict()
        record["per_task_outcomes"] = [vars(o).copy() for o in self.per_task_outcomes]
        return record
