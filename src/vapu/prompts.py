"""Prompt templates, baseline prompt construction and response parsing.

The inter-agent wire format lives here: numbered task lists from the
manager, ACCEPT/REJECT verdicts from the verifier, and fenced code
blocks from the executor and finalizer.  Keywords and list markers are
fixed protocol constants; the template texts around them are editable
assets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import (
    ConfigInvalid,
    EmptyResponse,
    ExampleForbidden,
    ExampleMissing,
    MissingBinding,
    UnknownPlaceholder,
    UnparseableTaskList,
    UnparseableVerdict,
)
from .models import AgentRole, ChangeRequest, CodeDocument, TaskPlan, Verdict

PLACEHOLDERS = frozenset(
    {"requirements", "task", "code", "code_before", "code_after", "changes", "example"}
)

ACCEPT_KEYWORD = "ACCEPT"
REJECT_KEYWORD = "REJECT"

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")
_FENCE = "```"
# The boundaries str.splitlines() breaks lines at.
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
_LIST_ITEM_RE = re.compile(r"^\s*(?:\d+[.)]\s*|[-*]\s+)(.*\S)\s*$")


@dataclass(frozen=True)
class PromptTemplate:
    """A template body with ``{{placeholder}}`` slots from the documented set."""

    template_id: str
    role: AgentRole
    body: str

    def __post_init__(self) -> None:
        if not self.body.strip():
            raise ValueError(f"template {self.template_id!r} has an empty body")
        unknown = self.placeholders() - PLACEHOLDERS
        if unknown:
            raise UnknownPlaceholder(
                f"template {self.template_id!r} uses undocumented placeholders: {sorted(unknown)}"
            )

    def placeholders(self) -> frozenset[str]:
        return frozenset(_PLACEHOLDER_RE.findall(self.body))


@dataclass(frozen=True)
class PromptText:
    """A fully rendered prompt, tagged with the template it came from."""

    text: str
    origin: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("rendered prompt must be non-empty")


class BaselineKind(str, Enum):
    ZSL = "zsl"
    OSL = "osl"


@dataclass(frozen=True)
class BaselineMode:
    """Zero-shot or one-shot prompting; one-shot carries exactly one example pair."""

    kind: BaselineKind
    example: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if self.kind is BaselineKind.OSL and self.example is None:
            raise ExampleMissing("one-shot baseline requires an (input, output) example pair")
        if self.kind is BaselineKind.ZSL and self.example is not None:
            raise ExampleForbidden("zero-shot baseline must not carry an example")


def render_template(tpl: PromptTemplate, bindings: Mapping[str, str]) -> PromptText:
    """Substitute every placeholder in one pass.

    Binding text is inserted verbatim and never re-expanded, so code
    containing ``{{task}}`` cannot inject further substitutions.
    """
    for name in bindings:
        if name not in PLACEHOLDERS:
            raise UnknownPlaceholder(f"binding {name!r} is not a documented placeholder")
    needed = tpl.placeholders()
    for name in sorted(needed):
        if name not in bindings:
            raise MissingBinding(f"template {tpl.template_id!r} needs a binding for {name!r}")
    text = _PLACEHOLDER_RE.sub(lambda m: bindings[m.group(1)], tpl.body)
    return PromptText(text=text, origin=tpl.template_id)


def extract_code(response: str) -> tuple[str, bool]:
    """Pull code out of an agent response.

    With one or more fenced blocks, their bodies are concatenated in
    order with one blank line between them.  Without fences the whole
    trimmed response is assumed to be code.
    """
    if not response.strip():
        raise EmptyResponse("cannot extract code from a blank response")
    blocks = []
    start = response.find(_FENCE)
    while start >= 0:
        # A body runs from the first newline after a fence to the next fence.
        # Once an opening fence lacks either, every later one does too.
        newline = response.find("\n", start + len(_FENCE))
        end = response.find(_FENCE, newline + 1) if newline >= 0 else -1
        if end < 0:
            break
        blocks.append(response[newline + 1:end])
        start = response.find(_FENCE, end + len(_FENCE))
    if blocks:
        return "\n\n".join(block.strip("\r\n") for block in blocks), True
    return response.strip(), False


def has_unbalanced_fences(response: str) -> bool:
    """True when an odd number of ``str.splitlines`` lines start, after whitespace,
    with a fence: one was opened but never closed (truncated output)."""
    markers = 0
    start = response.find(_FENCE)
    while start >= 0:
        before = start - 1
        while before >= 0 and response[before].isspace() \
                and response[before] not in _LINE_BREAKS:
            before -= 1
        if before < 0 or response[before] in _LINE_BREAKS:
            markers += 1
        # A fence overlapping this one follows a backtick, so it starts no line.
        start = response.find(_FENCE, start + len(_FENCE))
    return markers % 2 == 1


def serialize_task_plan(plan: TaskPlan) -> str:
    """Emit the numbered-list wire form the manager protocol uses."""
    return "\n".join(f"{task.index}. {task.description}" for task in plan.tasks)


def serialize_verdict(verdict: Verdict) -> str:
    """Emit the ACCEPT/REJECT wire form the verifier protocol uses."""
    if verdict.accepted:
        return ACCEPT_KEYWORD
    lines = [f"{REJECT_KEYWORD}:"]
    lines.extend(f"- {change.description}" for change in verdict.changes)
    return "\n".join(lines)


def parse_task_list(response: str) -> TaskPlan:
    """Numbered or bulleted lines become tasks in listed order.

    The digits in the response are presentation only; the listed order
    defines the task indices.
    """
    descriptions = []
    for line in response.splitlines():
        match = _LIST_ITEM_RE.match(line)
        if match:
            descriptions.append(match.group(1))
    if not descriptions:
        raise UnparseableTaskList(f"no task lines found in response: {response[:80]!r}")
    return TaskPlan.from_descriptions(descriptions)


def parse_verdict(response: str) -> Verdict:
    """First non-blank line decides: ACCEPT, or REJECT followed by changes.

    Bullet lines after a rejection become one change request each; a
    rejection with prose but no bullets becomes a single change request;
    anything else is unparseable.  Content after an acceptance is
    ignored.
    """
    lines = response.splitlines()
    first_index = next((i for i, line in enumerate(lines) if line.strip()), None)
    if first_index is None:
        raise UnparseableVerdict("blank verifier response")
    first = lines[first_index].strip()
    if first.upper().startswith(ACCEPT_KEYWORD):
        return Verdict(accepted=True)
    if first.upper().startswith(REJECT_KEYWORD):
        rest = lines[first_index + 1:]
        changes = []
        for line in rest:
            match = _LIST_ITEM_RE.match(line)
            if match:
                changes.append(ChangeRequest(match.group(1)))
        if not changes:
            trailing = first[len(REJECT_KEYWORD):].lstrip(" :.-")
            remainder = " ".join(
                part.strip() for part in [trailing, *rest] if part.strip()
            )
            if not remainder:
                raise UnparseableVerdict("rejection carried no change requests")
            changes = [ChangeRequest(remainder)]
        return Verdict(accepted=False, changes=tuple(changes))
    raise UnparseableVerdict(f"verdict line {first[:60]!r} matches neither keyword")


def parse_agent_output(role: AgentRole, response: str) -> TaskPlan | Verdict:
    """Parse structured output for the roles that have a wire format."""
    if role is AgentRole.MANAGER:
        return parse_task_list(response)
    if role is AgentRole.VERIFIER:
        return parse_verdict(response)
    raise ValueError(f"role {role.value} has no structured output format")


def format_example(example: tuple[str, str]) -> str:
    before, after = example
    return f"Example input:\n{before}\n\nExample output:\n{after}"


def build_baseline_prompt(mode: BaselineMode, update_request: str,
                          code: CodeDocument,
                          templates: "TemplateSet | None" = None) -> PromptText:
    """Construct the one-call baseline prompt for the requested mode."""
    templates = templates or default_templates()
    if mode.kind is BaselineKind.OSL:
        tpl = templates["osl"]
        assert mode.example is not None  # guaranteed by BaselineMode
        bindings = {
            "requirements": update_request,
            "example": format_example(mode.example),
            "code": code.content,
        }
    else:
        tpl = templates["zsl"]
        bindings = {"requirements": update_request, "code": code.content}
    return render_template(tpl, bindings)


TemplateSet = dict[str, PromptTemplate]

# Template purposes the pipeline requires; reflection reuses the manager role.
REQUIRED_TEMPLATES = (
    "manager", "reflection", "prompt_maker", "executor", "verifier", "finalizer",
    "zsl", "osl",
)


def parse_template_file(name: str, text: str) -> PromptTemplate:
    """Parse the asset format: one header line ``<template_id> <role>``, then the body."""
    header, sep, body = text.partition("\n")
    parts = header.split()
    if not sep or len(parts) != 2:
        raise ConfigInvalid(
            f"template asset {name!r} must start with a '<template_id> <role>' header line"
        )
    template_id, role_name = parts
    try:
        role = AgentRole(role_name)
    except ValueError:
        raise ConfigInvalid(f"template asset {name!r} names unknown role {role_name!r}") from None
    return PromptTemplate(template_id=template_id, role=role, body=body)


def load_templates(directory: Path) -> TemplateSet:
    """Load every ``*.txt`` template asset in a directory, keyed by file stem."""
    directory = Path(directory)
    templates: TemplateSet = {}
    for path in sorted(directory.glob("*.txt")):
        templates[path.stem] = parse_template_file(path.name, path.read_text(encoding="utf-8"))
    missing = [name for name in REQUIRED_TEMPLATES if name not in templates]
    if missing:
        raise ConfigInvalid(f"template directory {directory} is missing: {missing}")
    return templates


@lru_cache(maxsize=1)
def default_templates() -> TemplateSet:
    """The editable default assets shipped with the package."""
    templates: TemplateSet = {}
    root = resources.files("vapu").joinpath("templates")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".txt"):
            stem = entry.name[: -len(".txt")]
            templates[stem] = parse_template_file(entry.name, entry.read_text(encoding="utf-8"))
    missing = [name for name in REQUIRED_TEMPLATES if name not in templates]
    if missing:  # packaging error, not a user mistake
        raise ConfigInvalid(f"bundled template set is missing: {missing}")
    return templates
