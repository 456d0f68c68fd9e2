"""Prompt templates, baseline prompt construction and response parsing.

The inter-agent wire format lives here: numbered task lists from the
manager, ACCEPT/REJECT verdicts from the verifier, and fenced code
blocks from the executor and finalizer.  Keywords and list markers are
fixed protocol constants; the template texts around them are editable
assets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import (
    ConfigInvalid,
    EmptyPrompt,
    EmptyResponse,
    MissingBinding,
    UnknownPlaceholder,
    UnparseableTaskList,
    UnparseableVerdict,
)
from .models import AgentRole, ChangeRequest, CodeDocument, TaskPlan, Verdict, read_input

PLACEHOLDERS = frozenset(
    {"requirements", "task", "code", "code_before", "code_after", "changes", "example"}
)

ACCEPT_KEYWORD = "ACCEPT"
REJECT_KEYWORD = "REJECT"

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")
_FENCE = "```"
# Backticks that start no fence before _find_fence falls back to one plain search.
_FENCE_BUDGET = 8
# The boundaries str.splitlines() breaks lines at.
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
_LIST_ITEM_RE = re.compile(r"^\s*(?:\d+[.)]\s*|[-*]\s+)(.*\S)\s*$")


@dataclass(frozen=True)
class PromptTemplate:
    """A template body with ``{{placeholder}}`` slots from the documented set.

    The body is split once, when the template is built, into ``pieces`` and
    the sorted placeholder ``names``, so rendering neither splits nor sorts.
    """

    template_id: str
    role: AgentRole
    body: str
    # The body split once: literal text at the even indices, placeholder names at the odd.
    pieces: tuple[str, ...] = field(init=False, compare=False, repr=False)
    # Each placeholder name once, sorted: the order render_template checks bindings in.
    names: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.body.strip():
            raise ValueError(f"template {self.template_id!r} has an empty body")
        object.__setattr__(self, "pieces", tuple(_PLACEHOLDER_RE.split(self.body)))
        object.__setattr__(self, "names", tuple(sorted(self.placeholders())))
        unknown = set(self.names) - PLACEHOLDERS
        if unknown:
            raise UnknownPlaceholder(
                f"template {self.template_id!r} uses undocumented placeholders: {sorted(unknown)}"
            )

    def placeholders(self) -> frozenset[str]:
        return frozenset(self.pieces[1::2])


@dataclass(frozen=True)
class PromptText:
    """A fully rendered prompt.

    ``parts`` alternate literal template pieces and binding values,
    starting and ending with a literal; ``"".join(parts) == text``.
    """

    text: str
    parts: list[str] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.text or self.text.isspace():
            raise EmptyPrompt("rendered prompt must be non-empty")


def render_template(tpl: PromptTemplate, bindings: Mapping[str, str]) -> PromptText:
    """Substitute every placeholder in one pass.

    Binding text is inserted verbatim and never re-expanded, so code
    containing ``{{task}}`` cannot inject further substitutions.
    """
    for name in bindings:
        if name not in PLACEHOLDERS:
            raise UnknownPlaceholder(f"binding {name!r} is not a documented placeholder")
    for name in tpl.names:
        if name not in bindings:
            raise MissingBinding(f"template {tpl.template_id!r} needs a binding for {name!r}")
    parts = list(tpl.pieces)
    for i in range(1, len(parts), 2):
        parts[i] = bindings[parts[i]]
    return PromptText(text="".join(parts), parts=parts)


def _find_fence(text: str, start: int) -> int:
    """``text.find("```", start)``, stepping from backtick to backtick.

    A search for three backticks scans about a nanosecond per character,
    because str.find's skip filter cannot tell a backtick from a space;
    a search for one backtick runs at memchr speed.  Text dense in
    backticks (template literals, inline code) would make the stepping
    slower than one plain search, so after ``_FENCE_BUDGET`` backticks
    that start no fence the plain search finishes the job.
    """
    for _ in range(_FENCE_BUDGET):
        tick = text.find("`", start)
        if tick < 0 or text.startswith(_FENCE, tick):
            return tick
        start = tick + 1
    return text.find(_FENCE, start)


def extract_code(response: str) -> tuple[str, bool, tuple[int, int] | None]:
    """Pull code out of an agent response: returns (code, fenced, span).

    With one or more fenced blocks, their bodies, trimmed of line
    breaks, are concatenated in order with one blank line between them.
    Without fences the whole trimmed response is assumed to be code.
    ``span`` is ``(start, end)`` when the code is the slice
    ``response[start:end]`` (one fenced block, or none), else None.
    """
    if not response or response.isspace():
        raise EmptyResponse("cannot extract code from a blank response")
    spans = []
    start = _find_fence(response, 0)
    while start >= 0:
        # A body runs from the first newline after a fence to the next fence.
        # Once an opening fence lacks either, every later one does too.
        newline = response.find("\n", start + len(_FENCE))
        end = _find_fence(response, newline + 1) if newline >= 0 else -1
        if end < 0:
            break
        body_start, body_end = newline + 1, end
        while body_start < body_end and response[body_start] in "\r\n":
            body_start += 1
        while body_end > body_start and response[body_end - 1] in "\r\n":
            body_end -= 1
        spans.append((body_start, body_end))
        start = _find_fence(response, end + len(_FENCE))
    fenced = bool(spans)
    if not spans:
        trimmed = response.lstrip()
        code_start = len(response) - len(trimmed)
        spans.append((code_start, code_start + len(trimmed.rstrip())))
    if len(spans) == 1:
        span = spans[0]
        code = response[span[0]:span[1]]
    else:
        span = None
        code = "\n\n".join(response[s:e] for s, e in spans)
    return code, fenced, span


def has_unbalanced_fences(response: str) -> bool:
    """True when an odd number of ``str.splitlines`` lines start, after whitespace,
    with a fence: one was opened but never closed (truncated output)."""
    markers = 0
    start = _find_fence(response, 0)
    while start >= 0:
        before = start - 1
        while before >= 0 and response[before].isspace() \
                and response[before] not in _LINE_BREAKS:
            before -= 1
        if before < 0 or response[before] in _LINE_BREAKS:
            markers += 1
        # A fence overlapping this one follows a backtick, so it starts no line.
        start = _find_fence(response, start + len(_FENCE))
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


def build_baseline_prompt(update_request: str, code: CodeDocument,
                          templates: "TemplateSet",
                          example: tuple[str, str] | None = None) -> PromptText:
    """Construct the one-call baseline prompt: one-shot with an (input, output)
    ``example`` pair, zero-shot without one."""
    if example is None:
        return render_template(templates["zsl"], {"requirements": update_request,
                                                  "code": code.content})
    return render_template(templates["osl"], {
        "requirements": update_request,
        "example": "Example input:\n{}\n\nExample output:\n{}".format(*example),
        "code": code.content,
    })


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


def load_templates(directory: Path | None) -> TemplateSet:
    """Every ``*.txt`` template asset in ``directory`` by file stem; None: the bundled set.

    A required template may use only what its bundled counterpart uses: all its step binds.
    """
    if directory is None:
        return default_templates()
    directory = Path(directory)
    templates = _read_templates(directory)
    for name in REQUIRED_TEMPLATES:
        unbound = templates[name].placeholders() - default_templates()[name].placeholders()
        if unbound:
            raise ConfigInvalid(f"template asset {directory / (name + '.txt')} uses "
                                f"placeholders its step never binds: {sorted(unbound)}")
    return templates


def _read_templates(directory: Path) -> TemplateSet:
    """The template assets in ``directory``, refused when a required one is missing."""
    if not directory.is_dir():
        raise ConfigInvalid(f"cannot read template directory {directory}: not a directory")
    templates: TemplateSet = {
        path.stem: read_input(path, "template asset", partial(parse_template_file, path.name))
        for path in sorted(directory.glob("*.txt"))}
    missing = [name for name in REQUIRED_TEMPLATES if name not in templates]
    if missing:
        raise ConfigInvalid(f"template directory {directory} is missing: {missing}")
    return templates


@lru_cache(maxsize=1)
def default_templates() -> TemplateSet:
    """The editable default assets shipped with the package."""
    return _read_templates(Path(str(resources.files("vapu").joinpath("templates"))))
