"""The update state machine.

One run walks a file through: manager planning (draft plus one
reflection), then per task the prompt-maker/executor pair, verification,
and a bounded verifier/finalizer feedback loop.  Every exchange is
recorded so runs replay deterministically from fixtures.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import (
    AbortedRun,
    EmptyChangeList,
    EmptyInstruction,
    EmptyRequirements,
    EmptyResponse,
    NoCodeInResponse,
    UnparseableTaskList,
    UnparseableVerdict,
    VapuError,
)
from .gateway import (
    ChatExchange,
    GenerationParams,
    Gateway,
    LiveGateway,
    ModelRegistry,
    ReplayFixtureSet,
    ReplayGateway,
    load_replay_fixtures,
    resolve_model,
)
from .models import (
    AgentRole,
    ChangeRequest,
    CodeDocument,
    FeedbackBudget,
    RequirementKind,
    RequirementSpec,
    Task,
    TaskOutcome,
    TaskPlan,
    UpdateResult,
    Verdict,
)
from .prompts import (
    BaselineKind,
    BaselineMode,
    PromptText,
    TemplateSet,
    build_baseline_prompt,
    default_templates,
    extract_code,
    has_unbalanced_fences,
    load_templates,
    parse_task_list,
    parse_verdict,
    render_template,
    serialize_task_plan,
)
from .workspace import (
    Backend,
    Method,
    RunConfig,
    RunTranscript,
    make_run_id,
    persist_transcript,
)

logger = logging.getLogger(__name__)

# Fallback change request when the verifier stays unparseable after a re-ask.
GENERIC_CHANGE = "address verifier feedback"

TRUNCATED_FLAG = "truncated"
NO_FENCE_FLAG = "no_fence"


class RecordingGateway:
    """Wraps a gateway, keeping every exchange in order.

    started_at stamps are bumped by a microsecond when the clock did not
    advance, so transcript ordering stays strict even on fast replays.
    """

    def __init__(self, inner: Gateway):
        self.inner = inner
        self.exchanges: list[ChatExchange] = []
        self._last_started: float | None = None

    def complete(self, role: AgentRole, prompt: str, params: GenerationParams) -> ChatExchange:
        exchange = self.inner.complete(role, prompt, params)
        if self._last_started is not None and exchange.started_at <= self._last_started:
            exchange.started_at = self._last_started + 1e-6
        self._last_started = exchange.started_at
        self.exchanges.append(exchange)
        return exchange

    def truncation_seen(self) -> bool:
        return any(TRUNCATED_FLAG in e.flags for e in self.exchanges)


def gateway_factory(config: RunConfig) -> Callable[[], Gateway]:
    """Set up the configured backend once; each call makes one run's own gateway.

    Replay gateways share the read-only fixtures, each starting at index 0.
    """
    if config.backend is Backend.REPLAY:
        fixtures = load_replay_fixtures(config.fixtures_dir)
        return lambda: ReplayGateway(fixtures, model_id=config.model)
    registry = (ModelRegistry.from_file(config.registry_path)
                if config.registry_path else ModelRegistry.default())
    profile = resolve_model(registry, config.model)
    return lambda: LiveGateway(profile)


def build_gateway(config: RunConfig) -> Gateway:
    """Construct the backend a run configuration asks for."""
    return gateway_factory(config)()


def resolve_templates(config: RunConfig) -> TemplateSet:
    if config.templates_dir:
        return load_templates(config.templates_dir)
    return default_templates()


def _code_exchange(gateway, role: AgentRole, prompt: str,
                   params: GenerationParams) -> ChatExchange:
    """Completion for code-producing roles, retried once on truncation.

    An unbalanced fence means the output was cut off mid-block; the
    exchange keeps a truncated flag either way so the run records it.
    """
    exchange = gateway.complete(role, prompt, params)
    if has_unbalanced_fences(exchange.response):
        exchange.flags.append(TRUNCATED_FLAG)
        logger.warning("%s output looked truncated; retrying once", role.value)
        exchange = gateway.complete(role, prompt, params)
        if has_unbalanced_fences(exchange.response):
            exchange.flags.append(TRUNCATED_FLAG)
    return exchange


def _extract_into(code: CodeDocument, exchange: ChatExchange) -> CodeDocument:
    try:
        content, fenced = extract_code(exchange.response)
    except EmptyResponse:
        raise NoCodeInResponse(f"{exchange.role.value} returned a blank response") from None
    if not fenced:
        exchange.flags.append(NO_FENCE_FLAG)
    if not content.strip():
        raise NoCodeInResponse(f"{exchange.role.value} response contained no code")
    return code.with_content(content)


def plan_tasks(req: RequirementSpec, code: CodeDocument, gateway,
               params: GenerationParams,
               templates: TemplateSet | None = None) -> TaskPlan:
    """Ask the manager for a task list, then apply exactly one reflection pass.

    The reflection exchange sees the draft list and may reorder or
    rewrite it; its output becomes the released plan.  A reflection that
    yields no tasks falls back to the draft, and only when both
    exchanges yield nothing is the plan unparseable.
    """
    templates = templates or default_templates()
    if not req.as_text().strip():
        raise EmptyRequirements(f"requirement {req.id!r} is blank")
    draft_prompt = render_template(
        templates["manager"],
        {"requirements": req.as_text(), "code": code.content},
    )
    draft_exchange = gateway.complete(AgentRole.MANAGER, draft_prompt.text, params)
    draft: TaskPlan | None = None
    try:
        draft = parse_task_list(draft_exchange.response)
    except UnparseableTaskList:
        logger.warning("manager draft yielded no tasks; reflection sees the raw response")
    draft_text = serialize_task_plan(draft) if draft else draft_exchange.response.strip()
    reflection_prompt = render_template(
        templates["reflection"],
        {"requirements": req.as_text(), "task": draft_text},
    )
    reflection_exchange = gateway.complete(AgentRole.MANAGER, reflection_prompt.text, params)
    try:
        final = parse_task_list(reflection_exchange.response)
    except UnparseableTaskList:
        if draft is None:
            raise UnparseableTaskList(
                "manager yielded zero tasks in both the draft and the reflection"
            ) from None
        final = draft
    return TaskPlan(tasks=final.tasks, reflected=True)


def make_task_prompt(req: RequirementSpec, task: Task, code: CodeDocument,
                     gateway, params: GenerationParams,
                     templates: TemplateSet | None = None) -> PromptText:
    """Have the prompt-maker write the detailed instruction for one task."""
    templates = templates or default_templates()
    prompt = render_template(
        templates["prompt_maker"],
        {"requirements": req.as_text(), "task": task.description, "code": code.content},
    )
    exchange = gateway.complete(AgentRole.PROMPT_MAKER, prompt.text, params)
    instruction = exchange.response.strip()
    if not instruction:
        raise EmptyInstruction(f"prompt-maker returned nothing for task {task.index}")
    return PromptText(text=instruction, origin=templates["prompt_maker"].template_id)


def execute_task(instruction: PromptText, code: CodeDocument, gateway,
                 params: GenerationParams,
                 templates: TemplateSet | None = None) -> CodeDocument:
    """Run the executor on the instruction plus the current code."""
    templates = templates or default_templates()
    prompt = render_template(
        templates["executor"],
        {"task": instruction.text, "code": code.content},
    )
    exchange = _code_exchange(gateway, AgentRole.EXECUTOR, prompt.text, params)
    return _extract_into(code, exchange)


def verify_task(req: RequirementSpec, task: Task, before: CodeDocument,
                after: CodeDocument, gateway, params: GenerationParams,
                templates: TemplateSet | None = None) -> Verdict:
    """Ask the verifier to compare the file before and after the task."""
    if before.path != after.path:
        raise ValueError("verify_task expects two versions of the same file")
    templates = templates or default_templates()
    prompt = render_template(
        templates["verifier"],
        {
            "requirements": req.as_text(),
            "task": task.description,
            "code_before": before.content,
            "code_after": after.content,
        },
    )
    exchange = gateway.complete(AgentRole.VERIFIER, prompt.text, params)
    return parse_verdict(exchange.response)


def finalize_code(code: CodeDocument, changes: tuple[ChangeRequest, ...] | list[ChangeRequest],
                  gateway, params: GenerationParams,
                  templates: TemplateSet | None = None) -> CodeDocument:
    """Have the finalizer apply the verifier's requested changes."""
    if not changes:
        raise EmptyChangeList("finalizer invoked with no change requests")
    templates = templates or default_templates()
    prompt = render_template(
        templates["finalizer"],
        {
            "code": code.content,
            "changes": "\n".join(f"- {change.description}" for change in changes),
        },
    )
    exchange = _code_exchange(gateway, AgentRole.FINALIZER, prompt.text, params)
    return _extract_into(code, exchange)


def _verify_with_reask(req, task, before, after, gateway, params, templates) -> Verdict:
    """Verify, re-asking once on an unparseable verdict.

    A second unparseable answer is treated as a rejection with a generic
    change request, failing safe into the bounded feedback loop instead
    of aborting the run.
    """
    try:
        return verify_task(req, task, before, after, gateway, params, templates)
    except UnparseableVerdict:
        logger.warning("unparseable verdict for task %d; re-asking once", task.index)
    try:
        return verify_task(req, task, before, after, gateway, params, templates)
    except UnparseableVerdict:
        logger.warning("verdict still unparseable; treating as rejection")
        return Verdict(accepted=False, changes=(ChangeRequest(GENERIC_CHANGE),))


def _generation_params(config: RunConfig) -> GenerationParams:
    return GenerationParams(temperature=config.temperature)


def _base_transcript(run_id: str, config: RunConfig, req: RequirementSpec,
                     code: CodeDocument, repetition: int,
                     example: tuple[str, str] | None = None) -> RunTranscript:
    inputs = {
        "requirement": {"id": req.id, "body": list(req.body), "kind": req.kind.value},
        "code": code.to_dict(),
        "repetition": repetition,
    }
    if example is not None:
        inputs["example"] = list(example)
    return RunTranscript(run_id=run_id, config=config.snapshot(), inputs=inputs)


def run_update(req: RequirementSpec, code: CodeDocument, config: RunConfig,
               repetition: int = 1, gateway: Gateway | None = None) -> UpdateResult:
    """Execute the full pipeline over one file and persist its transcript.

    On budget exhaustion the last finalizer output is carried forward
    and the result is flagged unverified.  Any agent error persists the
    partial transcript and aborts with the failing task index.
    """
    config.validate()
    templates = resolve_templates(config)
    gateway = gateway or build_gateway(config)
    recorder = RecordingGateway(gateway)
    params = _generation_params(config)
    run_id = make_run_id(code.path, config.method, config.model,
                         config.temperature, repetition)
    transcript = _base_transcript(run_id, config, req, code, repetition)
    clock_start = time.perf_counter()
    failed_task_index = 0  # 0 = still planning
    try:
        plan = plan_tasks(req, code, recorder, params, templates)
        assert plan.reflected
        logger.info("run %s: plan of %d task(s)", run_id, len(plan.tasks))
        current = code
        outcomes: list[TaskOutcome] = []
        for task in plan.tasks:
            failed_task_index = task.index
            instruction = make_task_prompt(req, task, current, recorder, params, templates)
            before = current
            updated = execute_task(instruction, current, recorder, params, templates)
            verdict = _verify_with_reask(req, task, before, updated, recorder, params, templates)
            budget = FeedbackBudget(max_iterations=config.max_feedback_iterations)
            while not verdict.accepted and not budget.exhausted():
                updated = finalize_code(updated, verdict.changes, recorder, params, templates)
                budget.spend()
                verdict = _verify_with_reask(req, task, before, updated, recorder, params, templates)
            if not verdict.accepted:
                logger.warning("run %s: task %d left unverified after %d finalizer iteration(s)",
                               run_id, task.index, budget.used)
            outcomes.append(TaskOutcome(
                task_index=task.index,
                accepted=verdict.accepted,
                finalizer_iterations=budget.used,
            ))
            current = updated
        result = UpdateResult(
            final_code=current,
            per_task_outcomes=tuple(outcomes),
            unverified=any(not o.accepted for o in outcomes),
            transcript_ref=run_id,
            truncated=recorder.truncation_seen(),
        )
    except VapuError as exc:
        transcript.exchanges = recorder.exchanges
        transcript.status = "aborted"
        transcript.outcome = {"error": str(exc), "failed_task_index": failed_task_index}
        transcript.duration = time.perf_counter() - clock_start
        persist_transcript(transcript, config.output_dir)
        raise AbortedRun(
            f"run {run_id} aborted at task {failed_task_index}: {exc}",
            task_index=failed_task_index,
            run_id=run_id,
        ) from exc
    transcript.exchanges = recorder.exchanges
    transcript.outcome = result.to_dict()
    transcript.duration = time.perf_counter() - clock_start
    persist_transcript(transcript, config.output_dir)
    return result


@dataclass
class BaselineResult:
    """Outcome of one single-prompt baseline run."""

    final_code: CodeDocument
    transcript_ref: str
    fenced: bool
    truncated: bool


def load_example(path: Path) -> tuple[str, str]:
    """Read the one-shot example asset: JSON with input and output excerpts."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return (data["input"], data["output"])


def run_baseline(req: RequirementSpec, code: CodeDocument, config: RunConfig,
                 repetition: int = 1, gateway: Gateway | None = None,
                 example: tuple[str, str] | None = None) -> BaselineResult:
    """Execute one zero- or one-shot exchange over one file and persist it."""
    config.validate()
    if config.method is Method.VAPU:
        raise ValueError("run_baseline requires a zsl or osl method")
    templates = resolve_templates(config)
    gateway = gateway or build_gateway(config)
    recorder = RecordingGateway(gateway)
    params = _generation_params(config)
    if config.method is Method.OSL and example is None:
        example = load_example(config.example_path)
    mode = (BaselineMode(kind=BaselineKind.OSL, example=example)
            if config.method is Method.OSL else BaselineMode(kind=BaselineKind.ZSL))
    run_id = make_run_id(code.path, config.method, config.model,
                         config.temperature, repetition)
    transcript = _base_transcript(run_id, config, req, code, repetition, example=example)
    clock_start = time.perf_counter()
    prompt = build_baseline_prompt(mode, req.as_text(), code, templates)
    exchange = _code_exchange(recorder, AgentRole.BASELINE, prompt.text, params)
    updated = _extract_into(code, exchange)
    result = BaselineResult(
        final_code=updated,
        transcript_ref=run_id,
        fenced=NO_FENCE_FLAG not in exchange.flags,
        truncated=recorder.truncation_seen(),
    )
    transcript.exchanges = recorder.exchanges
    transcript.outcome = {
        "final_code": updated.to_dict(),
        "fenced": result.fenced,
        "truncated": result.truncated,
    }
    transcript.duration = time.perf_counter() - clock_start
    persist_transcript(transcript, config.output_dir)
    return result


def fixtures_from_transcript(transcript: RunTranscript) -> ReplayFixtureSet:
    """Rebuild a fixture set from a persisted transcript's exchanges."""
    entries: dict[tuple[str, int], str] = {}
    cursors: dict[str, int] = {}
    for exchange in transcript.exchanges:
        index = cursors.get(exchange.role.value, 0)
        cursors[exchange.role.value] = index + 1
        entries[(exchange.role.value, index)] = exchange.response
    return ReplayFixtureSet(entries)


def reexecute_transcript(transcript: RunTranscript, output_dir: Path) -> tuple[str, str]:
    """Re-run a persisted run against its own recorded responses.

    Returns (recorded_content, replayed_content); equality is the
    caller's byte-identity check.
    """
    inputs = transcript.inputs
    req = RequirementSpec(
        id=inputs["requirement"]["id"],
        body=tuple(inputs["requirement"]["body"]),
        kind=RequirementKind(inputs["requirement"]["kind"]),
    )
    code = CodeDocument.from_dict(inputs["code"])
    snapshot = transcript.config
    config = RunConfig(
        model=snapshot["model"],
        output_dir=Path(output_dir),
        temperature=snapshot["temperature"],
        max_feedback_iterations=snapshot["max_feedback_iterations"],
        repetitions=snapshot["repetitions"],
        backend=Backend.REPLAY,
        # The injected gateway supplies the responses; the directory is
        # only kept for provenance in the re-executed transcript.
        fixtures_dir=Path(snapshot["fixtures_dir"]) if snapshot.get("fixtures_dir") else Path("."),
        method=Method(snapshot["method"]),
        example_path=Path(snapshot["example_path"]) if snapshot.get("example_path") else None,
        templates_dir=Path(snapshot["templates_dir"]) if snapshot.get("templates_dir") else None,
    )
    gateway = ReplayGateway(fixtures_from_transcript(transcript), model_id=config.model)
    repetition = inputs.get("repetition", 1)
    if config.method is Method.VAPU:
        result = run_update(req, code, config, repetition=repetition, gateway=gateway)
        replayed = result.final_code.content
    else:
        example = tuple(inputs["example"]) if inputs.get("example") else None
        baseline = run_baseline(req, code, config, repetition=repetition,
                                gateway=gateway, example=example)
        replayed = baseline.final_code.content
    recorded = transcript.outcome["final_code"]["content"]
    return recorded, replayed
