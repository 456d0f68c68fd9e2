"""The update state machine.

One run walks a file through: manager planning (draft plus one
reflection), then per task the prompt-maker/executor pair, verification,
and a bounded verifier/finalizer feedback loop.  Every exchange is
recorded so runs replay deterministically from fixtures.
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, TypeVar

from .errors import (
    AbortedRun,
    ConfigInvalid,
    EmptyChangeList,
    EmptyInstruction,
    EmptyResponse,
    NoCodeInResponse,
    StorageFull,
    UnknownModel,
    UnparseableTaskList,
    UnparseableVerdict,
    VapuError,
)
from .gateway import (
    ChatExchange,
    GenerationParams,
    Gateway,
    LiveGateway,
    ReplayGateway,
    load_registry,
    load_replay_fixtures,
    provider_credentials,
)
from .models import (
    AgentRole,
    ChangeRequest,
    CodeDocument,
    RequirementSpec,
    Task,
    TaskOutcome,
    TaskPlan,
    UpdateResult,
    Verdict,
    join_path,
    read_input,
    to_json,
)
from .prompts import (
    PromptText,
    TemplateSet,
    build_baseline_prompt,
    extract_code,
    has_unbalanced_fences,
    load_templates,
    parse_task_list,
    parse_verdict,
    render_template,
    serialize_task_plan,
)
from .workspace import (
    UNRECORDED_CONFIG,
    Backend,
    Method,
    RunConfig,
    RunHeader,
    RunTranscript,
    make_run_id,
    persist_transcript,
    write_file,
)

logger = logging.getLogger(__name__)

# Fallback change request when the verifier stays unparseable after a re-ask.
GENERIC_CHANGE = "address verifier feedback"

TRUNCATED_FLAG = "truncated"
NO_FENCE_FLAG = "no_fence"

R = TypeVar("R")


@dataclass
class Run:
    """One run in flight: what its steps send through, and every exchange it made.

    Each step of a method takes the run, renders its prompt from the run's
    templates (and a one-shot run's ``example``) and sends it with
    :meth:`complete`.  started_at stamps are bumped by a microsecond when the
    clock did not advance, so transcript ordering stays strict on fast replays.
    """

    gateway: Gateway
    params: GenerationParams
    templates: TemplateSet
    run_id: str
    example: tuple[str, str] | None = None
    exchanges: list[ChatExchange] = field(default_factory=list, init=False)
    # Reported as failed_task_index on abort: 0 while planning or in a baseline's one call.
    task_index: int = field(default=0, init=False)

    def complete(self, role: AgentRole, prompt: PromptText) -> ChatExchange:
        """Send a rendered prompt and record its exchange, which holds the prompt as its parts.

        The gateway is sent the joined text; the exchange then swaps it for
        the prompt's parts, so it holds the file a prompt embeds as the run's
        own ``str`` and no joined copy outlives the call.  The parts are
        taken only when the exchange records the very string sent, so a
        gateway that rewrites prompts is recorded as it saw them.
        """
        exchange = self.gateway.complete(role, prompt.text, self.params)
        if exchange.prompt is prompt.text:
            exchange.prompt_parts = prompt.parts
        if self.exchanges and exchange.started_at <= self.exchanges[-1].started_at:
            exchange.started_at = self.exchanges[-1].started_at + 1e-6
        self.exchanges.append(exchange)
        return exchange

    def warn(self, msg: str, *args) -> None:
        """Log a warning that names this run."""
        logger.warning("run %s: " + msg, self.run_id, *args)

    def truncation_seen(self) -> bool:
        return any(TRUNCATED_FLAG in e.flags for e in self.exchanges)


def load_example(path: Path) -> tuple[str, str]:
    """Read a one-shot example asset: a JSON object with "input" and "output" excerpts."""
    def parse(text: str) -> tuple[str, str]:
        data = json.loads(text)
        if not (isinstance(data, dict) and isinstance(data.get("input"), str)
                and isinstance(data.get("output"), str)):
            raise TypeError('must be a JSON object with string "input" and "output" fields')
        return data["input"], data["output"]

    return read_input(path, "example asset", parse)


@dataclass(frozen=True)
class RunContext:
    """What every run of one command shares, read once before its first run.

    ``new_gateway`` makes a run's own gateway from the backend set up once
    (replay gateways share the fixtures, live ones one HTTP session); only an
    osl run shows ``example``.
    """

    templates: TemplateSet
    new_gateway: Callable[[], Gateway]
    example: tuple[str, str] | None = None

    @classmethod
    def from_config(cls, config: RunConfig) -> RunContext:
        """Validate ``config``, then read its templates, backend and example once each.

        Only here, before anything is read, must a replay backend have fixtures and fixtures
        a replay backend: a transcript replays from the replies it recorded.  Live credentials
        are checked here, once, so a missing key stops the command before its first run.
        """
        config.validate()
        if config.backend is Backend.REPLAY and config.fixtures_dir is None:
            raise ConfigInvalid("replay backend requires a fixtures directory")
        if config.backend is not Backend.REPLAY and config.fixtures_dir is not None:
            raise ConfigInvalid("--fixtures needs --backend replay (the default backend is live)")
        templates = load_templates(config.templates_dir)
        example = load_example(config.example_path) if config.method is Method.OSL else None
        if config.backend is Backend.REPLAY:
            fixtures = load_replay_fixtures(config.fixtures_dir)
            return cls(templates, lambda: ReplayGateway(fixtures, model_id=config.model), example)
        profiles = load_registry(config.registry_path)
        profile = profiles.get(config.model)
        if profile is None:
            raise UnknownModel(f"unknown model {config.model!r}; "
                               f"registry has: {', '.join(sorted(profiles))}")
        try:
            import requests
            from requests.adapters import HTTPAdapter
        except ImportError as exc:
            raise ConfigInvalid(f"the live backend needs the requests package: {exc}") from None
        credentials = provider_credentials(profile)
        # One session for every run, so runs reuse its connections: a pool per host as
        # large as the batch's workers keeps each --parallel worker's connection open.
        session = requests.Session()
        adapter = HTTPAdapter(pool_maxsize=max(10, config.parallel))
        session.mount("https://", adapter)
        session.mount("http://", adapter)
        return cls(templates, lambda: LiveGateway(profile, credentials, session), example)


def _code_reply(run: Run, role: AgentRole, prompt: PromptText,
                code: CodeDocument) -> tuple[CodeDocument, ChatExchange]:
    """``code`` with the code of a code-producing role's reply, and that reply's exchange.

    An unbalanced fence means the output was cut off mid-block, so the
    call is retried once; the exchange keeps a truncated flag either way
    so the run records it.  A retry that is cut off too raises
    NoCodeInResponse, because a file that was cut off is not an update;
    so does code that UTF-8 cannot encode, because it cannot be written.
    When the code is one slice of the reply, the exchange holds the
    reply split around it and no longer the reply itself, so the code is
    held once, in memory and in the transcript.
    """
    exchange = run.complete(role, prompt)
    if has_unbalanced_fences(exchange.response):
        exchange.flags.append(TRUNCATED_FLAG)
        run.warn("%s output looked truncated; retrying once", role.value)
        exchange = run.complete(role, prompt)
        if has_unbalanced_fences(exchange.response):
            exchange.flags.append(TRUNCATED_FLAG)
            raise NoCodeInResponse(f"{role.value} output still looked truncated after a retry")
    response = exchange.response
    try:
        content, fenced, span = extract_code(response)
    except EmptyResponse:
        raise NoCodeInResponse(f"{role.value} returned a blank response") from None
    if not fenced:
        exchange.flags.append(NO_FENCE_FLAG)
    if not content or content.isspace():
        raise NoCodeInResponse(f"{role.value} response contained no code")
    if not content.isascii():  # an O(1) flag: ASCII code pays nothing
        try:
            content.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate from a JSON escape
            raise NoCodeInResponse(f"{role.value} code cannot be written as UTF-8: "
                                   f"{exc.reason} at {exc.start}") from None
    if span is not None:
        exchange.response_parts = [response[:span[0]], content, response[span[1]:]]
    return code.with_content(content), exchange


def plan_tasks(req: RequirementSpec, code: CodeDocument, run: Run) -> TaskPlan:
    """Ask the manager for a task list, then apply exactly one reflection pass.

    The reflection exchange sees the draft list and may reorder or
    rewrite it; its output becomes the released plan.  A reflection that
    yields no tasks falls back to the draft, and only when both
    exchanges yield nothing is the plan unparseable.
    """
    draft_prompt = render_template(
        run.templates["manager"],
        {"requirements": req.as_text(), "code": code.content},
    )
    draft_exchange = run.complete(AgentRole.MANAGER, draft_prompt)
    draft: TaskPlan | None = None
    try:
        draft = parse_task_list(draft_exchange.response)
    except UnparseableTaskList:
        run.warn("manager draft yielded no tasks; reflection sees the raw response")
    draft_text = serialize_task_plan(draft) if draft else draft_exchange.response.strip()
    reflection_prompt = render_template(
        run.templates["reflection"],
        {"requirements": req.as_text(), "task": draft_text},
    )
    reflection_exchange = run.complete(AgentRole.MANAGER, reflection_prompt)
    try:
        return parse_task_list(reflection_exchange.response)
    except UnparseableTaskList:
        if draft is None:
            raise UnparseableTaskList(
                "manager yielded zero tasks in both the draft and the reflection"
            ) from None
        return draft


def make_task_prompt(req: RequirementSpec, task: Task, code: CodeDocument, run: Run) -> str:
    """Have the prompt-maker write the detailed instruction for one task."""
    prompt = render_template(
        run.templates["prompt_maker"],
        {"requirements": req.as_text(), "task": task.description, "code": code.content},
    )
    exchange = run.complete(AgentRole.PROMPT_MAKER, prompt)
    instruction = exchange.response.strip()
    if not instruction:
        raise EmptyInstruction(f"prompt-maker returned nothing for task {task.index}")
    return instruction


def execute_task(instruction: str, code: CodeDocument, run: Run) -> CodeDocument:
    """Run the executor on the instruction plus the current code."""
    prompt = render_template(run.templates["executor"], {"task": instruction, "code": code.content})
    return _code_reply(run, AgentRole.EXECUTOR, prompt, code)[0]


def verify_task(req: RequirementSpec, task: Task, before: CodeDocument,
                after: CodeDocument, run: Run) -> Verdict:
    """Ask the verifier to compare the file before and after the task."""
    if before.path != after.path:
        raise ValueError("verify_task expects two versions of the same file")
    prompt = render_template(
        run.templates["verifier"],
        {
            "requirements": req.as_text(),
            "task": task.description,
            "code_before": before.content,
            "code_after": after.content,
        },
    )
    exchange = run.complete(AgentRole.VERIFIER, prompt)
    return parse_verdict(exchange.response)


def finalize_code(code: CodeDocument, changes: tuple[ChangeRequest, ...] | list[ChangeRequest],
                  run: Run) -> CodeDocument:
    """Have the finalizer apply the verifier's requested changes."""
    if not changes:
        raise EmptyChangeList("finalizer invoked with no change requests")
    prompt = render_template(
        run.templates["finalizer"],
        {
            "code": code.content,
            "changes": "\n".join(f"- {change.description}" for change in changes),
        },
    )
    return _code_reply(run, AgentRole.FINALIZER, prompt, code)[0]


def _verify_with_reask(req, task, before, after, run: Run) -> Verdict:
    """Verify, re-asking once on an unparseable verdict.

    A second unparseable answer is treated as a rejection with a generic
    change request, failing safe into the bounded feedback loop instead
    of aborting the run.
    """
    try:
        return verify_task(req, task, before, after, run)
    except UnparseableVerdict:
        run.warn("unparseable verdict for task %d; re-asking once", task.index)
    try:
        return verify_task(req, task, before, after, run)
    except UnparseableVerdict:
        run.warn("verdict still unparseable; treating as rejection")
        return Verdict(accepted=False, changes=(ChangeRequest(GENERIC_CHANGE),))


def updated_file_path(config: RunConfig, run_id: str, path: str) -> str:
    """Where run ``run_id`` writes its updated ``path``: a directory named after the run."""
    return join_path(config.output_dir, run_id, path)


def _record_run(req: RequirementSpec, code: CodeDocument, config: RunConfig,
                repetition: int, context: RunContext | None,
                steps: Callable[[Run], R]) -> R:
    """Record one run of ``steps`` over one file, write its updated file, persist its transcript.

    ``steps`` makes the method's calls and returns the result, whose ``to_json`` is the
    outcome record; without a ``context`` the run builds one from ``config``.  The updated
    file is written before the transcript says completed; the transcript's duration covers
    the calls, not that write.  Whatever happens, the transcript is persisted exactly once:
    an agent error marks it aborted and raises AbortedRun; a full disk marks it aborted
    without a failed task and propagates; any other exception (including KeyboardInterrupt)
    marks it aborted and propagates unchanged.  A ``code.path`` that ``make_run_id`` refuses
    (not inside its project, or not normal), or an osl run whose context holds no example
    pair, raises ConfigInvalid before any call.
    """
    try:
        run_id = make_run_id(code.path, config.method, config.model, config.temperature,
                             repetition)
    except ValueError:
        raise ConfigInvalid(f"file path {code.path!r} is not inside a project: its updated "
                            f"file would be written outside {config.output_dir}") from None
    context = context or RunContext.from_config(config)
    if config.method is Method.OSL and context.example is None:
        raise ConfigInvalid("a one-shot run needs an example pair; its run context has none")
    run = Run(context.new_gateway(), GenerationParams(temperature=config.temperature),
              context.templates, run_id,
              context.example if config.method is Method.OSL else None)  # zsl shows none
    inputs = {"requirement": to_json(req), "code": to_json(code), "repetition": repetition}
    if run.example is not None:
        inputs["example"] = list(run.example)
    transcript = RunTranscript(run_id=run.run_id, config=to_json(config, omit=UNRECORDED_CONFIG),
                               inputs=inputs, status="aborted")
    clock_start = time.perf_counter()
    steps_end = None
    try:
        result = steps(run)
        transcript.outcome = to_json(result, omit=("transcript_ref",))  # the run id names it
        steps_end = time.perf_counter()
        write_file(updated_file_path(config, run.run_id, result.final_code.path),
                   result.final_code.content)
        transcript.status = "completed"
        return result
    except StorageFull as exc:  # every task finished; its own exit code names the file
        transcript.outcome = {"error": str(exc)}
        raise
    except VapuError as exc:
        transcript.outcome = {"error": str(exc), "failed_task_index": run.task_index}
        raise AbortedRun(
            f"run {run.run_id} aborted at task {run.task_index}: {exc}",
            task_index=run.task_index,
            run_id=run.run_id,
        ) from exc
    except BaseException as exc:
        transcript.outcome = {"error": repr(exc), "failed_task_index": run.task_index}
        raise
    finally:
        transcript.exchanges = run.exchanges
        end = time.perf_counter() if steps_end is None else steps_end
        transcript.duration = end - clock_start
        persist_transcript(transcript, config.output_dir)


def run_update(req: RequirementSpec, code: CodeDocument, config: RunConfig,
               repetition: int = 1, context: RunContext | None = None) -> UpdateResult:
    """Execute the full pipeline over one file, write the updated file, persist the transcript.

    On budget exhaustion the last finalizer output is carried forward
    and the result is flagged unverified.  Any agent error persists the
    partial transcript and aborts with the failing task index.
    """
    def steps(run: Run) -> UpdateResult:
        plan = plan_tasks(req, code, run)
        logger.info("run %s: plan of %d task(s)", run.run_id, len(plan.tasks))
        current = code
        outcomes: list[TaskOutcome] = []
        for task in plan.tasks:
            run.task_index = task.index
            instruction = make_task_prompt(req, task, current, run)
            updated = execute_task(instruction, current, run)
            verdict = _verify_with_reask(req, task, current, updated, run)
            iterations = 0
            while not verdict.accepted and iterations < config.max_feedback_iterations:
                updated = finalize_code(updated, verdict.changes, run)
                iterations += 1
                verdict = _verify_with_reask(req, task, current, updated, run)
            if not verdict.accepted:
                run.warn("task %d left unverified after %d finalizer iteration(s)",
                         task.index, iterations)
            outcomes.append(TaskOutcome(
                task_index=task.index,
                accepted=verdict.accepted,
                finalizer_iterations=iterations,
            ))
            current = updated
        return UpdateResult(
            final_code=current,
            per_task_outcomes=tuple(outcomes),
            unverified=any(not o.accepted for o in outcomes),
            transcript_ref=run.run_id,
            truncated=run.truncation_seen(),
        )

    return _record_run(req, code, config, repetition, context, steps)


@dataclass
class BaselineResult:
    """Outcome of one single-prompt baseline run."""

    final_code: CodeDocument
    fenced: bool
    truncated: bool


def run_baseline(req: RequirementSpec, code: CodeDocument, config: RunConfig,
                 repetition: int = 1, context: RunContext | None = None) -> BaselineResult:
    """Execute one zero- or one-shot exchange over one file, write its result, persist it.

    A one-shot run shows the context's input/output pair (see
    :func:`load_example`); a zero-shot run never shows one.
    """
    if config.method is Method.VAPU:
        raise ValueError("run_baseline requires the zsl or osl method")

    def steps(run: Run) -> BaselineResult:
        prompt = build_baseline_prompt(req.as_text(), code, run.templates, run.example)
        updated, exchange = _code_reply(run, AgentRole.BASELINE, prompt, code)
        return BaselineResult(
            final_code=updated,
            fenced=NO_FENCE_FLAG not in exchange.flags,
            truncated=run.truncation_seen(),
        )

    return _record_run(req, code, config, repetition, context, steps)


def reexecute_transcript(transcript: RunTranscript, header: RunHeader,
                         output_dir: Path) -> tuple[str | None, str]:
    """Re-run a persisted run, read as ``header``, against its own recorded responses.

    Returns (recorded_content or None for a run that did not complete,
    replayed_content); equality is the caller's byte-identity check.  The
    responses and the example pair come from the transcript, not from files.
    """
    config = replace(header.config, output_dir=Path(output_dir))
    config.validate()
    cursors = defaultdict(itertools.count)  # the next index per role
    # Each reply as the parts it is held as, joined only when the gateway sends it.
    fixtures = {(e.role.value, next(cursors[e.role.value])): e.response_parts
                for e in transcript.exchanges}
    context = RunContext(load_templates(config.templates_dir),
                         lambda: ReplayGateway(fixtures, model_id=config.model), header.example)
    run = run_update if config.method is Method.VAPU else run_baseline
    result = run(header.requirement, header.code, config, repetition=header.repetition,
                 context=context)
    return header.final_code and header.final_code.content, result.final_code.content
