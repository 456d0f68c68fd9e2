from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import fenced, multi_task_fixtures, one_gateway, replay_config, write_fixtures
import vapu.pipeline
from vapu.errors import (
    AbortedRun,
    ConfigInvalid,
    EmptyChangeList,
    EmptyInstruction,
    NoCodeInResponse,
    UnparseableTaskList,
    UnparseableVerdict,
)
from vapu.gateway import GenerationParams, ReplayGateway, load_replay_fixtures
from vapu.models import AgentRole, ChangeRequest, CodeDocument, Task
from vapu.pipeline import (
    Run,
    RunContext,
    execute_task,
    finalize_code,
    load_example,
    make_task_prompt,
    plan_tasks,
    reexecute_transcript,
    run_baseline,
    run_update,
    verify_task,
)
from vapu.prompts import default_templates
from vapu.workspace import Method, load_transcript, make_run_id, read_header

PARAMS = GenerationParams(temperature=0.0)


def transcript_path(config, doc: CodeDocument, repetition: int = 1) -> Path:
    """Where the run of ``doc`` under ``config`` persists its transcript."""
    run_id = make_run_id(doc.path, config.method, config.model, config.temperature, repetition)
    return Path(config.output_dir) / f"{run_id}.jsonl"


def gateway_for(tmp_path: Path, entries: dict[str, str], name: str = "fx") -> Run:
    directory = write_fixtures(tmp_path / name, entries)
    return Run(ReplayGateway(load_replay_fixtures(directory)), PARAMS, default_templates(), "r1")


# --- plan_tasks ---

def test_plan_tasks_from_fixtures(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {
        "manager-0": "1. Update data access\n2. Update form helpers",
        "manager-1": "1. Update data access\n2. Update form helpers",
    })
    plan = plan_tasks(sample_req, sample_doc, gateway)
    assert [t.description for t in plan.tasks] == ["Update data access", "Update form helpers"]


def test_reflection_reorders_draft(tmp_path, sample_req, sample_doc) -> None:
    # Draft lists the steps out of order; the reflection pass fixes them.
    gateway = gateway_for(tmp_path, {
        "manager-0": "2. second step\n1. first step",
        "manager-1": "1. first step\n2. second step",
    })
    plan = plan_tasks(sample_req, sample_doc, gateway)
    assert [t.description for t in plan.tasks] == ["first step", "second step"]


def test_reflection_prompt_embeds_draft(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {
        "manager-0": "1. alpha\n2. beta",
        "manager-1": "1. alpha\n2. beta",
    })
    plan_tasks(sample_req, sample_doc, gateway)
    reflection = gateway.exchanges[1]
    assert "1. alpha" in reflection.prompt and "2. beta" in reflection.prompt


def test_unparseable_reflection_falls_back_to_draft(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {
        "manager-0": "1. only task",
        "manager-1": "sounds good to me",
    })
    plan = plan_tasks(sample_req, sample_doc, gateway)
    assert [t.description for t in plan.tasks] == ["only task"]


def test_zero_tasks_after_both_exchanges(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {
        "manager-0": "cannot help",
        "manager-1": "still cannot help",
    })
    with pytest.raises(UnparseableTaskList):
        plan_tasks(sample_req, sample_doc, gateway)


def test_single_task_plans_are_permitted(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {"manager-0": "1. all in one", "manager-1": "1. all in one"})
    assert len(plan_tasks(sample_req, sample_doc, gateway).tasks) == 1


# --- make_task_prompt ---

def test_make_task_prompt_returns_fixture_text(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {
        "prompt_maker-0": "Replace $variant['Variant'] access with entity getters",
    })
    out = make_task_prompt(sample_req, Task(1, "update access"), sample_doc, gateway)
    assert out == "Replace $variant['Variant'] access with entity getters"


def test_make_task_prompt_blank_response(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {"prompt_maker-0": "   "})
    with pytest.raises(EmptyInstruction):
        make_task_prompt(sample_req, Task(1, "t"), sample_doc, gateway)


def test_two_tasks_get_distinct_prompts_in_fixture_order(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {
        "prompt_maker-0": "first instruction",
        "prompt_maker-1": "second instruction",
    })
    first = make_task_prompt(sample_req, Task(1, "a"), sample_doc, gateway)
    second = make_task_prompt(sample_req, Task(2, "b"), sample_doc, gateway)
    assert (first, second) == ("first instruction", "second instruction")


# --- execute_task ---

def instruction() -> str:
    return "do the update"


def test_execute_task_extracts_fenced_code(tmp_path, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {"executor-0": "done:\n```\necho 1;\n```"})
    updated = execute_task(instruction(), sample_doc, gateway)
    assert updated.content == "echo 1;"
    assert updated.path == sample_doc.path
    assert updated.language_tag == sample_doc.language_tag


def test_execute_task_prose_flags_no_fence(tmp_path, sample_doc) -> None:
    recorder = gateway_for(tmp_path, {"executor-0": "  bare statement  "})
    updated = execute_task(instruction(), sample_doc, recorder)
    assert updated.content == "bare statement"
    assert "no_fence" in recorder.exchanges[-1].flags


def test_execute_task_concatenates_two_blocks(tmp_path, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {"executor-0": "```\na\n```\nand\n```\nb\n```"})
    assert execute_task(instruction(), sample_doc, gateway).content == "a\n\nb"


def test_execute_task_blank_response(tmp_path, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {"executor-0": ""})
    with pytest.raises(NoCodeInResponse):
        execute_task(instruction(), sample_doc, gateway)


def test_execute_task_retries_truncated_output(tmp_path, sample_doc) -> None:
    recorder = gateway_for(tmp_path, {
        "executor-0": "```php\ncut off mid-file",
        "executor-1": fenced("echo 'complete';"),
    })
    updated = execute_task(instruction(), sample_doc, recorder)
    assert updated.content == "echo 'complete';"
    assert "truncated" in recorder.exchanges[0].flags
    assert len(recorder.exchanges) == 2


# --- verify_task ---

def test_verify_accept(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {"verifier-0": "ACCEPT"})
    verdict = verify_task(sample_req, Task(1, "t"), sample_doc,
                          sample_doc.with_content("new"), gateway)
    assert verdict.accepted


def test_verify_reject(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {"verifier-0": "REJECT:\n- restore URL helper"})
    verdict = verify_task(sample_req, Task(1, "t"), sample_doc,
                          sample_doc.with_content("new"), gateway)
    assert not verdict.accepted and len(verdict.changes) == 1


def test_verify_unparseable_raises(tmp_path, sample_req, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {"verifier-0": "maybe"})
    with pytest.raises(UnparseableVerdict):
        verify_task(sample_req, Task(1, "t"), sample_doc,
                    sample_doc.with_content("new"), gateway)


def test_verify_requires_same_path(tmp_path, sample_req, sample_doc) -> None:
    other = sample_doc.with_content("x")
    other.path = "elsewhere.php"
    with pytest.raises(ValueError):
        verify_task(sample_req, Task(1, "t"), sample_doc, other, None)


# --- finalize_code ---

def test_finalize_returns_corrected_code(tmp_path, sample_doc) -> None:
    gateway = gateway_for(tmp_path, {"finalizer-0": fenced("echo 'fixed';")})
    updated = finalize_code(sample_doc, [ChangeRequest("restore helper")], gateway)
    assert updated.content == "echo 'fixed';"


def test_finalize_rejects_empty_change_list(tmp_path, sample_doc) -> None:
    with pytest.raises(EmptyChangeList):
        finalize_code(sample_doc, [], None)


def test_finalizer_prompt_lists_changes(tmp_path, sample_doc) -> None:
    recorder = gateway_for(tmp_path, {"finalizer-0": fenced("x")})
    finalize_code(sample_doc, [ChangeRequest("fix a"), ChangeRequest("fix b")],
                  recorder)
    prompt = recorder.exchanges[0].prompt
    assert "- fix a" in prompt and "- fix b" in prompt


# --- run_update ---

def exchanges_of(config, run_id: str):
    return load_transcript(Path(config.output_dir) / f"{run_id}.jsonl").exchanges


def test_all_accept_run_never_invokes_finalizer(tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=3, verifier_responses=["ACCEPT"] * 3, finalizer_count=0))
    config = replay_config(tmp_path / "out", fixtures)
    result = run_update(sample_req, sample_doc, config)
    assert not result.unverified
    assert all(o.finalizer_iterations == 0 for o in result.per_task_outcomes)
    roles = [e.role for e in exchanges_of(config, result.transcript_ref)]
    assert AgentRole.FINALIZER not in roles
    # final code is the last executor output, untouched
    assert result.final_code.content == "echo 'executed 3';"


def test_reject_once_then_accept(tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=1,
        verifier_responses=["REJECT:\n- not quite", "ACCEPT"],
        finalizer_count=1))
    config = replay_config(tmp_path / "out", fixtures)
    result = run_update(sample_req, sample_doc, config)
    outcome = result.per_task_outcomes[0]
    assert outcome.accepted and outcome.finalizer_iterations == 1
    assert not result.unverified
    assert result.final_code.content == "echo 'finalized 0';"


def test_always_reject_exhausts_budget_and_carries_last_output(
        tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=1, verifier_responses=["REJECT:\n- still wrong"] * 3, finalizer_count=2))
    config = replay_config(tmp_path / "out", fixtures)
    result = run_update(sample_req, sample_doc, config)
    outcome = result.per_task_outcomes[0]
    assert not outcome.accepted
    assert outcome.finalizer_iterations == 2
    assert result.unverified
    assert result.final_code.content == "echo 'finalized 1';"


def test_unparseable_verdict_reasked_then_accepted(tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=1, verifier_responses=["maybe", "ACCEPT"], finalizer_count=0))
    config = replay_config(tmp_path / "out", fixtures)
    result = run_update(sample_req, sample_doc, config)
    assert result.per_task_outcomes[0].accepted
    roles = [e.role for e in exchanges_of(config, result.transcript_ref)]
    assert roles.count(AgentRole.VERIFIER) == 2


def test_persistently_unparseable_verdict_fails_safe_into_loop(
        tmp_path, sample_req, sample_doc) -> None:
    # Two unparseable answers become a generic rejection; the loop then
    # runs the finalizer and the next verdicts accept.
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=1, verifier_responses=["maybe", "hmm", "ACCEPT"], finalizer_count=1))
    config = replay_config(tmp_path / "out", fixtures)
    result = run_update(sample_req, sample_doc, config)
    outcome = result.per_task_outcomes[0]
    assert outcome.accepted and outcome.finalizer_iterations == 1


def test_missing_fixture_aborts_with_task_index(tmp_path, sample_req, sample_doc) -> None:
    entries = multi_task_fixtures(tasks=2, verifier_responses=["ACCEPT"], finalizer_count=0)
    del entries["executor-1"]  # second task's executor response is missing
    fixtures = write_fixtures(tmp_path / "fx", entries)
    config = replay_config(tmp_path / "out", fixtures)
    with pytest.raises(AbortedRun) as excinfo:
        run_update(sample_req, sample_doc, config)
    assert excinfo.value.task_index == 2
    transcript = load_transcript(
        Path(config.output_dir) / f"{excinfo.value.run_id}.jsonl")
    assert transcript.status == "aborted"
    assert transcript.outcome["failed_task_index"] == 2
    assert len(transcript.exchanges) > 0


def test_planning_failure_aborts_with_index_zero(tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", {"manager-0": "nope", "manager-1": "nope"})
    config = replay_config(tmp_path / "out", fixtures)
    with pytest.raises(AbortedRun) as excinfo:
        run_update(sample_req, sample_doc, config)
    assert excinfo.value.task_index == 0


class CrashingGateway(ReplayGateway):
    """Replays fixtures, but its second call fails with a non-vapu exception."""

    def __init__(self, fixtures, error: BaseException):
        super().__init__(fixtures)
        self.error = error
        self.calls = 0

    def _send(self, role, prompt, params):
        self.calls += 1
        if self.calls == 2:
            raise self.error
        return super()._send(role, prompt, params)


@pytest.mark.parametrize("error", [RuntimeError("client crashed"), KeyboardInterrupt()])
def test_unexpected_exception_persists_transcript_and_propagates(
        tmp_path, sample_req, sample_doc, error) -> None:
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=1, verifier_responses=["ACCEPT"], finalizer_count=0))
    config = replay_config(tmp_path / "out", fixtures)
    gateway = CrashingGateway(load_replay_fixtures(fixtures), error)
    with pytest.raises(type(error)) as excinfo:
        run_update(sample_req, sample_doc, config, context=one_gateway(gateway))
    assert excinfo.value is error  # re-raised as is, not wrapped in AbortedRun
    [path] = Path(config.output_dir).glob("*.jsonl")
    transcript = load_transcript(path)
    assert transcript.status == "aborted"
    assert transcript.outcome["failed_task_index"] == 0
    assert [e.role for e in transcript.exchanges] == [AgentRole.MANAGER]


def test_truncated_executor_output_marks_run(tmp_path, sample_req, sample_doc) -> None:
    entries = multi_task_fixtures(tasks=1, verifier_responses=["ACCEPT"], finalizer_count=0)
    entries["executor-0"] = "```php\ncut off"
    entries["executor-1"] = fenced("echo 'recovered';")
    fixtures = write_fixtures(tmp_path / "fx", entries)
    config = replay_config(tmp_path / "out", fixtures)
    result = run_update(sample_req, sample_doc, config)
    assert result.truncated
    assert result.final_code.content == "echo 'recovered';"


@pytest.mark.parametrize("method, role", [(Method.VAPU, "executor"), (Method.ZSL, "baseline")])
def test_code_reply_still_truncated_after_its_retry_aborts_the_run(
        tmp_path, sample_req, sample_doc, method, role) -> None:
    cut_off = "Here:\n```php\n<?php echo 1;\n"
    if method is Method.VAPU:
        entries = multi_task_fixtures(tasks=1, verifier_responses=["ACCEPT"], finalizer_count=0)
    else:
        entries = {}
    entries[f"{role}-0"] = entries[f"{role}-1"] = cut_off
    fixtures = write_fixtures(tmp_path / "fx", entries)
    config = replay_config(tmp_path / "out", fixtures, method=method)
    run = run_update if method is Method.VAPU else run_baseline
    task_index = 1 if method is Method.VAPU else 0
    with pytest.raises(AbortedRun) as excinfo:
        run(sample_req, sample_doc, config)
    assert excinfo.value.task_index == task_index
    transcript = load_transcript(
        Path(config.output_dir) / f"{excinfo.value.run_id}.jsonl")
    assert transcript.status == "aborted"
    assert transcript.outcome["failed_task_index"] == task_index
    assert "final_code" not in transcript.outcome
    replies = [e for e in transcript.exchanges if e.role.value == role]
    assert [e.response for e in replies] == [cut_off, cut_off]
    assert [e.flags for e in replies] == [["truncated"], ["truncated"]]


def test_code_utf8_cannot_encode_aborts_the_run(tmp_path, sample_req, sample_doc) -> None:
    entries = multi_task_fixtures(tasks=1, verifier_responses=["ACCEPT"], finalizer_count=0)
    entries["executor-0"] = fenced("echo '\ud800';")  # a JSON "\ud800" escape, decoded
    fixtures = {(stem.rpartition("-")[0], int(stem.rpartition("-")[2])): text
                for stem, text in entries.items()}
    config = replay_config(tmp_path / "out", tmp_path / "fx")
    with pytest.raises(AbortedRun, match="UTF-8") as excinfo:
        run_update(sample_req, sample_doc, config, context=one_gateway(ReplayGateway(fixtures)))
    assert excinfo.value.task_index == 1
    assert isinstance(excinfo.value.__cause__, NoCodeInResponse)
    transcript = load_transcript(Path(config.output_dir) / f"{excinfo.value.run_id}.jsonl")
    assert transcript.status == "aborted"
    assert transcript.exchanges[-1].response == entries["executor-0"]


def test_code_reply_of_only_blanks_in_its_fence_aborts_the_run(
        tmp_path, sample_req, sample_doc) -> None:
    entries = multi_task_fixtures(tasks=1, verifier_responses=["ACCEPT"], finalizer_count=0)
    entries["executor-0"] = fenced("  \t  ")
    config = replay_config(tmp_path / "out", write_fixtures(tmp_path / "fx", entries))
    with pytest.raises(AbortedRun, match="executor response contained no code") as excinfo:
        run_update(sample_req, sample_doc, config)
    assert excinfo.value.exit_code == 9 and excinfo.value.task_index == 1
    assert isinstance(excinfo.value.__cause__, NoCodeInResponse)
    transcript = load_transcript(Path(config.output_dir) / f"{excinfo.value.run_id}.jsonl")
    assert transcript.status == "aborted"
    assert transcript.outcome["failed_task_index"] == 1
    assert transcript.exchanges[-1].response == entries["executor-0"]


def test_replay_runs_are_deterministic(tmp_path, sample_req, sample_doc) -> None:
    entries = multi_task_fixtures(
        tasks=2, verifier_responses=["REJECT:\n- more", "ACCEPT", "ACCEPT"], finalizer_count=1)
    first = run_update(sample_req, sample_doc,
                       replay_config(tmp_path / "out1", write_fixtures(tmp_path / "fx1", entries)))
    second = run_update(sample_req, sample_doc,
                        replay_config(tmp_path / "out2", write_fixtures(tmp_path / "fx2", entries)))
    assert first.final_code.content == second.final_code.content
    assert first.per_task_outcomes == second.per_task_outcomes


def test_transcript_exchange_order_is_strict(tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=3, verifier_responses=["ACCEPT"] * 3, finalizer_count=0))
    config = replay_config(tmp_path / "out", fixtures)
    result = run_update(sample_req, sample_doc, config)
    exchanges = exchanges_of(config, result.transcript_ref)
    stamps = [e.started_at for e in exchanges]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


def test_tasks_execute_once_each_in_order(tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=3, verifier_responses=["ACCEPT"] * 3, finalizer_count=0))
    config = replay_config(tmp_path / "out", fixtures)
    result = run_update(sample_req, sample_doc, config)
    assert [o.task_index for o in result.per_task_outcomes] == [1, 2, 3]
    prompts = [e.prompt for e in exchanges_of(config, result.transcript_ref)
               if e.role is AgentRole.PROMPT_MAKER]
    assert ["task number 1" in p for p in prompts] == [True, False, False]


def test_a_runs_exchanges_hold_each_version_of_its_file_as_the_runs_own_str(
        tmp_path, monkeypatch, sample_req, sample_doc) -> None:
    kept = []
    monkeypatch.setattr(vapu.pipeline, "persist_transcript",
                        lambda transcript, directory: kept.append(transcript))
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=1, verifier_responses=["REJECT:\n- more", "ACCEPT"], finalizer_count=1))
    result = run_update(sample_req, sample_doc, replay_config(tmp_path / "out", fixtures))
    [transcript] = kept
    by_role = {role: [e for e in transcript.exchanges if e.role is role] for role in AgentRole}
    [executor], [finalizer] = by_role[AgentRole.EXECUTOR], by_role[AgentRole.FINALIZER]
    first_check, second_check = by_role[AgentRole.VERIFIER]

    def holds(parts: list[str], text: str) -> bool:
        return any(part is text for part in parts)

    # A code reply holds its code between the text around it, not the whole reply.
    executed, finalized = executor.response_parts[1], finalizer.response_parts[1]
    assert len(executor.response_parts) == len(finalizer.response_parts) == 3
    # Each verifier prompt holds the file before and after the task as the run's objects.
    assert holds(executor.prompt_parts, sample_doc.content)
    assert holds(first_check.prompt_parts, sample_doc.content)
    assert holds(first_check.prompt_parts, executed)
    assert holds(finalizer.prompt_parts, executed)
    assert holds(second_check.prompt_parts, sample_doc.content)
    assert holds(second_check.prompt_parts, finalized)
    assert result.final_code.content is finalized


# --- run_baseline ---

def test_zsl_baseline_run(tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", {"baseline-0": fenced("echo 'zsl';")})
    config = replay_config(tmp_path / "out", fixtures, method=Method.ZSL)
    result = run_baseline(sample_req, sample_doc, config)
    assert result.final_code.content == "echo 'zsl';"
    assert result.fenced and not result.truncated
    transcript = load_transcript(transcript_path(config, sample_doc))
    assert [e.role for e in transcript.exchanges] == [AgentRole.BASELINE]


def test_osl_baseline_embeds_one_example(tmp_path, sample_req, sample_doc) -> None:
    example_path = tmp_path / "example.json"
    example_path.write_text(json.dumps({"input": "old()", "output": "new()"}), encoding="utf-8")
    fixtures = write_fixtures(tmp_path / "fx", {"baseline-0": fenced("echo 'osl';")})
    config = replay_config(tmp_path / "out", fixtures,
                           method=Method.OSL, example_path=example_path)
    run_baseline(sample_req, sample_doc, config, context=RunContext.from_config(config))
    transcript = load_transcript(transcript_path(config, sample_doc))
    prompt = transcript.exchanges[0].prompt
    assert prompt.count("Example input:") == 1
    assert "old()" in prompt and "new()" in prompt


def test_zsl_baseline_shows_no_example_even_when_passed_one(
        tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", {"baseline-0": fenced("echo 'zsl';")})
    config = replay_config(tmp_path / "out", fixtures, method=Method.ZSL)
    context = replace(RunContext.from_config(config), example=("old()", "new()"))
    run_baseline(sample_req, sample_doc, config, context=context)
    transcript = load_transcript(transcript_path(config, sample_doc))
    assert "Example" not in transcript.exchanges[0].prompt


@pytest.mark.parametrize("entries", [{"baseline-0": "   "}, {}], ids=["blank", "missing"])
def test_failed_baseline_aborts_and_keeps_transcript(tmp_path, sample_req, sample_doc,
                                                     entries) -> None:
    fixtures = write_fixtures(tmp_path / "fx", entries)
    config = replay_config(tmp_path / "out", fixtures, method=Method.ZSL)
    with pytest.raises(AbortedRun) as excinfo:
        run_baseline(sample_req, sample_doc, config)
    assert excinfo.value.task_index == 0
    transcript = load_transcript(
        Path(config.output_dir) / f"{excinfo.value.run_id}.jsonl")
    assert transcript.status == "aborted"
    assert transcript.outcome["failed_task_index"] == 0
    assert len(transcript.exchanges) == len(entries)


def test_baseline_refuses_pipeline_method(tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", {"baseline-0": "x"})
    config = replay_config(tmp_path / "out", fixtures)  # method defaults to vapu
    with pytest.raises(ValueError):
        run_baseline(sample_req, sample_doc, config)


@pytest.mark.parametrize("code_path", ["ABSOLUTE", "../../escaped.php", "", "a//b.php"])
def test_a_code_path_outside_its_project_is_refused_before_any_call(
        tmp_path, sample_req, code_path) -> None:
    fixtures = write_fixtures(tmp_path / "fx", {"baseline-0": fenced("echo 'b';")})
    config = replay_config(tmp_path / "out", fixtures, method=Method.ZSL)
    if code_path == "ABSOLUTE":
        code_path = str(tmp_path / "escaped.php")
    document = CodeDocument(path=code_path, language_tag="php", content="<?php ?>\n")
    with pytest.raises(ConfigInvalid, match="not inside a project"):
        run_baseline(sample_req, document, config)
    assert not (tmp_path / "out").exists() and not (tmp_path / "escaped.php").exists()


# --- transcript re-execution ---

def test_reexecute_reproduces_update(tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=2, verifier_responses=["REJECT:\n- nope", "ACCEPT", "ACCEPT"], finalizer_count=1))
    config = replay_config(tmp_path / "out", fixtures)
    result = run_update(sample_req, sample_doc, config)
    path = Path(config.output_dir) / f"{result.transcript_ref}.jsonl"
    transcript = load_transcript(path)
    recorded, replayed = reexecute_transcript(transcript, read_header(transcript, path),
                                              tmp_path / "scratch")
    assert recorded == replayed


def test_reexecute_reproduces_baseline(tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", {"baseline-0": fenced("echo 'b';")})
    config = replay_config(tmp_path / "out", fixtures, method=Method.ZSL)
    run_baseline(sample_req, sample_doc, config)
    path = transcript_path(config, sample_doc)
    transcript = load_transcript(path)
    recorded, replayed = reexecute_transcript(transcript, read_header(transcript, path),
                                              tmp_path / "scratch")
    assert recorded == replayed


def test_reexecute_serves_each_recorded_reply_from_its_parts(tmp_path, monkeypatch,
                                                            sample_req, sample_doc) -> None:
    """The replay's fixtures are the loaded exchanges' parts, joined only as they are
    sent, so no joined copy of a split code reply outlives its call."""
    fixtures = write_fixtures(tmp_path / "fx", multi_task_fixtures(
        tasks=2, verifier_responses=["REJECT:\n- nope", "ACCEPT", "ACCEPT"], finalizer_count=1))
    config = replay_config(tmp_path / "out", fixtures)
    result = run_update(sample_req, sample_doc, config)
    path = Path(config.output_dir) / f"{result.transcript_ref}.jsonl"
    transcript = load_transcript(path)
    gateways = []

    class Keeping(ReplayGateway):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            gateways.append(self)

    monkeypatch.setattr(vapu.pipeline, "ReplayGateway", Keeping)
    recorded, replayed = reexecute_transcript(transcript, read_header(transcript, path),
                                              tmp_path / "scratch")
    assert recorded == replayed
    [gateway] = gateways
    served = list(gateway.fixtures.values())
    assert len(served) == len(transcript.exchanges)
    for parts, exchange in zip(served, transcript.exchanges):
        assert parts is exchange.response_parts  # no joined copy is held
    assert any(len(parts) > 1 for parts in served)  # the code replies are split


@pytest.mark.parametrize("asset", [None, "[]", json.dumps({"output": "new()"})])
def test_a_bad_example_asset_is_a_config_error(tmp_path, asset) -> None:
    example_path = tmp_path / "example.json"
    if asset is not None:
        example_path.write_text(asset, encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="example"):
        load_example(example_path)


def test_osl_baseline_without_its_pair_is_refused_before_any_call(
        tmp_path, sample_req, sample_doc) -> None:
    fixtures = write_fixtures(tmp_path / "fx", {"baseline-0": fenced("echo 'x';")})
    config = replay_config(tmp_path / "out", fixtures,
                           method=Method.OSL, example_path=tmp_path / "example.json")
    with pytest.raises(ConfigInvalid, match="example asset") as excinfo:
        run_baseline(sample_req, sample_doc, config)
    assert str(tmp_path / "example.json") in str(excinfo.value)
    # A run that made a call would have persisted its transcript under out/.
    assert not (tmp_path / "out").exists()


def test_osl_baseline_whose_context_has_no_pair_is_refused_before_any_call(
        tmp_path, sample_req, sample_doc) -> None:
    example_path = tmp_path / "example.json"
    example_path.write_text(json.dumps({"input": "old()", "output": "new()"}), encoding="utf-8")
    fixtures = write_fixtures(tmp_path / "fx", {"baseline-0": fenced("echo 'x';")})
    config = replay_config(tmp_path / "out", fixtures,
                           method=Method.OSL, example_path=example_path)
    # A context built by hand, not by from_config, so it holds no pair.
    context = RunContext(default_templates(), lambda: pytest.fail("a gateway was made"))
    with pytest.raises(ConfigInvalid, match="one-shot run needs an example pair"):
        run_baseline(sample_req, sample_doc, config, context=context)
    assert not (tmp_path / "out").exists()
