from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from vapu.errors import (
    ConfigInvalid,
    EmptyResponse,
    ExampleForbidden,
    ExampleMissing,
    MissingBinding,
    UnknownPlaceholder,
    UnparseableTaskList,
    UnparseableVerdict,
)
from vapu.models import AgentRole, ChangeRequest, TaskPlan, Verdict
from vapu.prompts import (
    PLACEHOLDERS,
    BaselineKind,
    BaselineMode,
    PromptTemplate,
    build_baseline_prompt,
    default_templates,
    extract_code,
    has_unbalanced_fences,
    load_templates,
    parse_agent_output,
    parse_task_list,
    parse_template_file,
    parse_verdict,
    render_template,
    serialize_task_plan,
    serialize_verdict,
)


def template(body: str, role: AgentRole = AgentRole.EXECUTOR) -> PromptTemplate:
    return PromptTemplate(template_id="t", role=role, body=body)


# --- rendering ---

def test_render_substitutes_all_placeholders() -> None:
    tpl = template("Do {{task}} on:\n{{code}}")
    out = render_template(tpl, {"task": "rename", "code": "x = 1"})
    assert out.text == "Do rename on:\nx = 1"
    assert out.origin == "t"


def test_render_missing_binding_names_placeholder() -> None:
    tpl = template("Do {{task}} on:\n{{code}}")
    with pytest.raises(MissingBinding, match="code"):
        render_template(tpl, {"task": "rename"})


def test_render_rejects_undocumented_binding() -> None:
    tpl = template("{{task}}")
    with pytest.raises(UnknownPlaceholder):
        render_template(tpl, {"task": "x", "bogus": "y"})


def test_template_rejects_undocumented_placeholder() -> None:
    with pytest.raises(UnknownPlaceholder):
        template("{{nonsense}}")


def test_render_is_single_pass() -> None:
    tpl = template("run {{task}} now")
    out = render_template(tpl, {"task": "literal {{code}} stays"})
    assert out.text == "run literal {{code}} stays now"


@given(
    task=st.text(min_size=1).filter(lambda s: "{" not in s and s.strip()),
    code=st.text(min_size=1).filter(lambda s: "{" not in s and s.strip()),
)
def test_render_never_leaves_placeholder_markers(task: str, code: str) -> None:
    tpl = template("{{task}}\n{{code}}")
    out = render_template(tpl, {"task": task, "code": code})
    assert "{{" not in out.text


# --- code extraction ---

def test_extract_single_fence() -> None:
    assert extract_code("here:\n```\necho 1;\n```") == ("echo 1;", True)


def test_extract_fence_with_language_tag() -> None:
    assert extract_code("```php\n<?php ?>\n```") == ("<?php ?>", True)


def test_extract_prose_falls_back_to_whole_response() -> None:
    assert extract_code("  just prose, no code  ") == ("just prose, no code", False)


def test_extract_concatenates_blocks_with_blank_line() -> None:
    assert extract_code("```\na\n```\nmiddle\n```\nb\n```") == ("a\n\nb", True)


def test_extract_blank_response_rejected() -> None:
    with pytest.raises(EmptyResponse):
        extract_code("   \n  ")


@given(st.text(min_size=1).filter(lambda s: s.strip() and "```" not in s))
def test_extract_is_idempotent_on_bare_code(code: str) -> None:
    once, fenced = extract_code(code)
    assert not fenced
    again, _ = extract_code(once)
    assert again == once


def test_unbalanced_fence_detection() -> None:
    assert has_unbalanced_fences("```php\ntruncated output")
    assert not has_unbalanced_fences("```php\nok\n```")
    assert not has_unbalanced_fences("no fences at all")


# The implementations the linear scans replaced, kept as oracles: the
# scans must agree with them on every input.
ORACLE_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def oracle_extract_code(response: str) -> tuple[str, bool]:
    if not response.strip():
        raise EmptyResponse("cannot extract code from a blank response")
    blocks = ORACLE_FENCE_RE.findall(response)
    if blocks:
        return "\n\n".join(block.strip("\r\n") for block in blocks), True
    return response.strip(), False


def oracle_has_unbalanced_fences(response: str) -> bool:
    markers = sum(1 for line in response.splitlines() if line.lstrip().startswith("```"))
    return markers % 2 == 1


def outcome(fn, text: str):
    try:
        return fn(text)
    except EmptyResponse:
        return EmptyResponse


# Fences of 3-6 backticks, every line boundary str.splitlines knows, inline
# whitespace that is not a boundary (\x1f, \xa0, \u3000) and a little code.
FENCE_PIECES = [
    "`", "```", "````", "`````", "``````", "```php", "\n", "\r\n", "\r", "\x0b", "\x0c",
    "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029", "\u3000", "\xa0",
    " ", "\t", "x", "<?php ?>",
]
fence_texts = st.lists(
    st.sampled_from(FENCE_PIECES), max_size=30,
).map("".join)
FENCE_EXAMPLES = [
    "```php\r\necho 1;\r\n```\r\n",
    "``````\nx\n````\n```\ny",
    "```no newline after the fence```",
    "prose\n```php\nunclosed",
    " \u3000\xa0```\n\x1f```\x85\t```\u2028```",
    "a\x0b```\x0c\x1c```\x1d\x1e```",
]


def assert_matches_oracles(text: str) -> None:
    assert outcome(extract_code, text) == outcome(oracle_extract_code, text)
    assert has_unbalanced_fences(text) == oracle_has_unbalanced_fences(text)


@pytest.mark.parametrize("text", FENCE_EXAMPLES)
def test_fence_scans_match_oracles_on_edge_cases(text: str) -> None:
    assert_matches_oracles(text)


@settings(max_examples=400)
@given(fence_texts)
def test_fence_scans_match_oracles(text: str) -> None:
    assert_matches_oracles(text)


# --- baseline prompts ---

def test_zsl_prompt_has_request_then_code_and_no_example(sample_doc) -> None:
    mode = BaselineMode(kind=BaselineKind.ZSL)
    out = build_baseline_prompt(mode, "update to version 4.5", sample_doc)
    assert "update to version 4.5" in out.text
    assert sample_doc.content.strip() in out.text
    assert "Example" not in out.text
    assert out.text.index("update to version 4.5") < out.text.index("foreach")


def test_osl_prompt_has_exactly_one_example_section(sample_doc) -> None:
    mode = BaselineMode(kind=BaselineKind.OSL, example=("old()", "new()"))
    out = build_baseline_prompt(mode, "update", sample_doc)
    assert out.text.count("Example input:") == 1
    assert out.text.count("Example output:") == 1
    assert "old()" in out.text and "new()" in out.text


def test_zsl_with_example_is_forbidden() -> None:
    with pytest.raises(ExampleForbidden):
        BaselineMode(kind=BaselineKind.ZSL, example=("a", "b"))


def test_osl_without_example_is_missing() -> None:
    with pytest.raises(ExampleMissing):
        BaselineMode(kind=BaselineKind.OSL)


# --- task list parsing ---

def test_parse_numbered_task_list() -> None:
    plan = parse_task_list("1. Update data access\n2. Update form helpers")
    assert [t.description for t in plan.tasks] == ["Update data access", "Update form helpers"]
    assert [t.index for t in plan.tasks] == [1, 2]


def test_parse_bulleted_task_list() -> None:
    plan = parse_task_list("- first\n* second")
    assert [t.description for t in plan.tasks] == ["first", "second"]


def test_listed_order_wins_over_printed_numbers() -> None:
    plan = parse_task_list("2. restore helpers\n1. update access")
    assert [t.description for t in plan.tasks] == ["restore helpers", "update access"]


def test_parse_task_list_ignores_prose_lines() -> None:
    plan = parse_task_list("Here is the plan:\n1. only task\nThat is all.")
    assert len(plan.tasks) == 1


def test_parse_task_list_empty_is_unparseable() -> None:
    with pytest.raises(UnparseableTaskList):
        parse_task_list("no list here, sorry")


# --- verdict parsing ---

def test_parse_accept() -> None:
    verdict = parse_verdict("ACCEPT")
    assert verdict.accepted and verdict.changes == ()


def test_parse_reject_with_bullets() -> None:
    verdict = parse_verdict("REJECT:\n- restore URL helper")
    assert not verdict.accepted
    assert len(verdict.changes) == 1
    assert verdict.changes[0].description == "restore URL helper"


def test_parse_reject_two_bullets() -> None:
    verdict = parse_verdict("REJECT:\n- fix x\n- fix y")
    assert len(verdict.changes) == 2


def test_parse_unparseable_verdict() -> None:
    with pytest.raises(UnparseableVerdict):
        parse_verdict("maybe")


def test_accept_takes_precedence_over_stray_bullets() -> None:
    verdict = parse_verdict("ACCEPT\n- stray bullet")
    assert verdict.accepted and verdict.changes == ()


def test_reject_with_prose_becomes_single_change() -> None:
    verdict = parse_verdict("REJECT: the URL helper was removed")
    assert not verdict.accepted
    assert len(verdict.changes) == 1
    assert "URL helper" in verdict.changes[0].description


def test_bare_reject_is_unparseable() -> None:
    with pytest.raises(UnparseableVerdict):
        parse_verdict("REJECT")


def test_parse_agent_output_dispatch() -> None:
    assert isinstance(parse_agent_output(AgentRole.MANAGER, "1. A"), TaskPlan)
    assert isinstance(parse_agent_output(AgentRole.VERIFIER, "ACCEPT"), Verdict)
    with pytest.raises(ValueError):
        parse_agent_output(AgentRole.EXECUTOR, "whatever")


# --- wire-format round trips ---

descriptions = st.lists(
    st.text(min_size=1, max_size=60).map(lambda s: " ".join(s.split())).filter(bool),
    min_size=1,
    max_size=8,
)


@given(descriptions)
def test_task_plan_round_trip(items: list[str]) -> None:
    plan = TaskPlan.from_descriptions(items)
    assert parse_agent_output(AgentRole.MANAGER, serialize_task_plan(plan)) == plan


@given(st.one_of(st.just([]), descriptions))
def test_verdict_round_trip(items: list[str]) -> None:
    verdict = Verdict(accepted=not items,
                      changes=tuple(ChangeRequest(d) for d in items))
    parsed = parse_agent_output(AgentRole.VERIFIER, serialize_verdict(verdict))
    assert parsed == verdict
    assert parsed.accepted == (len(parsed.changes) == 0)


# --- template assets ---

def test_default_templates_complete_and_well_formed() -> None:
    templates = default_templates()
    for name in ("manager", "reflection", "prompt_maker", "executor",
                 "verifier", "finalizer", "zsl", "osl"):
        assert name in templates
        assert templates[name].placeholders() <= PLACEHOLDERS


def test_parse_template_file_header() -> None:
    tpl = parse_template_file("x.txt", "my-id executor\nbody {{code}}")
    assert tpl.template_id == "my-id"
    assert tpl.role is AgentRole.EXECUTOR
    assert tpl.body == "body {{code}}"


def test_parse_template_file_bad_header() -> None:
    with pytest.raises(ConfigInvalid):
        parse_template_file("x.txt", "only-an-id\nbody")
    with pytest.raises(ConfigInvalid):
        parse_template_file("x.txt", "my-id not_a_role\nbody")


def test_load_templates_requires_full_set(tmp_path) -> None:
    (tmp_path / "manager.txt").write_text("m manager\n{{requirements}}", encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="missing"):
        load_templates(tmp_path)
