from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vapu.errors import ConfigInvalid, EmptyRequirements
from vapu.evaluation import CheckMarks, FileFeatures
from vapu.gateway import ChatExchange
from vapu.models import (
    AgentRole,
    ChangeRequest,
    CodeDocument,
    RequirementKind,
    RequirementSpec,
    Task,
    TaskOutcome,
    TaskPlan,
    UpdateResult,
    Verdict,
    count_loc,
    from_json,
    read_input,
    to_json,
)
from vapu.workspace import Backend, Method, RunConfig


def test_count_loc_excludes_blank_lines() -> None:
    assert count_loc("a\n\nb") == 2


def test_count_loc_empty_text() -> None:
    assert count_loc("") == 0


def test_count_loc_hand_counted_file() -> None:
    lines = ["line %d" % i for i in range(7)]
    text = "\n".join(lines[:3] + ["", "   "] + lines[3:] + ["\t"])
    assert count_loc(text) == 7


def test_count_loc_counts_comment_lines() -> None:
    assert count_loc("# comment\ncode()\n") == 2


def test_requirement_spec_normalizes_and_keeps_order() -> None:
    req = RequirementSpec(id="r", body=("  first  ", "", "second"))
    assert req.body == ("first", "second")
    assert req.as_text() == "first\nsecond"


def test_requirement_spec_blank_body_rejected() -> None:
    with pytest.raises(EmptyRequirements):
        RequirementSpec(id="r", body=("", "   "))


def test_requirement_spec_from_text() -> None:
    req = RequirementSpec.from_text("r", "a\n\nb\n")
    assert req.body == ("a", "b")


def test_task_validation() -> None:
    with pytest.raises(ValueError):
        Task(index=0, description="x")
    with pytest.raises(ValueError):
        Task(index=1, description="  ")


def test_task_plan_requires_contiguous_indices() -> None:
    with pytest.raises(ValueError):
        TaskPlan(tasks=(Task(1, "a"), Task(3, "b")))
    with pytest.raises(ValueError):
        TaskPlan(tasks=())


def test_task_plan_from_descriptions() -> None:
    plan = TaskPlan.from_descriptions(["a", "b"])
    assert [t.index for t in plan.tasks] == [1, 2]


def test_code_document_loc_tracks_content() -> None:
    doc = CodeDocument(path="a.php", language_tag="php", content="x\n\ny")
    assert doc.loc == 2
    updated = doc.with_content("one\ntwo\nthree")
    assert updated.loc == 3
    assert updated.path == doc.path and updated.language_tag == doc.language_tag


@pytest.mark.parametrize("value", [
    RunConfig(model="m", output_dir=Path("out"), temperature=1.0, backend=Backend.REPLAY,
              fixtures_dir=Path("fx"), method=Method.OSL, example_path=Path("ex.json")),
    RequirementSpec.from_text("req", "first\nsecond", kind=RequirementKind.PROJECT_DESCRIPTION),
    CodeDocument(path="a.php", language_tag="php", content="x"),
    ChatExchange(role=AgentRole.VERIFIER, prompt="p", response="r", duration=0.25,
                 started_at=123.5, model="m", temperature=1.0, retries=2, flags=["no_fence"]),
    CheckMarks(updates_present_and_plausible=True, basic_functions_ok=False,
               all_requirements_correct=True),
    FileFeatures(loc=120, cc_letter="B", task_count=2),
], ids=lambda value: type(value).__name__)
def test_to_json_round_trips_through_from_json(value) -> None:
    data = to_json(value)
    assert json.loads(json.dumps(data)) == data
    assert from_json(type(value), data) == value


def test_to_json_leaves_out_an_exchanges_parts() -> None:
    exchange = ChatExchange(role=AgentRole.EXECUTOR, prompt="ab", response="r", duration=0.5,
                            started_at=1.0, model="m", temperature=0.0)
    exchange.prompt_parts, exchange.response_parts = ["a", "b", ""], ["", "r", ""]
    data = to_json(exchange)
    assert "prompt_parts" not in data and "response_parts" not in data
    assert data["prompt"] == "ab" and data["response"] == "r"
    texts = ("prompt", "response")
    assert to_json(exchange, omit=texts) == {k: v for k, v in data.items() if k not in texts}
    assert data["role"] == "executor"


def test_to_json_leaves_out_a_code_documents_loc_which_its_content_gives() -> None:
    code = CodeDocument(path="a.php", language_tag="php", content="x\n\ny\n")
    assert to_json(code) == {"path": "a.php", "language_tag": "php", "content": "x\n\ny\n"}
    assert code.loc == 2


def test_to_json_refuses_a_value_that_is_not_json_data() -> None:
    with pytest.raises(TypeError):
        to_json({"a": 1})


def test_verdict_consistency_enforced() -> None:
    assert Verdict(accepted=True).changes == ()
    with pytest.raises(ValueError):
        Verdict(accepted=True, changes=(ChangeRequest("fix"),))
    with pytest.raises(ValueError):
        Verdict(accepted=False, changes=())


def test_change_request_must_have_text() -> None:
    with pytest.raises(ValueError):
        ChangeRequest("  ")


def test_update_result_unverified_must_match_outcomes() -> None:
    doc = CodeDocument(path="a.php", language_tag="php", content="x")
    ok = TaskOutcome(task_index=1, accepted=True, finalizer_iterations=0)
    bad = TaskOutcome(task_index=2, accepted=False, finalizer_iterations=2)
    UpdateResult(final_code=doc, per_task_outcomes=(ok, bad), unverified=True, transcript_ref="t")
    with pytest.raises(ValueError):
        UpdateResult(final_code=doc, per_task_outcomes=(ok, bad),
                     unverified=False, transcript_ref="t")


# --- typed JSON reader ---

@dataclass
class Typed:
    flag: bool = False
    count: int = 0
    text: str = ""
    ratio: float = 0.0
    role: AgentRole = AgentRole.MANAGER
    where: Path | None = None
    limit: int | None = None
    strict: bool | None = None
    words: tuple[str, ...] = ()
    pair: tuple[str, str] | None = None


def test_from_json_converts_numbers_enums_and_paths() -> None:
    typed = from_json(Typed, {"ratio": 1, "role": "executor", "where": "a/b", "other": 1})
    assert typed == Typed(ratio=1.0, role=AgentRole.EXECUTOR, where=Path("a/b"))
    assert type(typed.ratio) is float


@pytest.mark.parametrize("empty", ["", None])
def test_from_json_reads_an_empty_optional_as_none(empty) -> None:
    assert from_json(Typed, {"where": empty}).where is None


@pytest.mark.parametrize("name, zero", [("limit", 0), ("strict", False)])
def test_from_json_keeps_a_zero_optional(name, zero) -> None:
    value = getattr(from_json(Typed, {name: zero}), name)
    assert value == zero and type(value) is type(zero)


def test_from_json_reads_a_list_as_the_container_its_field_names() -> None:
    spec = from_json(RequirementSpec, {"id": "r", "body": ["a", "b"],
                                       "kind": "project_description"})
    assert spec == RequirementSpec("r", ("a", "b"), RequirementKind.PROJECT_DESCRIPTION)


@pytest.mark.parametrize("data", [
    {"flag": "false"}, {"flag": 0}, {"flag": None},
    {"count": True}, {"count": 2.0}, {"count": "2"},
    {"text": 3},
], ids=repr)
def test_from_json_takes_flags_counts_and_text_only_as_their_json_type(data) -> None:
    [name] = data
    with pytest.raises(TypeError, match=f"Typed.{name} must be"):
        from_json(Typed, data)


@pytest.mark.parametrize("data", [
    {"words": ["a", 1]}, {"words": "ab"}, {"pair": ["a"]}, {"pair": ["a", "b", "c"]},
    {"pair": "ab"}, {"pair": 5},
], ids=repr)
def test_from_json_takes_a_container_of_text_only_as_a_list_of_strings(data) -> None:
    [name] = data
    with pytest.raises(TypeError, match=f"Typed.{name} must be tuple"):
        from_json(Typed, data)


def test_from_json_reads_a_list_of_strings_as_the_tuple_its_field_names() -> None:
    typed = from_json(Typed, {"words": ["a", "b", "c"], "pair": ["old()", "new()"]})
    assert (typed.words, typed.pair) == (("a", "b", "c"), ("old()", "new()"))


@pytest.mark.parametrize("data", [{"ratio": "1"}, {"ratio": True}, {"role": "nobody"},
                                  {"where": 5}], ids=repr)
def test_from_json_refuses_a_number_enum_or_path_it_cannot_read(data) -> None:
    [name] = data
    with pytest.raises(TypeError, match=f"Typed.{name} must be"):
        from_json(Typed, data)


def test_from_json_names_fields_under_where_and_can_ask_for_every_one() -> None:
    with pytest.raises(TypeError, match="header.count must be int, got '2'"):
        from_json(Typed, {"count": "2"}, "header")
    with pytest.raises(TypeError, match="Typed.flag is missing"):
        from_json(Typed, {}, complete=True)
    # Optional fields may be left out even then.
    required = {"flag": True, "count": 1, "text": "t", "ratio": 0.5, "role": "executor",
                "words": []}
    assert from_json(Typed, required, complete=True).where is None


def test_read_input_returns_the_text_or_what_parse_makes_of_it(tmp_path) -> None:
    path = tmp_path / "input.json"
    path.write_text('{"key": "caf\u00e9"}', encoding="utf-8")
    assert read_input(path, "input") == '{"key": "caf\u00e9"}'
    assert read_input(path, "input", lambda text: json.loads(text)["key"]) == "caf\u00e9"


@pytest.mark.parametrize("content, parse", [
    (None, None),  # missing
    (b"caf\xe9", None),  # not UTF-8
    (b"{", json.loads),  # not JSON
    (b"{}", lambda text: json.loads(text)["key"]),  # a missing key
    (b"[]", lambda text: json.loads(text).get("key")),  # a list for an object
    (b"{}", lambda text: from_json(Typed, json.loads(text), complete=True)),  # a missing field
    (b" ", lambda text: RequirementSpec.from_text("r", text)),  # a VapuError
], ids=["missing", "bytes", "json", "key", "list", "field", "vapu-error"])
def test_read_input_turns_every_failure_into_a_config_error_naming_the_file(
        tmp_path, content, parse) -> None:
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigInvalid, match=f"cannot read test input {re.escape(str(path))}: "):
        read_input(path, "test input", parse)


def text_mode_failure(path: Path, what: str) -> str:
    """The ConfigInvalid message read_input gave when it read ``path`` in text mode."""
    try:
        with open(path, encoding="utf-8") as handle:
            handle.read()
    except (OSError, ValueError) as exc:
        return f"cannot read {what} {path}: {type(exc).__name__}: {exc}"
    raise AssertionError(f"{path} reads in text mode")


@pytest.mark.parametrize("content", [None, "directory", b"caf\xe9", b"x" * 9000 + b"\xff"],
                         ids=["missing", "directory", "bytes", "bytes-past-a-buffer"])
def test_read_input_fails_with_the_message_text_mode_gave(tmp_path, content) -> None:
    # A directory's os.read error names no file; read_input's still names it twice.
    path = tmp_path / "input.txt"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigInvalid) as excinfo:
        read_input(path, "test input")
    assert str(excinfo.value) == text_mode_failure(path, "test input")


# Line ends of every kind, a character of each UTF-8 length, and runs long enough to cross
# the 8 KiB buffer of a text-mode read, so a "\r\n" can fall across its edge.
newline_text = st.lists(st.sampled_from(["\r\n", "\r", "\n", "\r\r\n", "a", "é", "€",
                                         "\U0001f600", "x" * 8190, ""]), max_size=12).map("".join)


@settings(max_examples=100, deadline=None)
@given(text=newline_text)
def test_read_input_reads_what_text_mode_reads(tmp_path_factory, text) -> None:
    path = tmp_path_factory.mktemp("inputs") / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as handle:
        assert read_input(path, "input") == handle.read()


@pytest.mark.parametrize("reported", [10, 400], ids=["grew", "shrank"])
def test_a_file_whose_size_changed_since_it_was_opened_is_read_to_its_end(
        tmp_path, monkeypatch, reported) -> None:
    path = tmp_path / "input.txt"
    path.write_text("line\n" * 40, encoding="utf-8")
    real_fstat = os.fstat

    def fstat(fd):  # the size the file had when it was opened
        info = real_fstat(fd)
        return os.stat_result((*info[:6], reported, *info[7:]))

    monkeypatch.setattr(os, "fstat", fstat)
    assert read_input(path, "input") == "line\n" * 40


def test_a_pipe_is_read_to_its_end(tmp_path) -> None:
    path = tmp_path / "pipe"
    os.mkfifo(path)
    text = "requirement\r\n" * 20000  # past a pipe's buffer, so the writer blocks until read
    writer = threading.Thread(target=path.write_bytes, args=(text.encode("utf-8"),), daemon=True)
    writer.start()
    try:
        assert read_input(path, "input") == text.replace("\r\n", "\n")
    finally:
        writer.join(timeout=10)
