from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import stat
import tracemalloc
from dataclasses import fields
from pathlib import Path, PurePosixPath
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import one_gateway, records_of, write_records
import vapu.pipeline
import vapu.workspace
from vapu.cli import demo_root, main
from vapu.errors import ConfigInvalid, CorruptTranscript, NoFilesMatched
from vapu.gateway import ChatExchange, Gateway, ReplayGateway, load_replay_fixtures
from vapu.models import AgentRole, RequirementSpec, from_json, to_json
from vapu.pipeline import RunContext, run_update
from vapu.prompts import extract_code
from vapu.workspace import (
    Backend,
    Method,
    RunConfig,
    RunTranscript,
    is_project_relative,
    language_tag_for,
    load_codebase,
    load_transcript,
    make_run_id,
    persist_transcript,
    split_suffix,
    write_file,
)


# --- run ids ---

def test_run_id_scheme() -> None:
    assert make_run_id("view_a", Method.VAPU, "gpt-4o", 0.0, 3) == "view_a-vapu-gpt-4o-t0-r3"
    assert make_run_id("view_a", Method.ZSL, "gpt-4o", 1.0, 1) == "view_a-zsl-gpt-4o-t1-r1"
    assert make_run_id("v", Method.OSL, "m", 0.5, 2) == "v-osl-m-t0.5-r2"
    # The file part is the project-relative path without its suffix.
    assert make_run_id("view_a.php", Method.VAPU, "m", 0.0, 1) == "view_a-vapu-m-t0-r1"
    assert make_run_id("a/view_a.php", Method.VAPU, "m", 0.0, 1) == "a__view_a-vapu-m-t0-r1"
    assert make_run_id("app/View/jquery.min.js", Method.ZSL, "m", 1.0, 2) == \
        "app__View__jquery.min-zsl-m-t1-r2"


def test_ten_repetitions_have_distinct_run_ids() -> None:
    ids = {make_run_id("f", Method.VAPU, "m", 0.0, rep) for rep in range(1, 11)}
    assert len(ids) == 10


def path_run_id(file_path: str, method: Method, model: str, temperature: float,
                repetition: int) -> str:
    """The run id formula written with PurePosixPath: the parent, then the name's stem
    (its last suffix dropped), "__" for "/".  Both read alike on 3.10-3.13."""
    pure = PurePosixPath(file_path)
    parent = pure.parent.as_posix()
    file_part = pure.stem if parent == "." else f"{parent}/{pure.stem}".replace("/", "__")
    return f"{file_part}-{method.value}-{model}-t{temperature:g}-r{repetition}"


def is_normal_relative(file_path: str) -> bool:
    """Whether PurePosixPath leaves ``file_path`` as it is, with no root, no ".." part
    and a name: one spelling of a file under a project root."""
    pure = PurePosixPath(file_path)
    return (str(pure) == file_path and not pure.anchor and file_path != "."
            and ".." not in pure.parts)


# Names that path parsing treats apart: empty ("a//b"), ".", "..", dot files,
# two suffixes, a trailing dot, a dot in a directory name.
odd_name = st.sampled_from(["", ".", "..", ".hidden", "x.tar.gz", "b.", "dir.v2", "f",
                            "view.php", "..x", "a.b."]) | st.text(alphabet="ab._-", max_size=6)


@settings(max_examples=300)
@given(path=st.lists(odd_name, min_size=1, max_size=5).map("/".join),
       method=st.sampled_from(Method), temperature=st.sampled_from([0.0, 1.0, 0.5]),
       repetition=st.integers(1, 12))
@example(path="a//b.php", method=Method.VAPU, temperature=0.0, repetition=1)
@example(path="./x.py", method=Method.ZSL, temperature=1.0, repetition=2)
@example(path="dir.v2/f", method=Method.OSL, temperature=0.0, repetition=3)
@example(path=".hidden", method=Method.VAPU, temperature=0.0, repetition=1)
@example(path="x.tar.gz", method=Method.VAPU, temperature=0.0, repetition=1)
@example(path="b.", method=Method.VAPU, temperature=0.0, repetition=1)
@example(path="a/./b/", method=Method.VAPU, temperature=0.0, repetition=1)
@example(path="..x", method=Method.VAPU, temperature=0.0, repetition=1)
@example(path="d/..php", method=Method.ZSL, temperature=1.0, repetition=2)
@example(path="..py", method=Method.ZSL, temperature=0.0, repetition=1)
@example(path="a.", method=Method.VAPU, temperature=0.0, repetition=1)
@example(path="a/../b.php", method=Method.VAPU, temperature=0.0, repetition=1)
def test_run_ids_match_the_path_formula_for_odd_paths(path, method, temperature,
                                                      repetition) -> None:
    # Paths that are not normal ("a//b", "./x", "a/", "/x", "a/../b") are refused, not
    # normalized: each names its file in one spelling, so one file has one run id.
    assert is_project_relative(path) == is_normal_relative(path)
    if not is_normal_relative(path):
        with pytest.raises(ValueError):
            make_run_id(path, method, "m", temperature, repetition)
        return
    assert make_run_id(path, method, "m", temperature, repetition) == \
        path_run_id(path, method, "m", temperature, repetition)


@pytest.mark.parametrize("path", ["..py", "d/..php", ".htaccess", "x.tar.gz", "a.", "Makefile",
                                  "app/View/index.CTP", "dir.v2/f"])
def test_split_suffix_is_the_pure_paths_stem_and_suffix(path) -> None:
    pure = PurePosixPath(path)
    assert split_suffix(path) == (pure.stem, pure.suffix)
    assert language_tag_for(path) == language_tag_for(Path(path))


# --- config validation ---

def test_replay_requires_fixtures_dir(tmp_path) -> None:
    # Only a run reads fixtures; a transcript replays from its recorded replies.
    config = RunConfig(model="m", output_dir=tmp_path, backend=Backend.REPLAY)
    config.validate()
    with pytest.raises(ConfigInvalid, match="fixtures"):
        RunContext.from_config(config)


def test_osl_requires_example_asset(tmp_path) -> None:
    config = RunConfig(model="m", output_dir=tmp_path, method=Method.OSL)
    with pytest.raises(ConfigInvalid):
        config.validate()


def test_unusual_temperature_warns_but_passes(tmp_path) -> None:
    config = RunConfig(model="m", output_dir=tmp_path, temperature=0.5)
    with pytest.warns(UserWarning, match="0.5"):
        config.validate()


def test_out_of_range_temperature_rejected(tmp_path) -> None:
    config = RunConfig(model="m", output_dir=tmp_path, temperature=1.5)
    with pytest.raises(ConfigInvalid):
        config.validate()


def test_nonpositive_counts_rejected(tmp_path) -> None:
    with pytest.raises(ConfigInvalid):
        RunConfig(model="m", output_dir=tmp_path, repetitions=0).validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(model="m", output_dir=tmp_path, max_feedback_iterations=0).validate()


def test_to_json_of_a_config_is_json_friendly(tmp_path) -> None:
    config = RunConfig(model="m", output_dir=tmp_path, backend=Backend.REPLAY,
                       fixtures_dir=tmp_path / "fx")
    snapshot = to_json(config)
    assert snapshot["backend"] == "replay"
    assert snapshot["fixtures_dir"].endswith("fx")


optional_path = st.none() | st.builds(Path, st.from_regex(r"[a-z][a-z0-9_/]{0,15}", fullmatch=True))


@given(
    model=st.text(min_size=1, max_size=20),
    output_dir=st.builds(Path, st.from_regex(r"[a-z][a-z0-9_/]{0,15}", fullmatch=True)),
    temperature=st.floats(min_value=0, max_value=1),
    max_feedback_iterations=st.integers(min_value=1, max_value=5),
    repetitions=st.integers(min_value=1, max_value=20),
    backend=st.sampled_from(Backend),
    fixtures_dir=optional_path,
    method=st.sampled_from(Method),
    example_path=optional_path,
    registry_path=optional_path,
    templates_dir=optional_path,
    parallel=st.integers(min_value=1, max_value=64),
)
def test_to_json_of_a_config_round_trips(**values) -> None:
    config = RunConfig(**values)
    assert from_json(RunConfig, to_json(config)) == config


def test_from_snapshot_ignores_unknown_keys_and_reads_empty_paths_as_none(tmp_path) -> None:
    config = from_json(RunConfig, {
        "model": "m", "output_dir": str(tmp_path), "backend": "replay",
        "fixtures_dir": "", "templates_dir": None, "command": "update",
    })
    assert config == RunConfig(model="m", output_dir=tmp_path, backend=Backend.REPLAY)


def test_from_snapshot_reads_an_integer_temperature_as_a_float(tmp_path) -> None:
    config = from_json(RunConfig, {"model": "m", "output_dir": str(tmp_path), "temperature": 1})
    assert type(config.temperature) is float and config.temperature == 1.0


@pytest.mark.parametrize("key, value", [("repetitions", "2"), ("parallel", True), ("model", 4)])
def test_from_snapshot_refuses_a_value_of_the_wrong_json_type(tmp_path, key, value) -> None:
    with pytest.raises(TypeError, match=f"RunConfig.{key} must be"):
        from_json(RunConfig, {"model": "m", "output_dir": str(tmp_path), key: value})


# --- codebase ingestion ---

def test_load_single_file(tmp_path) -> None:
    (tmp_path / "view.php").write_text("<?php ?>\n\n<p>x</p>\n", encoding="utf-8")
    docs = load_codebase(tmp_path, ["*.php"])
    assert len(docs) == 1
    assert docs[0].path == "view.php"
    assert docs[0].language_tag == "php"
    assert docs[0].loc == 2


def test_no_files_matched(tmp_path) -> None:
    (tmp_path / "view.php").write_text("x", encoding="utf-8")
    with pytest.raises(NoFilesMatched):
        load_codebase(tmp_path, ["*.py"])


def test_missing_root(tmp_path) -> None:
    with pytest.raises(NoFilesMatched):
        load_codebase(tmp_path / "absent", ["*"])


def test_lexicographic_order_regardless_of_glob_order(tmp_path) -> None:
    (tmp_path / "sub").mkdir()
    (tmp_path / "b.php").write_text("b", encoding="utf-8")
    (tmp_path / "a.php").write_text("a", encoding="utf-8")
    (tmp_path / "sub" / "c.php").write_text("c", encoding="utf-8")
    docs = load_codebase(tmp_path, ["sub/*.php", "b.php", "a.php"])
    assert [d.path for d in docs] == ["a.php", "b.php", "sub/c.php"]


def test_a_file_that_is_not_utf8_is_read_with_a_warning_naming_it(tmp_path, caplog) -> None:
    latin1 = tmp_path / "reference_list.php"
    latin1.write_bytes(b"<p>Caf\xe9 list</p>\r\n")
    (tmp_path / "clean.php").write_text("<p>Caf\u00e9 list</p>\r\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="vapu"):
        clean, replaced = load_codebase(tmp_path, ["*.php"])
    # Decoded as before: each undecodable byte is U+FFFD, and line ends are translated.
    assert replaced.content == "<p>Caf\ufffd list</p>\n"
    assert clean.content == "<p>Caf\u00e9 list</p>\n"
    [record] = caplog.records
    assert record.levelno == logging.WARNING and str(latin1) in record.getMessage()


def test_language_tags() -> None:
    assert language_tag_for(Path("x.py")) == "python"
    assert language_tag_for(Path("x.ctp")) == "php"
    assert language_tag_for(Path("x.weird")) == "weird"
    assert language_tag_for(Path("Makefile")) == "text"
    assert language_tag_for("app/View/x.CTP") == "php"
    assert language_tag_for(".htaccess") == "text"
    assert language_tag_for("..py") == "python"


def project_tree(root: Path) -> Path:
    """Every kind of entry the default file set has a rule for, and an output directory."""
    for rel, text in [("a.php", "a\r\n"), ("sub/deep/b.py", "b\n"), (".hidden.php", "h"),
                      (".git/config", "[core]"), ("Makefile", "all:"),
                      ("out/old-run/a.php", "old"), ("sub/out/kept.php", "kept")]:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    (root / "link.php").symlink_to("sub/deep/b.py")  # a symlinked file is read
    (root / "linkdir").symlink_to("sub", target_is_directory=True)  # not entered
    (root / "broken.php").symlink_to("missing.php")  # skipped
    (root / "loop").symlink_to("loop")  # skipped
    return root


def glob_files(root: Path, patterns: list[str], exclude: str | None = None) -> list[str]:
    """The reference file set: what ``Path.glob`` finds for ``patterns`` and ``is_file``
    keeps, as sorted "/"-joined paths under ``root``, but those under ``exclude``."""
    found = {path.relative_to(root).as_posix()
             for pattern in patterns for path in root.glob(pattern) if path.is_file()}
    return sorted(rel for rel in found if exclude is None or not rel.startswith(f"{exclude}/"))


@pytest.mark.parametrize("exclude", [None, "out"])
def test_the_default_file_set_is_what_the_all_files_glob_finds(tmp_path, exclude) -> None:
    root = project_tree(tmp_path / "project")
    walked = load_codebase(root, exclude=exclude)
    assert [d.path for d in walked] == glob_files(root, ["**/*"], exclude)
    expected = [".git/config", ".hidden.php", "Makefile", "a.php", "link.php",
                "out/old-run/a.php", "sub/deep/b.py", "sub/out/kept.php"]
    assert [d.path for d in walked] == [p for p in expected if exclude is None or p[:4] != "out/"]
    assert walked[3].content == "a\n" and walked[4].content == "b\n"
    assert [d.language_tag for d in walked][:5] == ["text", "php", "text", "php", "php"]


def include_tree(root: Path) -> Path:
    """``project_tree`` with files for each kind of --include pattern to pick: top-level,
    one level down (also reachable through the symlinked directory ``linkdir``) and in a
    hidden directory."""
    project_tree(root)
    for rel in ("b.php", "sub/c.php", "sub/deep/d.php", ".hidden/e.php", ".hidden/.f"):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(rel, encoding="utf-8")
    return root


@pytest.mark.parametrize("exclude", [None, "out"])
@pytest.mark.parametrize("patterns", [
    ["*.php"], ["sub/*.php"], ["**/*.php"], ["**/*"], ["?.php"], ["[ab].php"], [".hidden/*"],
    ["sub/deep/b.py"], ["**/*.php", "sub/*.php"]])
def test_include_patterns_pick_what_the_glob_finds(tmp_path, patterns, exclude) -> None:
    root = include_tree(tmp_path / "project")
    expected = glob_files(root, patterns, exclude)
    assert expected  # each pattern picks some file
    assert [d.path for d in load_codebase(root, patterns, exclude)] == expected


def test_a_trailing_double_star_matches_files_on_every_python(tmp_path) -> None:
    # Path.glob("**") finds only directories before Python 3.13, and files too from 3.13.
    root = include_tree(tmp_path / "project")
    assert [d.path for d in load_codebase(root, ["**"])] == glob_files(root, ["**/*"])
    assert [d.path for d in load_codebase(root, ["sub/**"])] == [
        "sub/c.php", "sub/deep/b.py", "sub/deep/d.php", "sub/out/kept.php"]


def test_a_symlinked_directory_is_not_entered_even_when_a_pattern_names_it(tmp_path) -> None:
    root = include_tree(tmp_path / "project")
    assert glob_files(root, ["linkdir/*.php"]) == ["linkdir/c.php"]  # the glob reads through it
    assert [d.path for d in load_codebase(root, ["linkdir/*.php", "*/c.php"])] == ["sub/c.php"]
    with pytest.raises(NoFilesMatched, match=r"match \['linkdir/\*'\]"):
        load_codebase(root, ["linkdir/*"])


@pytest.mark.parametrize("pattern", ["", "/etc/*.conf", "../*.php", "./*.php", "a//b.php",
                                     "sub/", "sub/./c.php", "sub/../a.php"])
def test_an_include_pattern_in_no_project_path_spelling_is_refused(tmp_path, pattern) -> None:
    root = include_tree(tmp_path / "project")
    with pytest.raises(ConfigInvalid, match=f"pattern {re.escape(repr(pattern))} is not"):
        load_codebase(root, ["a.php", pattern])


def test_the_walk_does_not_list_the_excluded_output_directory(tmp_path, monkeypatch) -> None:
    root = project_tree(tmp_path / "project")
    listed = []
    real_scandir = os.scandir

    def recording_scandir(path):
        listed.append(os.path.relpath(path, root))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", recording_scandir)
    load_codebase(root, exclude="out")
    assert sorted(listed) == [".", ".git", "sub", "sub/deep", "sub/out"]


def test_an_unreadable_subdirectory_is_skipped_as_the_glob_skips_it(tmp_path,
                                                                      monkeypatch) -> None:
    root = project_tree(tmp_path / "project")
    real_scandir = os.scandir

    def scandir(path):  # simulated: a permission bit would not stop root
        if os.path.relpath(path, root) == "sub":
            raise PermissionError(13, "Permission denied", path)
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    assert [d.path for d in load_codebase(root, exclude="out")] == [
        ".git/config", ".hidden.php", "Makefile", "a.php", "link.php"]


def test_the_current_directory_as_root_reads_paths_without_a_dot_prefix(
        tmp_path, monkeypatch, caplog) -> None:
    (tmp_path / "latin1.php").write_bytes(b"Caf\xe9")
    monkeypatch.chdir(tmp_path)
    with caplog.at_level(logging.WARNING, logger="vapu"):
        [doc] = load_codebase(Path("."))
    assert doc.path == "latin1.php"
    assert caplog.records[0].getMessage().startswith("latin1.php is not UTF-8")


# --- transcript persistence ---

def exchange(started_at: float, response: str = "r") -> ChatExchange:
    return ChatExchange(
        role=AgentRole.EXECUTOR, prompt="p", response=response, duration=0.1,
        started_at=started_at, model="m", temperature=0.0,
    )


def sample_transcript() -> RunTranscript:
    return RunTranscript(
        run_id="f-vapu-m-t0-r1",
        config={"model": "m", "temperature": 0.0},
        exchanges=[exchange(1.0), exchange(2.0, "second")],
        outcome={"final_code": {"content": "x"}},
        duration=0.5,
        inputs={"repetition": 1},
    )


def test_transcript_round_trip(tmp_path) -> None:
    original = sample_transcript()
    path = Path(persist_transcript(original, tmp_path))
    loaded = load_transcript(path)
    assert loaded == original


def test_the_exchange_record_writes_every_field_that_eq_compares() -> None:
    # One value per compared field, none its default: a field ChatExchange gains fails
    # here until it has a value below and _exchange_record writes it.
    values = {"role": AgentRole.VERIFIER, "prompt": "p", "response": "r", "duration": 0.25,
              "started_at": 3.5, "model": "m", "temperature": 0.7, "retries": 2,
              "flags": ["truncated", "no_fence"]}
    assert {f.name for f in fields(ChatExchange) if f.compare} == set(values)
    exchange = ChatExchange(**values)
    record = vapu.workspace._exchange_record(exchange, {})
    assert record == {"record": "exchange", **to_json(exchange)}
    assert from_json(ChatExchange, record) == exchange


@settings(max_examples=50, deadline=None)
@given(calls=st.lists(st.tuples(
    st.sampled_from(AgentRole), st.integers(0, 5), st.lists(st.text(max_size=10), max_size=3),
    st.floats(0.0, 1.0), st.floats(0.0, 1e4), st.text(max_size=8)), min_size=1, max_size=6))
def test_exchanges_with_any_role_flags_and_retries_round_trip(tmp_path_factory,
                                                              calls) -> None:
    exchanges = [ChatExchange(role=role, prompt=f"p{i}", response=f"r{i}", duration=duration,
                              started_at=float(i), model=model, temperature=temperature,
                              retries=retries, flags=flags)
                 for i, (role, retries, flags, temperature, duration, model)
                 in enumerate(calls)]
    original = RunTranscript(run_id="f", config={"model": "m"}, exchanges=exchanges)
    directory = tmp_path_factory.mktemp("transcripts")
    path = Path(persist_transcript(original, directory))
    loaded = load_transcript(path)
    assert loaded == original
    assert Path(persist_transcript(loaded, directory / "again")).read_bytes() == path.read_bytes()


def test_the_exchange_reader_reads_every_field_that_eq_compares() -> None:
    # The reader's counterpart of the writer test above: a field ChatExchange gains
    # fails here until it has a value below and _exchange_from_record reads it.
    values = {"role": AgentRole.VERIFIER, "prompt": "p", "response": "r", "duration": 0.25,
              "started_at": 3.5, "model": "m", "temperature": 0.7, "retries": 2,
              "flags": ["truncated", "no_fence"]}
    assert {f.name for f in fields(ChatExchange) if f.compare} == set(values)
    record = {"record": "exchange", **to_json(ChatExchange(**values))}
    exchange = vapu.workspace._exchange_from_record(record, [], Path("t.jsonl"), False)
    assert exchange == ChatExchange(**values)


def exchange_through_from_json(record: dict, table: list[str], path: Path,
                               literals: bool) -> ChatExchange:
    """The exchange reader as it was before it read the record's fields itself: every
    field but the prompt and reply through ``from_json``, on a copy of the record."""
    texts = record.get("texts", [])
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise CorruptTranscript(f"{path}: exchange texts must be a list of strings")
    table.extend(texts)
    prompt_parts = vapu.workspace._parts(record.get("prompt"), table, path, "prompt", literals)
    response_parts = vapu.workspace._parts(record.get("response"), table, path, "response",
                                           literals)
    exchange = from_json(ChatExchange, {**record, "prompt": "", "response": ""})
    exchange.prompt_parts, exchange.response_parts = prompt_parts, response_parts
    return exchange


# A value of a JSON type that no exchange field takes, ints aside (a number field's).
WRONG_TYPE = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                       st.lists(st.integers(-1, 3), min_size=1, max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
NUMBER = st.one_of(st.integers(), st.floats(allow_nan=False))
REQUIRED = ("role", "prompt", "response", "duration", "started_at", "model", "temperature")


@st.composite
def exchange_records(draw) -> dict:
    """A v4 exchange record after a one-text header (so text 0 exists): valid, or with
    one fault, from a field of the wrong type to a reference past the text table."""
    record = {"record": "exchange", "role": draw(st.sampled_from([r.value for r in AgentRole])),
              "duration": draw(NUMBER), "started_at": draw(NUMBER),
              "model": draw(st.text(max_size=5)), "temperature": draw(NUMBER)}
    texts = draw(st.lists(st.text(max_size=5), max_size=3))
    if texts or draw(st.booleans()):
        record["texts"] = texts
    size = 1 + len(texts)
    for key in ("prompt", "response"):
        record[key] = draw(st.one_of(st.text(max_size=5),
                                     st.lists(st.integers(0, size - 1), min_size=1, max_size=4)))
    if draw(st.booleans()):
        record["flags"] = draw(st.lists(st.text(max_size=5), max_size=3))
    if draw(st.booleans()):
        record["retries"] = draw(st.integers(0, 5))
    if draw(st.booleans()):
        record["unknown"] = draw(WRONG_TYPE)  # ignored
    fault = draw(st.sampled_from([None, "type", "bool-retries", "role", "missing", "reference"]))
    if fault == "type":
        name = draw(st.sampled_from([*REQUIRED, "retries", "flags", "texts"]))
        record[name] = draw(WRONG_TYPE)
    elif fault == "bool-retries":
        record["retries"] = draw(st.booleans())
    elif fault == "role":
        record["role"] = draw(st.sampled_from(["reflection", "Manager", "", "manager "]))
    elif fault == "missing":
        del record[draw(st.sampled_from(REQUIRED))]
    elif fault == "reference":
        record[draw(st.sampled_from(["prompt", "response"]))] = [
            draw(st.integers(0, size - 1)), draw(st.sampled_from([size, size + 5, -1]))]
    return record


def loaded_exchanges(path: Path):
    """Each exchange ``path`` loads to, with its parts and number types, or the message
    of the CorruptTranscript it raises."""
    try:
        transcript = load_transcript(path)
    except CorruptTranscript as exc:
        return str(exc)
    return [(e, e.prompt_parts, e.response_parts, type(e.role),
             type(e.duration), type(e.started_at), type(e.temperature))
            for e in transcript.exchanges]


VALID_RECORD = {"record": "exchange", "role": "executor", "prompt": "p", "response": [0],
                "duration": 1, "started_at": 2.5, "model": "m", "temperature": 0.0}


@settings(max_examples=300, deadline=None)
@given(record=exchange_records())
@example(record=VALID_RECORD)
@example(record={**VALID_RECORD, "flags": None})
@example(record={**VALID_RECORD, "flags": ""})
@example(record={**VALID_RECORD, "retries": True})
@example(record={**VALID_RECORD, "retries": None})
@example(record={**VALID_RECORD, "role": "reflection"})
@example(record={**VALID_RECORD, "duration": False})
@example(record={**VALID_RECORD, "temperature": 10 ** 400})  # an int past float's range
@example(record={**VALID_RECORD, "response": [1]})
@example(record={k: v for k, v in VALID_RECORD.items() if k != "model"})
def test_the_exchange_reader_agrees_with_from_json(tmp_path_factory, record) -> None:
    path = tmp_path_factory.mktemp("records") / "t.jsonl"
    write_records(path, [
        {"record": "header", "format": "vapu-transcript-v4", "run_id": "t", "config": {},
         "inputs": {"code": {"content": "input file"}}},
        record,
        {"record": "outcome", "status": "completed", "outcome": {}, "duration": 0.5},
    ])
    with mock.patch.object(vapu.workspace, "_exchange_from_record", exchange_through_from_json):
        expected = loaded_exchanges(path)
    actual = loaded_exchanges(path)
    if isinstance(expected, str):  # both refuse it, naming the file and any field
        assert isinstance(actual, str) and str(path) in actual
        assert ("ChatExchange" in expected) <= ("ChatExchange." in actual)
    else:
        assert actual == expected


def test_truncated_transcript_detected(tmp_path) -> None:
    path = Path(persist_transcript(sample_transcript(), tmp_path))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")  # drop the checksum
    with pytest.raises(CorruptTranscript):
        load_transcript(path)


def test_tampered_transcript_detected(tmp_path) -> None:
    path = Path(persist_transcript(sample_transcript(), tmp_path))
    path.write_text(path.read_text(encoding="utf-8").replace('"x"', '"y"'), encoding="utf-8")
    with pytest.raises(CorruptTranscript):
        load_transcript(path)


def test_garbage_file_detected(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\nat all\nreally\n", encoding="utf-8")
    with pytest.raises(CorruptTranscript):
        load_transcript(path)


def checksummed(lines: list[bytes]) -> list[bytes]:
    """``lines`` and a checksum record that holds for them, as persist_transcript ends."""
    trailer = {"record": "checksum", "sha256": hashlib.sha256(b"".join(lines)).hexdigest()}
    return [*lines, (json.dumps(trailer, sort_keys=True) + "\n").encode("utf-8")]


# Each takes a sample transcript's lines (header, two exchanges, outcome, checksum) and
# makes them out of order; a checksum that holds leaves the order as the only fault.
@pytest.mark.parametrize("reorder", [
    lambda h, e1, e2, o, c: [h],
    lambda h, e1, e2, o, c: checksummed([h]),
    lambda h, e1, e2, o, c: [h, e1, e2, o, c, e1],
    lambda h, e1, e2, o, c: checksummed([h, e1, o, e2]),
    lambda h, e1, e2, o, c: checksummed([h, e1, e2, o, o]),
    lambda h, e1, e2, o, c: checksummed([h, e1, e2, o])[-1:] + [h, e1, e2, o],
    lambda h, e1, e2, o, c: [h, e1, e2, o, c[:len(c) // 2]],
], ids=["header-only", "no-outcome", "record-after-checksum", "exchange-after-outcome",
        "two-outcomes", "checksum-first", "torn-last-line"])
def test_records_out_of_order_are_corrupt(tmp_path, reorder) -> None:
    path = Path(persist_transcript(sample_transcript(), tmp_path))
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 5
    path.write_bytes(b"".join(reorder(*lines)))
    with pytest.raises(CorruptTranscript, match=re.escape(str(path))):
        load_transcript(path)


def test_no_cut_transcript_loads(tmp_path) -> None:
    """Every prefix of a transcript short of its final newline is refused."""
    data = Path(persist_transcript(sample_transcript(), tmp_path)).read_bytes()
    path = tmp_path / "cut.jsonl"
    for end in range(len(data) - 1):
        path.write_bytes(data[:end])
        with pytest.raises(CorruptTranscript, match=re.escape(str(path))):
            load_transcript(path)


def test_write_file_makes_a_missing_directory_only(tmp_path, monkeypatch) -> None:
    made = []
    real_mkdir = Path.mkdir

    def counting_mkdir(self, *args, **kwargs):
        made.append(self)
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting_mkdir)
    target = tmp_path / "a" / "b" / "out.php"
    assert write_file(target, "<?php echo 'é';\n") == target
    assert made[0] == target.parent
    made.clear()
    assert write_file(target, b"<?php") == target  # truncates and rewrites in place
    assert target.read_bytes() == b"<?php"
    assert made == []


def test_write_file_encodes_before_it_opens(tmp_path) -> None:
    target = tmp_path / "out.php"
    with pytest.raises(UnicodeEncodeError):
        write_file(target, "x = '\ud800'")
    assert not target.exists()


def test_write_file_writes_more_chunks_than_one_writev_takes(tmp_path) -> None:
    chunks = [f"line {index}: {'x' * (index % 37)}\n".encode() for index in range(3000)]
    assert len(chunks) > os.sysconf("SC_IOV_MAX")
    target = tmp_path / "many.jsonl"
    write_file(target, chunks)
    assert target.read_bytes() == b"".join(chunks)


def test_write_file_resumes_each_short_write(tmp_path, monkeypatch) -> None:
    real_writev = os.writev
    sizes = []

    def short_writev(fd, buffers):  # takes at most 5 bytes, as a file-size limit may
        sizes.append(len(buffers))
        return real_writev(fd, [b"".join(bytes(b) for b in buffers)[:5]])

    monkeypatch.setattr(os, "writev", short_writev)
    chunks = [b"", b"abc", b"defghijkl", b"", b"m", b"nopqrstuvwxyz"] * 400
    target = tmp_path / "short.jsonl"
    write_file(target, chunks)
    assert target.read_bytes() == b"".join(chunks)
    assert max(sizes) <= os.sysconf("SC_IOV_MAX")


def test_write_file_gives_a_file_the_mode_open_gives(tmp_path) -> None:
    previous = os.umask(0o027)
    try:
        write_file(tmp_path / "written.php", "<?php")
        with open(tmp_path / "opened.php", "wb"):
            pass
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "written.php").stat().st_mode)
    assert mode == 0o666 & ~0o027 == stat.S_IMODE((tmp_path / "opened.php").stat().st_mode)


json_text = st.text(st.characters() | st.characters(categories=["Cs"]))  # lone surrogates too
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_text, children, max_size=4),
    max_leaves=20,
)


@given(json_values)
@example(["é\x00\x1f\ud800", float("nan"), float("inf"), -float("inf"), 2**70, {"b": 1, "a": True}])
def test_a_transcript_line_is_what_json_dumps_writes(value) -> None:
    expected = (json.dumps(value, sort_keys=True) + "\n").encode("utf-8")
    assert vapu.workspace._encode_line(value) == expected


def test_a_transcript_line_without_the_c_encoder_is_the_same(monkeypatch) -> None:
    value = {"z": ["é\ud800", float("nan"), 1.5, None], "a": {"y": False, "b": 10**20}}
    expected = vapu.workspace._encode_line(value)
    monkeypatch.setattr(vapu.workspace, "_ENCODE", None)
    assert vapu.workspace._encode_line(value) == expected
    assert expected == (json.dumps(value, sort_keys=True) + "\n").encode("utf-8")


# Alphabets weighted toward what json escapes: '"', '\\' and the other two-character
# escapes only (the bytes path), all 128 ASCII code points with control characters and
# DEL, and those with non-ASCII text and lone surrogates.
short_escaped = st.sampled_from('"\\\n\r\t\b\f') | st.characters(min_codepoint=0x20,
                                                                 max_codepoint=0x7E)
any_ascii = st.sampled_from('"\\\n\x00\x1f\x7f') | st.characters(max_codepoint=0x7F)
any_text = any_ascii | st.sampled_from("é€\U0001f600") | st.characters(categories=["Cs"])
LONG_TEXT = vapu.workspace.LONG_TEXT


@st.composite
def around_long_text(draw) -> str:
    """A text as long as ``LONG_TEXT``, one character shorter or longer, or of any
    length up to three times it: a drawn core repeated."""
    core = draw(st.text(draw(st.sampled_from([short_escaped, any_ascii, any_text])),
                        min_size=1, max_size=40))
    length = draw(st.sampled_from([LONG_TEXT - 1, LONG_TEXT, LONG_TEXT + 1])
                  | st.integers(0, 3 * LONG_TEXT))
    return (core * (length // len(core) + 1))[:length]


@settings(deadline=None)
@given(around_long_text())
@example("\"\\\n\r\t\b\f<?php echo $a['b']; ?>" * (LONG_TEXT // 20))
@example("\\" * LONG_TEXT)
@example("x" * (LONG_TEXT - 1) + "\x7f")
@example("x" * LONG_TEXT + "\ud800")
def test_a_text_is_escaped_as_json_escapes_it(text) -> None:
    pieces: list[bytes] = []
    vapu.workspace._json_text(text, pieces)
    assert b"".join(pieces) == json.encoder.encode_basestring_ascii(text).encode("ascii")


@pytest.mark.parametrize("text, bytes_path", [
    ("x" * LONG_TEXT, True), ("a\"b\\c\n\r\t\b\f" * LONG_TEXT, True),
    ("x" * (LONG_TEXT - 1), False), ("x" * LONG_TEXT + "\x00", False),
    ("x" * LONG_TEXT + "\x7f", False), ("x" * LONG_TEXT + "é", False)])
def test_only_long_ascii_texts_with_two_character_escapes_take_the_bytes_path(
        text, bytes_path) -> None:
    pieces: list[bytes] = []
    vapu.workspace._json_text(text, pieces)
    # The bytes path writes the quotes as pieces of their own; json's escaper one piece.
    assert (len(pieces) == 3 and pieces[0] == pieces[2] == b'"') is bytes_path


def persisted_line_by_line(transcript: RunTranscript) -> bytes:
    """The transcript persist_transcript writes, made as the writer without a bytes path
    for long texts made it: every record one ``_encode_line`` call."""
    table = {text: index for index, text in
             enumerate(vapu.workspace._input_texts(transcript.inputs))}
    records = [{"record": "header", "format": vapu.workspace.TRANSCRIPT_FORMAT,
                "run_id": transcript.run_id, "config": transcript.config,
                "inputs": transcript.inputs},
               *(vapu.workspace._exchange_record(e, table) for e in transcript.exchanges),
               {"record": "outcome", "status": transcript.status,
                "outcome": vapu.workspace._outcome_record(transcript.outcome, table),
                "duration": transcript.duration}]
    body = b"".join(map(vapu.workspace._encode_line, records))
    checksum = {"record": "checksum", "sha256": hashlib.sha256(body).hexdigest()}
    return body + vapu.workspace._encode_line(checksum)


@settings(max_examples=50, deadline=None)
@given(pool=st.lists(around_long_text(), min_size=1, max_size=5),
       calls=st.lists(st.tuples(st.lists(st.integers(0, 4), min_size=1, max_size=4),
                                st.lists(st.integers(0, 4), min_size=1, max_size=3),
                                st.sampled_from(AgentRole), st.integers(0, 2)),
                      min_size=1, max_size=4),
       code=st.integers(0, 4))
def test_persist_transcript_writes_each_record_as_encode_line_does(
        tmp_path_factory, pool, calls, code) -> None:
    exchanges = []
    for started_at, (prompt, response, role, retries) in enumerate(calls):
        exchange = ChatExchange(role, "", "", 0.25, float(started_at), "m", 1.0, retries,
                                ["truncated"] if retries else [])
        exchange.prompt_parts = [pool[i % len(pool)] for i in prompt]
        exchange.response_parts = [pool[i % len(pool)] for i in response]
        exchanges.append(exchange)
    content = pool[code % len(pool)]
    transcript = RunTranscript(
        run_id="r", config={"model": "m"}, exchanges=exchanges,
        outcome={"final_code": {"path": "a.py", "content": content}}, duration=1.5,
        inputs={"code": {"path": "a.py", "content": content}})
    path = Path(persist_transcript(transcript, tmp_path_factory.mktemp("persisted")))
    assert path.read_bytes() == persisted_line_by_line(transcript)


def test_unordered_exchanges_rejected(tmp_path) -> None:
    transcript = sample_transcript()
    transcript.exchanges = [exchange(2.0), exchange(1.0)]
    with pytest.raises(ValueError):
        persist_transcript(transcript, tmp_path)


text_field = st.text(max_size=200)


@given(
    run_id=st.from_regex(r"[a-z][a-z0-9_]{0,20}", fullmatch=True),
    prompts=st.lists(st.tuples(text_field, text_field), max_size=5),
    duration=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    status=st.sampled_from(["completed", "aborted"]),
)
def test_round_trip_for_generated_transcripts(tmp_path_factory, run_id, prompts,
                                              duration, status) -> None:
    exchanges = [
        ChatExchange(role=AgentRole.VERIFIER, prompt=p or "p", response=r,
                     duration=0.0, started_at=float(i), model="m",
                     temperature=1.0, retries=i % 3, flags=["no_fence"] if i % 2 else [])
        for i, (p, r) in enumerate(prompts)
    ]
    original = RunTranscript(
        run_id=run_id, config={"model": "m"}, exchanges=exchanges,
        outcome={"status": status}, duration=duration,
        inputs={"code": {"content": "x"}}, status=status,
    )
    directory = tmp_path_factory.mktemp("transcripts")
    loaded = load_transcript(Path(persist_transcript(original, directory)))
    assert loaded == original


# --- format v2: prompts as template pieces plus a text table ---

DEMO = demo_root()


class SendLog(ReplayGateway):
    """Replays the demo fixtures and keeps every prompt string it was sent."""

    def __init__(self) -> None:
        super().__init__(load_replay_fixtures(DEMO / "fixtures"), model_id="gpt-4o")
        self.sent: list[str] = []

    def _send(self, role, prompt, params):
        self.sent.append(prompt)
        return super()._send(role, prompt, params)


def demo_run(output_dir: Path, gateway: Gateway) -> Path:
    req = RequirementSpec.from_text(
        id="requirements", text=(DEMO / "requirements.txt").read_text(encoding="utf-8"))
    code = load_codebase(DEMO / "legacy", ["*.php"])[0]
    config = RunConfig(model="gpt-4o", output_dir=output_dir, repetitions=1,
                       backend=Backend.REPLAY, fixtures_dir=DEMO / "fixtures")
    result = run_update(req, code, config, context=one_gateway(gateway))
    return output_dir / f"{result.transcript_ref}.jsonl"


def test_demo_prompts_load_as_the_strings_sent(tmp_path) -> None:
    gateway = SendLog()
    path = demo_run(tmp_path, gateway)
    loaded = load_transcript(path)
    assert [e.prompt for e in loaded.exchanges] == gateway.sent
    assert len(gateway.sent) == 10
    records = records_of(path)
    assert records[0]["format"] == "vapu-transcript-v4"
    assert all(isinstance(r["prompt"], list) for r in records[1:-1])
    # The input file is text 0: stored once, in the header.
    text = path.read_text(encoding="utf-8")
    content = loaded.inputs["code"]["content"]
    assert text.count(json.dumps(content)[1:-1]) == 1
    # Each code version the executor and finalizer fenced is stored once too,
    # though later prompts embed it and the outcome carries the last one.
    versions = [extract_code(e.response)[0] for e in loaded.exchanges if "```" in e.response]
    assert len(versions) == 3
    for version in versions:
        assert text.count(json.dumps(version)[1:-1]) == 1


def test_rewritten_prompt_is_stored_as_the_string_recorded(tmp_path) -> None:
    class Suffixing(SendLog):
        def complete(self, role, prompt, params):
            return super().complete(role, prompt + " ", params)

    gateway = Suffixing()
    path = demo_run(tmp_path, gateway)
    assert all(isinstance(r["prompt"], str) for r in records_of(path)[1:-1])
    assert [e.prompt for e in load_transcript(path).exchanges] == gateway.sent


def _undefine_first_text(records: list[dict]) -> None:
    # The first exchange's new texts move to the second: defined too late.
    records[2]["texts"] = records[1].pop("texts") + records[2].get("texts", [])


def _code_reply(records: list[dict]) -> dict:
    """The first exchange record whose reply references its code (the executor's)."""
    return next(r for r in records[1:-1] if isinstance(r["response"], list))


def _reply_reference(value: object):
    return lambda records: _code_reply(records).update(response=["x", value])


def _define_reply_code_later(records: list[dict]) -> None:
    # The reply's code is its record's last new text; the next record defines it instead.
    at = records.index(_code_reply(records))
    code = records[at]["texts"].pop()
    records[at + 1]["texts"] = [code, *records[at + 1].get("texts", [])]


def _final_code_reference(value: object):
    return lambda records: records[-1]["outcome"]["final_code"].update(content=value)


def _inputs_as_a_list(records: list[dict]) -> None:
    # The text table starts from the header's inputs, so its error names them.
    records[0]["inputs"] = [1]


def _final_code_at_next_index(records: list[dict]) -> None:
    # No record follows the outcome, so the closest it comes to a text
    # defined later is the index the next new text would take.
    table_size = 1 + sum(len(r.get("texts", [])) for r in records[1:-1])
    records[-1]["outcome"]["final_code"]["content"] = table_size


@pytest.mark.parametrize("edit", [
    lambda records: records[1].update(prompt=["x", 999]),
    lambda records: records[1].update(prompt=["x", -1]),
    _undefine_first_text,
    lambda records: records[1].update(prompt=["x", 1.0]),
    lambda records: records[1].update(prompt=["x", True]),
    lambda records: records[1].update(prompt=["x", None]),
    lambda records: records[1].update(prompt=[["x"]]),
    lambda records: records[1].update(texts="not a list"),
    lambda records: records[1].update(texts=[0]),
    _reply_reference(999),
    _reply_reference(-1),
    _define_reply_code_later,
    _reply_reference(5.0),
    _reply_reference(True),
    _final_code_reference(999),
    _final_code_reference(-1),
    _final_code_at_next_index,
    _final_code_reference(1.0),
    _final_code_reference(True),
    lambda records: records[1].pop("role"),
    lambda records: records[1].update(role="boss"),
    lambda records: records[0].pop("run_id"),
    lambda records: records[-1].update(outcome=[]),
    lambda records: records[-1].pop("duration"),
    _inputs_as_a_list,
], ids=["out-of-range", "negative", "defined-later", "float", "bool", "null", "list",
        "texts-string", "texts-int",
        "reply-out-of-range", "reply-negative", "reply-defined-later", "reply-float",
        "reply-bool",
        "final-code-out-of-range", "final-code-negative", "final-code-next-index",
        "final-code-float", "final-code-bool",
        "exchange-without-role", "unknown-role", "header-without-run-id",
        "outcome-not-an-object", "outcome-without-duration", "inputs-not-an-object"])
def test_bad_text_reference_is_corrupt(tmp_path, edit) -> None:
    path = demo_run(tmp_path, SendLog())
    records = records_of(path)
    edit(records)
    write_records(path, records)
    with pytest.raises(CorruptTranscript) as excinfo:
        load_transcript(path)
    if edit is _inputs_as_a_list:
        assert "inputs" in str(excinfo.value)


def test_rewritten_records_still_load(tmp_path) -> None:
    """write_records itself makes loadable files, so the failures above are the edits'."""
    path = demo_run(tmp_path, SendLog())
    expected = load_transcript(path)
    write_records(path, records_of(path))
    assert load_transcript(path) == expected


INPUT_CODE = "<?php echo $x; ?>\n"
# A small pool, so values repeat within and across prompts, and the input
# file (text 0) is among them.
pool_text = st.sampled_from(["", " ", "\n", "{{task}}", "\\g<0>", "x", INPUT_CODE]) | text_field
odd_parts = st.lists(pool_text, min_size=1, max_size=9).map(
    lambda items: items if len(items) % 2 else items + [""])


@given(parts_per_prompt=st.lists(odd_parts, max_size=6), plain=st.lists(st.booleans()),
       replies=st.lists(st.none() | odd_parts), final_code=pool_text)
def test_round_trip_for_generated_prompt_parts(tmp_path_factory, parts_per_prompt,
                                               plain, replies, final_code) -> None:
    reply_parts = [replies[i] if i < len(replies) else None
                   for i in range(len(parts_per_prompt))]
    exchanges = []
    for i, (parts, reply) in enumerate(zip(parts_per_prompt, reply_parts)):
        exchanges.append(ChatExchange(
            role=AgentRole.EXECUTOR, prompt="".join(parts),
            response="r" if reply is None else "".join(reply),
            duration=0.0, started_at=float(i), model="m", temperature=0.0))
        if not (i < len(plain) and plain[i]):
            exchanges[-1].prompt_parts = parts
        if reply is not None:
            exchanges[-1].response_parts = reply
    original = RunTranscript(run_id="f", config={"model": "m"}, exchanges=exchanges,
                             outcome={"final_code": {"content": final_code}},
                             inputs={"code": {"content": INPUT_CODE}})
    directory = tmp_path_factory.mktemp("transcripts")
    path = Path(persist_transcript(original, directory))
    loaded = load_transcript(path)
    assert [e.prompt for e in loaded.exchanges] == ["".join(p) for p in parts_per_prompt]
    assert loaded == original
    # The parts survive the load, so persisting again writes the same file.
    assert Path(persist_transcript(loaded, directory / "again")).read_bytes() == path.read_bytes()


def test_a_loaded_transcripts_exchanges_share_one_str_per_table_text(tmp_path) -> None:
    loaded = load_transcript(demo_run(tmp_path, SendLog()))
    table: dict[str, str] = {}
    for e in loaded.exchanges:
        # Every part of a prompt or reply stored as a list is a table text.
        for parts in (e.prompt_parts, e.response_parts):
            for text in parts if len(parts) > 1 else ():
                assert table.setdefault(text, text) is text
    code = loaded.inputs["code"]["content"]
    assert table[code] is code
    assert table[loaded.outcome["final_code"]["content"]] is loaded.outcome["final_code"]["content"]
    assert len(table) > 5


def test_a_loaded_transcript_holds_each_text_once(tmp_path) -> None:
    """Prompts that embed a file several times hold it once after a load, as the file does."""
    before = "".join(f"<p><?php echo $row['Item']['field_{i}']; ?></p>\n" for i in range(2500))
    after = before.replace("echo $row['Item']", "echo $row->item")
    assert len(before) > 100_000
    reply = ["Updated:\n```php\n", after, "\n```\n"]
    exchanges = []
    for i in range(8):
        parts = ["Compare\n", before, "\nwith\n", after, "\nand answer ACCEPT or REJECT."]
        exchange = ChatExchange(role=AgentRole.VERIFIER, prompt="".join(parts),
                                response="ACCEPT", duration=0.0, started_at=float(i),
                                model="m", temperature=0.0)
        exchange.prompt_parts = parts
        if i % 2:
            exchange.response_parts = reply
        exchanges.append(exchange)
    original = RunTranscript(run_id="f", config={"model": "m"}, exchanges=exchanges,
                             outcome={"final_code": {"content": after}},
                             inputs={"code": {"content": before}})
    path = Path(persist_transcript(original, tmp_path))
    load_transcript(path)  # made once untraced, so first-use caches are not counted
    tracemalloc.start()
    try:
        loaded = load_transcript(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == original
    assert held <= 1.5 * path.stat().st_size


def test_loading_a_large_transcript_peaks_below_2_2_times_its_file(tmp_path) -> None:
    """Each line is parsed as it is read: the file is never held whole beside its records."""
    versions = ["".join(f"<p><?php echo $row['Item']['f{v}_{i}']; ?></p>\n" for i in range(1500))
                for v in range(5)]
    exchanges = []
    for before, after in zip(versions, versions[1:]):
        for parts, reply in ((["Apply\n```\n", before, "\n```\n"], ["```php\n", after, "\n```"]),
                             (["Compare\n", before, "\nwith\n", after, "\n"], ["ACCEPT"])):
            exchange = ChatExchange(role=AgentRole.VERIFIER, prompt="".join(parts),
                                    response="".join(reply), duration=0.0,
                                    started_at=float(len(exchanges)), model="m", temperature=0.0)
            exchange.prompt_parts, exchange.response_parts = parts, reply
            exchanges.append(exchange)
    original = RunTranscript(run_id="f", config={"model": "m"}, exchanges=exchanges,
                             outcome={"final_code": {"content": versions[-1]}},
                             inputs={"code": {"content": versions[0]}})
    path = Path(persist_transcript(original, tmp_path))
    assert path.stat().st_size > 200_000
    load_transcript(path)  # made once untraced, so first-use caches are not counted
    tracemalloc.start()
    try:
        loaded = load_transcript(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == original
    assert peak <= 2.2 * path.stat().st_size


# --- format v3: code replies and the final code as table references ---

def demo_command(tmp_path: Path, kind: str) -> list[str]:
    """A demo CLI run: update, a zsl or osl baseline, or an update that aborts."""
    common = ["--backend", "replay", "--requirements", str(DEMO / "requirements.txt"),
              "--project", str(DEMO / "legacy"), "--model", "gpt-4o", "--runs", "1",
              "--output-dir", str(tmp_path / "runs")]
    if kind == "update":
        return ["update", *common, "--fixtures", str(DEMO / "fixtures")]
    if kind == "aborted":  # the third verdict is missing, so task 2 fails
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        for source in (DEMO / "fixtures").glob("*.txt"):
            if source.name != "verifier-2.txt":
                (fixtures / source.name).write_bytes(source.read_bytes())
        return ["update", *common, "--fixtures", str(fixtures)]
    baseline = ["baseline", *common, "--fixtures", str(DEMO / "fixtures-baseline"),
                "--method", kind]
    if kind == "osl":
        example = tmp_path / "example.json"
        example.write_text(json.dumps({"input": "$a['B']['c']", "output": "$a->c"}),
                           encoding="utf-8")
        baseline += ["--example", str(example)]
    return baseline


@pytest.mark.parametrize("kind", ["update", "zsl", "osl", "aborted"])
def test_demo_transcript_loads_as_run_and_persists_again_unchanged(tmp_path, monkeypatch,
                                                                   kind) -> None:
    persisted = []
    real_persist = vapu.pipeline.persist_transcript

    def keeping(transcript, directory):
        path = real_persist(transcript, directory)
        persisted.append((transcript, Path(path)))
        return path

    monkeypatch.setattr(vapu.pipeline, "persist_transcript", keeping)
    assert main(demo_command(tmp_path, kind)) == (9 if kind == "aborted" else 0)
    [(transcript, path)] = persisted
    records = records_of(path)
    assert any(isinstance(r["response"], list) for r in records[1:-1])
    final_code = records[-1]["outcome"].get("final_code")
    assert kind == "aborted" or isinstance(final_code["content"], int)
    loaded = load_transcript(path)
    assert loaded == transcript
    again = Path(persist_transcript(loaded, tmp_path / "again"))
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("reshape, stored_as", [
    (lambda reply: reply + "\n```\nextra\n```\n", str),
    (lambda reply: "\n  " + extract_code(reply)[0] + " \n", list),
], ids=["several-fenced-blocks", "unfenced"])
def test_code_reply_is_a_reference_only_when_its_code_is_one_slice(tmp_path, reshape,
                                                                   stored_as) -> None:
    class Reshaping(SendLog):
        def __init__(self) -> None:
            super().__init__()
            self.replies: list[str] = []

        def _send(self, role, prompt, params):
            reply = super()._send(role, prompt, params)
            if role in (AgentRole.EXECUTOR, AgentRole.FINALIZER):
                reply = reshape(reply)
            self.replies.append(reply)
            return reply

    gateway = Reshaping()
    path = demo_run(tmp_path, gateway)
    code_replies = [r["response"] for r in records_of(path)[1:-1]
                    if r["role"] in ("executor", "finalizer")]
    assert len(code_replies) == 3
    assert all(isinstance(reply, stored_as) for reply in code_replies)
    assert [e.response for e in load_transcript(path).exchanges] == gateway.replies
