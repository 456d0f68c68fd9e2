from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from vapu.errors import ConfigInvalid, CorruptTranscript, NoFilesMatched
from vapu.gateway import ChatExchange
from vapu.models import AgentRole
from vapu.workspace import (
    Backend,
    Method,
    RunConfig,
    RunTranscript,
    language_tag_for,
    load_codebase,
    load_transcript,
    make_run_id,
    persist_transcript,
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


# --- config validation ---

def test_replay_requires_fixtures_dir(tmp_path) -> None:
    config = RunConfig(model="m", output_dir=tmp_path, backend=Backend.REPLAY)
    with pytest.raises(ConfigInvalid):
        config.validate()


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


def test_snapshot_is_json_friendly(tmp_path) -> None:
    config = RunConfig(model="m", output_dir=tmp_path, backend=Backend.REPLAY,
                       fixtures_dir=tmp_path / "fx")
    snapshot = config.snapshot()
    assert snapshot["backend"] == "replay"
    assert snapshot["fixtures_dir"].endswith("fx")


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


def test_language_tags() -> None:
    assert language_tag_for(Path("x.py")) == "python"
    assert language_tag_for(Path("x.ctp")) == "php"
    assert language_tag_for(Path("x.weird")) == "weird"
    assert language_tag_for(Path("Makefile")) == "text"


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
    path = persist_transcript(original, tmp_path)
    loaded = load_transcript(path)
    assert loaded == original


def test_truncated_transcript_detected(tmp_path) -> None:
    path = persist_transcript(sample_transcript(), tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")  # drop the checksum
    with pytest.raises(CorruptTranscript):
        load_transcript(path)


def test_tampered_transcript_detected(tmp_path) -> None:
    path = persist_transcript(sample_transcript(), tmp_path)
    path.write_text(path.read_text(encoding="utf-8").replace('"x"', '"y"'), encoding="utf-8")
    with pytest.raises(CorruptTranscript):
        load_transcript(path)


def test_garbage_file_detected(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\nat all\nreally\n", encoding="utf-8")
    with pytest.raises(CorruptTranscript):
        load_transcript(path)


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
    loaded = load_transcript(persist_transcript(original, directory))
    assert loaded == original
