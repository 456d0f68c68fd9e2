"""Pinned v1 to v4 transcripts load, replay and score as a fresh run does.

``data/v1/`` to ``data/v4/`` hold the demo ``update`` and ``baseline
--method zsl`` transcripts as the v1 to v4 writers made them (run from
a directory holding a copy of the demo, so the config paths are
relative); ``data/v3/`` and ``data/v4/`` also hold a ``baseline --method
osl --example demo/example.json`` transcript.  The v1 files keep the
test ids they had before the others joined them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from conftest import records_of, write_records
from vapu.cli import demo_root, main
from vapu.gateway import ChatExchange
from vapu.models import AgentRole, from_json, to_json
from vapu.prompts import default_templates
from vapu.workspace import (
    Method,
    RunConfig,
    RunTranscript,
    load_transcript,
    persist_transcript,
    read_header,
)

DATA = Path(__file__).parent / "data"
DEMO = demo_root()
VAPU_NAME = "reference_list-vapu-gpt-4o-t0-r1.jsonl"
ZSL_NAME = "reference_list-zsl-gpt-4o-t0-r1.jsonl"
OSL_NAME = "reference_list-osl-gpt-4o-t0-r1.jsonl"
OLD_FORMATS = ("v1", "v2", "v3")
FORMATS = (*OLD_FORMATS, "v4")


def pinned(versions: tuple[str, ...]) -> list:
    """The pinned transcripts of ``versions``: an osl one from v3 on."""
    return [pytest.param(DATA / version / name, method,
                         id=kind if version == "v1" else f"{version}-{kind}")
            for version in versions
            for name, method, kind in (
                (VAPU_NAME, "vapu", "update"), (ZSL_NAME, "zsl", "zsl"),
                *([(OSL_NAME, "osl", "osl")] if version not in ("v1", "v2") else []))]


OLD_TRANSCRIPTS = pinned(OLD_FORMATS)
TRANSCRIPTS = pinned(FORMATS)


def as_written(path: Path) -> RunTranscript:
    """What the reader of the file's own format built: v2 list prompts, v3
    and v4 list replies and a final code reference resolved through the text
    table, every other field taken as written."""
    header, *middle, outcome, _ = [
        json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert header["format"] == f"vapu-transcript-{path.parent.name}"
    table = [header["inputs"]["code"]["content"]]
    exchanges = []
    for record in middle:
        table += record.pop("texts", [])
        for key in ("prompt", "response"):
            if isinstance(record[key], list):
                record[key] = "".join(
                    table[piece] if isinstance(piece, int) else piece for piece in record[key])
        exchanges.append(exchange_as_written(record))
    final_code = outcome["outcome"].get("final_code")
    if final_code and isinstance(final_code["content"], int):
        final_code["content"] = table[final_code["content"]]
    return RunTranscript(
        run_id=header["run_id"],
        config=header["config"],
        exchanges=exchanges,
        outcome=outcome["outcome"],
        duration=outcome["duration"],
        inputs=header["inputs"],
        status=outcome["status"],
    )


def exchange_as_written(record: dict) -> ChatExchange:
    """The exchange a record holds, read field by field apart from the loader's reader."""
    known = {name: record[name] for name in ChatExchange.__dataclass_fields__ if name in record}
    known["role"] = AgentRole(record["role"])
    known["flags"] = list(record.get("flags", []))
    return ChatExchange(**known)


def remake(tmp_path: Path, monkeypatch) -> Path:
    """The same three demo runs, written now as the pinned ones were: from ``tmp_path``
    holding a copy of the demo, into ``runs/<method>``, the one-shot run showing the
    pair the v3 fixture recorded.  Returns the runs directory."""
    shutil.copytree(DEMO, tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    pair = load_transcript(DATA / "v3" / OSL_NAME).inputs["example"]
    Path("demo/example.json").write_text(json.dumps(dict(zip(("input", "output"), pair))),
                                         encoding="utf-8")
    common = ["--backend", "replay", "--requirements", "demo/requirements.txt",
              "--project", "demo/legacy", "--model", "gpt-4o", "--temperature", "0", "--runs", "1"]
    assert main(["update", *common, "--fixtures", "demo/fixtures",
                 "--output-dir", "runs/vapu"]) == 0
    baseline = ["baseline", *common, "--fixtures", "demo/fixtures-baseline"]
    assert main([*baseline, "--method", "zsl", "--output-dir", "runs/zsl"]) == 0
    assert main([*baseline, "--method", "osl", "--example", "demo/example.json",
                 "--output-dir", "runs/osl"]) == 0
    return tmp_path / "runs"


def as_read(transcript: RunTranscript) -> tuple[dict, dict, str]:
    """Inputs, outcome and status, without the fields v4 no longer writes: a code
    document's ``loc`` and the outcome's ``transcript_ref``."""
    def code(value):
        return {k: v for k, v in value.items() if k != "loc"} if value else value

    inputs = {**transcript.inputs, "code": code(transcript.inputs["code"])}
    outcome = {k: v for k, v in transcript.outcome.items() if k != "transcript_ref"}
    if "final_code" in outcome:
        outcome["final_code"] = code(outcome["final_code"])
    return inputs, outcome, transcript.status


@pytest.mark.parametrize("path, method", TRANSCRIPTS)
def test_v1_loads_as_before(path, method) -> None:
    assert load_transcript(path) == as_written(path)


@pytest.mark.parametrize("path, method", TRANSCRIPTS)
def test_v1_and_v2_of_one_run_load_alike(tmp_path, monkeypatch, path, method) -> None:
    old = load_transcript(path)
    new = load_transcript(remake(tmp_path, monkeypatch) / method / path.name)
    assert old.run_id == new.run_id
    assert as_read(old) == as_read(new)
    assert [(e.role, e.prompt, e.response, e.flags) for e in old.exchanges] == \
        [(e.role, e.prompt, e.response, e.flags) for e in new.exchanges]


def records_apart_from_timings(path: Path) -> list[dict]:
    """A transcript's JSON records without the keys that change from run to run:
    ``duration``, ``started_at`` and the ``sha256`` of the lines holding them."""
    return [{key: value for key, value in json.loads(line).items()
             if key not in ("duration", "started_at", "sha256")}
            for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("name", [VAPU_NAME, ZSL_NAME, OSL_NAME])
def test_a_fresh_run_writes_the_pinned_v4_records(tmp_path, monkeypatch, name) -> None:
    """Every key the writer puts in a record, the config and each exchange's model
    and temperature included, as the v4 writer put it."""
    method = name.split("-")[1]
    fresh = remake(tmp_path, monkeypatch) / method / name
    assert records_apart_from_timings(fresh) == records_apart_from_timings(DATA / "v4" / name)


@pytest.mark.parametrize("path, method", pinned(("v4",)))
def test_a_loaded_v4_transcript_persists_byte_identically(tmp_path, path, method) -> None:
    assert Path(persist_transcript(load_transcript(path), tmp_path)).read_bytes() == path.read_bytes()


# A v3 list of one piece: the zsl prompt stored as one literal, or as one reference
# (to text 0, the input file).
LONE_PIECES = {"lone-literal": "Update the view.", "lone-reference": 0}
# The sha256 of persist_transcript(load_transcript(f)) for each pinned v1-v3 file and
# each lone-piece v3 file, so a change to how old lists load cannot change what is
# written back.
REWRITTEN = {
    "v1/" + VAPU_NAME: "da62d627fe0efb5f31675ba965de630e98256b8e5ee83fc705cd72a8e4222dee",
    "v1/" + ZSL_NAME: "4409861e7be862a5dff240d577df95c4e5304b50f17461e9364bfdce7988fea0",
    "v2/" + VAPU_NAME: "8db742b1427d326feb2f66988a4581284b445fea257861dcd071364f686e1891",
    "v2/" + ZSL_NAME: "f0996d4f3ad009758cd4909454fbe0eb2f2daa22a15fadc220033fe28a680044",
    "v3/" + OSL_NAME: "23ace28a6c9c271afbb9ed445027dffcf470d1cd972fc6a420a4f5f926d3c429",
    "v3/" + VAPU_NAME: "bfc91689902cf6518e5b2028414ee44254d3cb62fbebfc0815e5136cfc5f80b0",
    "v3/" + ZSL_NAME: "22e8915cc9c3c47f4246c1d58c3502e98e16ae7217db34cc56d841e10b00a04a",
    "lone-literal": "ff33a7db829505158e8f39be5f913e54753591534b1f5b3fd9ccdc98a698c73b",
    "lone-reference": "15054b877f4b3725cd4c6751d30ea10844bf88dcb3892626ecabe7ec189d52de",
}


@pytest.mark.parametrize("name", sorted(REWRITTEN))
def test_an_old_transcript_persists_again_to_the_pinned_bytes(tmp_path, name) -> None:
    path = DATA / name
    if name in LONE_PIECES:
        records = records_of(DATA / "v3" / ZSL_NAME)
        records[1]["prompt"] = [LONE_PIECES[name]]
        path = tmp_path / ZSL_NAME
        write_records(path, records)
    again = Path(persist_transcript(load_transcript(path), tmp_path / "again")).read_bytes()
    assert hashlib.sha256(again).hexdigest() == REWRITTEN[name]


@pytest.mark.parametrize("name", [VAPU_NAME, ZSL_NAME, OSL_NAME])
def test_v3_loads_into_the_parts_of_v4_and_v2_into_its_prompt_parts(name) -> None:
    v4 = load_transcript(DATA / "v4" / name).exchanges
    v3 = load_transcript(DATA / "v3" / name).exchanges
    assert [(e.prompt_parts, e.response_parts) for e in v3] == \
        [(e.prompt_parts, e.response_parts) for e in v4]
    if name != OSL_NAME:  # v2 has no one-shot run, and stores replies in full
        v2 = load_transcript(DATA / "v2" / name).exchanges
        assert [e.prompt_parts for e in v2] == [e.prompt_parts for e in v4]


@pytest.mark.parametrize("path, method", pinned(("v4",)))
def test_each_template_literal_is_stored_once_in_a_v4_file(path, method) -> None:
    """Every text a record defines is new to the table, and the table holds each
    literal of every template the run rendered."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    table = [records[0]["inputs"]["code"]["content"]]
    for record in records[1:-2]:
        table += record.get("texts", [])
        for key in ("prompt", "response"):  # a list holds references only
            assert isinstance(record[key], str) or all(type(i) is int for i in record[key])
    assert len(set(table)) == len(table)
    names = (("manager", "reflection", "prompt_maker", "executor", "verifier", "finalizer")
             if method == "vapu" else (method,))
    literals = {piece for name in names for piece in default_templates()[name].pieces[::2]
                if piece}
    assert literals <= set(table)


@pytest.mark.parametrize("path, method", OLD_TRANSCRIPTS)
def test_v1_header_reads_back_through_the_typed_reader(path, method) -> None:
    config = load_transcript(path).config
    assert to_json(from_json(RunConfig, config)) == config


@pytest.mark.parametrize("path, method", TRANSCRIPTS)
def test_old_header_reads_as_a_typed_run(path, method) -> None:
    transcript = load_transcript(path)
    header = read_header(transcript, path)
    assert header.config.method is Method(method)
    assert header.config.output_dir == path.parent
    assert (header.requirement.id, header.code.path, header.repetition) == \
        ("requirements", "reference_list.php", 1)
    assert header.final_code.content == transcript.outcome["final_code"]["content"]
    assert (header.example is not None) == (method == "osl")


@pytest.mark.parametrize("path, method", TRANSCRIPTS)
def test_v1_replays_byte_identically(path, method, capsys, tmp_path, monkeypatch) -> None:
    # From a directory without the demo copy: the one-shot pair comes from the header.
    monkeypatch.chdir(tmp_path)
    assert not Path("demo").exists()
    assert main(["replay", "--transcript", str(path)]) == 0
    assert "byte-identically" in capsys.readouterr().out


def test_v1_scores_like_v2(tmp_path, monkeypatch) -> None:
    """Each pinned format scores the same records as a fresh run, apart from durations."""
    remake(tmp_path, monkeypatch)
    scored = {}
    for label in (*FORMATS, "runs"):
        runs_dir = tmp_path / label
        for method, name in (("vapu", VAPU_NAME), ("zsl", ZSL_NAME)):
            if label != "runs":
                (runs_dir / method).mkdir(parents=True)
                shutil.copy(DATA / label / name, runs_dir / method)
            output = tmp_path / f"scored-{label}-{method}.json"
            assert main(["evaluate", "--runs-dir", str(runs_dir / method),
                         "--annotations", str(DEMO / "annotations.json"),
                         "--output", str(output)]) == 0
            records = json.loads(output.read_text(encoding="utf-8"))["records"]
            scored[label, method] = [
                {k: v for k, v in r.items() if k != "duration"} for r in records]
    for label in FORMATS:
        for method in ("vapu", "zsl"):
            assert len(scored[label, method]) == 1
            assert scored[label, method] == scored["runs", method]
