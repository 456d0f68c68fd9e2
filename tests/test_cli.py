from __future__ import annotations

import builtins
import errno
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import fenced, records_of, write_fixtures, write_records
import vapu.cli
import vapu.pipeline
import vapu.prompts
from vapu.cli import demo_root, main
from vapu.errors import ConfigInvalid, VapuError
from vapu.gateway import ReplayGateway, load_replay_fixtures
from vapu.evaluation import load_annotations, python_syntax_checker, score_transcript
from vapu.models import RequirementSpec, to_json
from vapu.workspace import (
    UNRECORDED_CONFIG,
    Backend,
    RunConfig,
    load_codebase,
    load_transcript,
    read_header,
)

DEMO = demo_root()


def demo_update_args(project: Path, out: Path, runs: int = 1) -> list[str]:
    return [
        "update",
        "--backend", "replay",
        "--fixtures", str(DEMO / "fixtures"),
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(project),
        "--model", "gpt-4o",
        "--temperature", "0",
        "--runs", str(runs),
        "--output-dir", str(out),
    ]


def run_demo_update(tmp_path: Path) -> Path:
    out = tmp_path / "vapu-runs"
    assert main(demo_update_args(DEMO / "legacy", out)) == 0
    return out


def demo_project(root: Path, *paths: str) -> Path:
    """A project holding the demo view under each of the given paths."""
    view = (DEMO / "legacy" / "reference_list.php").read_text(encoding="utf-8")
    for rel in paths:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(view, encoding="utf-8")
    return root


def test_update_writes_transcript_and_updated_file(tmp_path, capsys) -> None:
    out = run_demo_update(tmp_path)
    transcripts = list(out.glob("*.jsonl"))
    assert len(transcripts) == 1
    assert (out / "reference_list-vapu-gpt-4o-t0-r1" / "reference_list.php").exists()
    assert "verified" in capsys.readouterr().out


def test_unknown_subcommand_prints_usage(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_replay_config_error_exit_code(tmp_path, capsys) -> None:
    status = main([
        "update", "--backend", "replay",
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(DEMO / "legacy"),
        "--model", "gpt-4o", "--output-dir", str(tmp_path / "out"),
    ])
    assert status == 2  # replay without --fixtures
    assert "fixtures" in capsys.readouterr().err


def test_unknown_model_exit_code(tmp_path) -> None:
    status = main([
        "update", "--backend", "live",
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(DEMO / "legacy"),
        "--model", "gpt-5-unknown", "--runs", "1",
        "--output-dir", str(tmp_path / "out"),
    ])
    assert status == 3


def test_fixture_gap_exit_code(tmp_path) -> None:
    fixtures = write_fixtures(tmp_path / "fx", {"executor-0": "a", "executor-2": "b"})
    status = main([
        "update", "--backend", "replay", "--fixtures", str(fixtures),
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(DEMO / "legacy"),
        "--model", "gpt-4o", "--runs", "1",
        "--output-dir", str(tmp_path / "out"),
    ])
    assert status == 8


def test_aborted_run_exit_code(tmp_path) -> None:
    fixtures = write_fixtures(tmp_path / "fx", {
        "manager-0": "1. a", "manager-1": "1. a",
        "prompt_maker-0": "do it",
        # no executor fixture: the run aborts at task 1
    })
    status = main([
        "update", "--backend", "replay", "--fixtures", str(fixtures),
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(DEMO / "legacy"),
        "--model", "gpt-4o", "--runs", "1",
        "--output-dir", str(tmp_path / "out"),
    ])
    assert status == 9


def test_baseline_subcommand(tmp_path) -> None:
    out = tmp_path / "zsl-runs"
    status = main([
        "baseline",
        "--backend", "replay",
        "--fixtures", str(DEMO / "fixtures-baseline"),
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(DEMO / "legacy"),
        "--model", "gpt-4o", "--temperature", "0",
        "--runs", "1", "--method", "zsl",
        "--output-dir", str(out),
    ])
    assert status == 0
    assert (out / "reference_list-zsl-gpt-4o-t0-r1.jsonl").exists()


def test_zero_shot_baseline_refuses_an_example(tmp_path, capsys) -> None:
    example = tmp_path / "example.json"
    example.write_text(json.dumps({"input": "old()", "output": "new()"}), encoding="utf-8")
    args = demo_osl_args(example, tmp_path / "zsl-runs")
    args[args.index("osl")] = "zsl"
    assert main(args) == 2
    assert "--example" in capsys.readouterr().err
    assert not (tmp_path / "zsl-runs").exists()


def test_evaluate_and_report_flow(tmp_path) -> None:
    vapu_out = run_demo_update(tmp_path)
    zsl_out = tmp_path / "zsl-runs"
    assert main([
        "baseline", "--backend", "replay",
        "--fixtures", str(DEMO / "fixtures-baseline"),
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(DEMO / "legacy"),
        "--model", "gpt-4o", "--temperature", "0",
        "--runs", "1", "--method", "zsl",
        "--output-dir", str(zsl_out),
    ]) == 0
    vapu_scored = tmp_path / "vapu-scored.json"
    zsl_scored = tmp_path / "zsl-scored.json"
    assert main(["evaluate", "--runs-dir", str(vapu_out),
                 "--annotations", str(DEMO / "annotations.json"),
                 "--output", str(vapu_scored)]) == 0
    assert main(["evaluate", "--runs-dir", str(zsl_out),
                 "--annotations", str(DEMO / "annotations.json"),
                 "--output", str(zsl_scored)]) == 0

    scored = json.loads(vapu_scored.read_text(encoding="utf-8"))
    record = scored["records"][0]
    assert record["error_count"] == 0
    assert record["requirement_score"] == 2
    assert record["checkmarks"]["score"] == 3

    zsl_record = json.loads(zsl_scored.read_text(encoding="utf-8"))["records"][0]
    assert zsl_record["error_count"] == 1  # annotated runtime error
    assert zsl_record["requirement_score"] == 1

    report_dir = tmp_path / "report"
    assert main(["report", "--compare", str(vapu_scored), str(zsl_scored),
                 "--output-dir", str(report_dir)]) == 0
    report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    assert report["vapu"]["total"] == 3
    assert report["baseline"]["total"] == 2
    assert report["overall_delta"] == 1
    assert (report_dir / "report.tsv").exists()
    assert (report_dir / "report.txt").exists()


def test_evaluate_without_transcripts(tmp_path) -> None:
    empty = tmp_path / "empty"
    empty.mkdir()
    status = main(["evaluate", "--runs-dir", str(empty),
                   "--annotations", str(DEMO / "annotations.json"),
                   "--output", str(tmp_path / "scored.json")])
    assert status == 13


def test_replay_subcommand_round_trip(tmp_path, capsys) -> None:
    out = run_demo_update(tmp_path)
    transcript = next(out.glob("*.jsonl"))
    assert main(["replay", "--transcript", str(transcript)]) == 0
    assert "byte-identically" in capsys.readouterr().out


def test_a_moved_transcript_directory_evaluates_alike_and_replays(tmp_path, capsys) -> None:
    """A transcript records no machine path, so where its directory lies changes nothing."""
    out = run_demo_update(tmp_path)
    [path] = out.glob("*.jsonl")
    assert str(tmp_path).encode("utf-8") not in path.read_bytes()

    def scored(runs: Path) -> list[dict]:
        output = tmp_path / "scored.json"
        assert main(["evaluate", "--runs-dir", str(runs),
                     "--annotations", str(DEMO / "annotations.json"),
                     "--output", str(output)]) == 0
        return json.loads(output.read_text(encoding="utf-8"))["records"]

    before = scored(out)
    moved = tmp_path / "elsewhere" / "runs"
    moved.parent.mkdir()
    shutil.move(out, moved)
    assert scored(moved) == before
    capsys.readouterr()
    assert main(["replay", "--transcript", str(moved / path.name)]) == 0
    assert "byte-identically" in capsys.readouterr().out


@pytest.mark.parametrize("code_path", ["ABSOLUTE", "../../../victim.php", "a/../../b.php",
                                       ".", ""])
def test_replay_refuses_a_code_path_outside_the_project(tmp_path, monkeypatch, capsys,
                                                        code_path) -> None:
    out = run_demo_update(tmp_path)
    [path] = out.glob("*.jsonl")
    victim = tmp_path / "victim.php"
    if code_path == "ABSOLUTE":
        code_path = str(victim)
    records = records_of(path)
    records[0]["inputs"]["code"]["path"] = code_path
    write_records(path, records)
    # Replay's scratch directory is tmp/vapu-replay-*/: "../../../victim.php" from
    # the run's directory under it is the victim.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["replay", "--transcript", str(path)]) == 14
    err = capsys.readouterr().err
    assert str(path) in err and "inputs.code.path" in err
    assert sorted(tmp_path.rglob("*")) == before and not victim.exists()


def test_replay_detects_mismatch(tmp_path, capsys) -> None:
    out = run_demo_update(tmp_path)
    path = next(out.glob("*.jsonl"))
    transcript = load_transcript(path)
    transcript.outcome["final_code"]["content"] += "\ntampered"
    from vapu.workspace import persist_transcript
    persist_transcript(transcript, path.parent)
    capsys.readouterr()
    assert main(["replay", "--transcript", str(path)]) == 19
    assert capsys.readouterr() == ("", f"error: {transcript.run_id}: MISMATCH - replayed "
                                       f"final code differs from the recorded output\n")


# JSON nested deeper than json's parser recurses: it raises RecursionError on 3.10-3.13.
DEEP_JSON = "[" * 200000 + "]" * 200000


@pytest.mark.parametrize("command", ["replay", "evaluate"])
def test_a_transcript_nested_too_deep_for_json_exits_14_naming_it(tmp_path, capsys,
                                                                  command) -> None:
    runs = tmp_path / "runs"
    runs.mkdir()
    path = runs / "deep.jsonl"
    path.write_text(DEEP_JSON + "\n", encoding="utf-8")
    scored = tmp_path / "scored.json"
    args = (["replay", "--transcript", str(path)] if command == "replay" else
            ["evaluate", "--runs-dir", str(runs), "--annotations",
             str(DEMO / "annotations.json"), "--output", str(scored)])
    assert main(args) == 14
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert not scored.exists()


def test_annotations_nested_too_deep_for_json_exit_2_naming_the_file(tmp_path, capsys) -> None:
    out = run_demo_update(tmp_path)
    annotations = tmp_path / "annotations.json"
    annotations.write_text(DEEP_JSON, encoding="utf-8")
    scored = tmp_path / "scored.json"
    capsys.readouterr()
    assert main(["evaluate", "--runs-dir", str(out), "--annotations", str(annotations),
                 "--output", str(scored)]) == 2
    err = capsys.readouterr().err
    assert f"annotations file {annotations}" in err and "Traceback" not in err
    assert not scored.exists()


def test_a_scored_file_nested_too_deep_for_json_exits_2_naming_it(tmp_path, capsys) -> None:
    marked, deep = write_synthetic_report_inputs(tmp_path)
    deep.write_text(DEEP_JSON, encoding="utf-8")
    report = tmp_path / "report"
    assert main(["report", "--compare", str(marked), str(deep),
                 "--output-dir", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"scored file {deep}" in err and "Traceback" not in err
    assert not report.exists()


def test_report_with_mismatched_files(tmp_path) -> None:
    def scored(file_id: str) -> str:
        payload = {"records": [{
            "file_id": file_id, "model": "m", "method": "vapu",
            "checkmarks": {"updates_present_and_plausible": True,
                           "basic_functions_ok": True,
                           "all_requirements_correct": True},
            "features": {"loc": 100, "cc_letter": "A", "task_count": 1},
        }]}
        target = tmp_path / f"{file_id}.json"
        target.write_text(json.dumps(payload), encoding="utf-8")
        return str(target)

    status = main(["report", "--compare", scored("f1"), scored("f2"),
                   "--output-dir", str(tmp_path / "report")])
    assert status == 2


def test_report_without_check_marks_on_one_side_exits_2(tmp_path, capsys) -> None:
    marked, unmarked = synthetic_scored("vapu", ("m",)), synthetic_scored("zsl", ("m",))
    for record in unmarked["records"]:
        record["checkmarks"] = None
    paths = []
    for name, payload in (("marked", marked), ("unmarked", unmarked)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(payload), encoding="utf-8")
    for pair in (paths, paths[::-1]):
        capsys.readouterr()
        assert main(["report", "--compare", *map(str, pair),
                     "--output-dir", str(tmp_path / "report")]) == 2
        assert "both scored files need records with check marks" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_parallel_repetitions(tmp_path) -> None:
    out = tmp_path / "runs"
    status = main([
        "update", "--backend", "replay",
        "--fixtures", str(DEMO / "fixtures"),
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(DEMO / "legacy"),
        "--model", "gpt-4o", "--temperature", "0",
        "--runs", "3", "--parallel", "3",
        "--output-dir", str(out),
    ])
    assert status == 0
    transcripts = sorted(out.glob("*.jsonl"))
    assert len(transcripts) == 3
    finals = set()
    for path in transcripts:
        transcript = load_transcript(path)
        finals.add(transcript.outcome["final_code"]["content"])
    assert len(finals) == 1  # repetitions are isolated and identical under replay


@pytest.mark.parametrize("parallel", ["1", "3"])
def test_an_aborted_job_leaves_the_rest_of_its_batch_running(tmp_path, capsys, monkeypatch,
                                                             parallel) -> None:
    # The second job replays from fixtures without the last verifier reply, so it aborts.
    cut = dict(load_replay_fixtures(DEMO / "fixtures"))
    del cut[("verifier", 2)]
    real_run = vapu.cli.run_update

    def second_job_aborts(req, doc, config, repetition, context):
        if repetition == 2:
            context = replace(context, new_gateway=lambda: ReplayGateway(cut, "gpt-4o"))
        return real_run(req, doc, config, repetition=repetition, context=context)

    monkeypatch.setattr(vapu.cli, "run_update", second_job_aborts)
    out = tmp_path / "runs"
    assert main([*demo_update_args(DEMO / "legacy", out, runs=3), "--parallel", parallel]) == 9
    runs = [f"reference_list-vapu-gpt-4o-t0-r{rep}" for rep in (1, 2, 3)]
    assert sorted(p.stem for p in out.glob("*.jsonl")) == runs
    assert [load_transcript(out / f"{run}.jsonl").status for run in runs] == [
        "completed", "aborted", "completed"]
    printed = capsys.readouterr()
    assert [line.split(":")[0] for line in printed.out.splitlines()] == [runs[0], runs[2]]
    [error] = printed.err.splitlines()
    assert error.startswith(f"error: run {runs[1]} aborted at task 2: ")


def test_a_blank_rendered_prompt_aborts_its_run_and_the_batch_goes_on(tmp_path, capsys) -> None:
    # With a zsl template that is only the file, an empty file renders a blank prompt.
    templates = shutil.copytree(DEMO.parent / "templates", tmp_path / "templates")
    header = (templates / "zsl.txt").read_text(encoding="utf-8").splitlines()[0]
    (templates / "zsl.txt").write_text(f"{header}\n{{{{code}}}}", encoding="utf-8")
    project = demo_project(tmp_path / "legacy", "empty.php", "full.php")
    (project / "empty.php").write_text("", encoding="utf-8")
    out = tmp_path / "out"
    args = [*inside_project_zsl_args(project, out), "--templates", str(templates)]
    assert main(args) == 9
    runs = ["empty-zsl-gpt-4o-t0-r1", "full-zsl-gpt-4o-t0-r1"]
    assert [load_transcript(out / f"{run}.jsonl").status for run in runs] == [
        "aborted", "completed"]
    printed = capsys.readouterr()
    assert [line.split(":")[0] for line in printed.out.splitlines()] == [runs[1]]
    assert printed.err == f"error: run {runs[0]} aborted at task 0: " \
                          f"rendered prompt must be non-empty\n"


def test_a_full_disk_still_ends_a_batch(tmp_path, capsys, full_disk) -> None:
    out = tmp_path / "runs"
    full_disk("reference_list-vapu-gpt-4o-t0-r1.jsonl")
    assert main(demo_update_args(DEMO / "legacy", out, runs=3)) == 15
    assert "device is full" in capsys.readouterr().err
    assert not list(out.glob("*.jsonl"))  # runs 2 and 3 never started


@pytest.mark.parametrize("parallel", ["1", "4"])
def test_one_command_reads_fixtures_once_and_each_run_starts_at_zero(
        tmp_path, monkeypatch, parallel) -> None:
    loads = []
    real_load = vapu.pipeline.load_replay_fixtures

    def counting_load(directory):
        loads.append(directory)
        return real_load(directory)

    monkeypatch.setattr(vapu.pipeline, "load_replay_fixtures", counting_load)
    project = demo_project(tmp_path / "project", "a.php", "b.php", "views/c.php")
    out = tmp_path / "runs"
    assert main([*demo_update_args(project, out, runs=2), "--parallel", parallel]) == 0
    assert len(loads) == 1
    demo = load_transcript(next(run_demo_update(tmp_path).glob("*.jsonl")))
    transcripts = sorted(out.glob("*.jsonl"))
    assert len(transcripts) == 6
    for path in transcripts:
        responses = [e.response for e in load_transcript(path).exchanges]
        assert responses == [e.response for e in demo.exchanges]


def test_same_stem_in_two_directories_keeps_both_transcripts(tmp_path) -> None:
    project = demo_project(tmp_path / "project", "a/reference_list.php",
                           "b/reference_list.php")
    out = tmp_path / "runs"
    assert main(demo_update_args(project, out)) == 0
    assert sorted(p.name for p in out.glob("*.jsonl")) == [
        "a__reference_list-vapu-gpt-4o-t0-r1.jsonl",
        "b__reference_list-vapu-gpt-4o-t0-r1.jsonl",
    ]


def test_colliding_run_ids_rejected_before_any_run(tmp_path, capsys) -> None:
    project = demo_project(tmp_path / "project", "views/item.php", "views/item.ctp")
    out = tmp_path / "runs"
    assert main(demo_update_args(project, out)) == 2
    assert "views__item-vapu-gpt-4o-t0-r1" in capsys.readouterr().err
    assert not out.exists()


def inside_project_zsl_args(project: Path, out: Path) -> list[str]:
    args = demo_zsl_args(out)
    args[args.index("--project") + 1] = str(project)
    return args


def test_outputs_inside_the_project_are_not_read_back_as_sources(tmp_path, capsys) -> None:
    """A second run into an output directory under --project runs the project's one
    file again, not the first run's transcript and updated file as well."""
    project = demo_project(tmp_path / "legacy", "reference_list.php")
    out = project / "out"
    for _ in range(2):
        assert main(inside_project_zsl_args(project, out)) == 0
        summary = capsys.readouterr().out.splitlines()
        assert summary == [f"reference_list-zsl-gpt-4o-t0-r1: baseline update written to "
                           f"{out / 'reference_list-zsl-gpt-4o-t0-r1' / 'reference_list.php'}"]
    assert [p.name for p in out.glob("*.jsonl")] == ["reference_list-zsl-gpt-4o-t0-r1.jsonl"]
    assert not [p for p in out.rglob("*") if "out__" in p.name]


def test_files_whose_stem_is_a_dot_run_under_the_same_run_id_on_every_python(tmp_path) -> None:
    # "..py" has the stem "."; on 3.13 the path formula raised ValueError for it.
    project = demo_project(tmp_path / "legacy", "..py", "d/..php")
    out = tmp_path / "out"
    assert main(inside_project_zsl_args(project, out)) == 0
    assert sorted(p.name for p in out.glob("*.jsonl")) == [
        ".-zsl-gpt-4o-t0-r1.jsonl", "d__.-zsl-gpt-4o-t0-r1.jsonl"]
    assert (out / "d__.-zsl-gpt-4o-t0-r1" / "d" / "..php").exists()


def test_an_include_pattern_climbing_out_of_the_project_exits_2_before_any_run(
        tmp_path, capsys) -> None:
    project = demo_project(tmp_path / "legacy", "reference_list.php")
    demo_project(tmp_path, "outside.php")
    args = [*inside_project_zsl_args(project, tmp_path / "out"), "--include", "../*.php"]
    assert main(args) == 2
    assert "pattern '../*.php' is not a path inside a project" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def fileset_project(root: Path) -> Path:
    """A file, a copy in a hidden directory, a symlink to the file and one to the directory."""
    demo_project(root, "reference_list.php", ".hidden/copy.php")
    (root / "linked.php").symlink_to("reference_list.php")
    (root / "linked-dir").symlink_to(".hidden", target_is_directory=True)
    return root


FILESET_RUNS = [".hidden__copy-zsl-gpt-4o-t0-r1.jsonl", "linked-zsl-gpt-4o-t0-r1.jsonl",
                "reference_list-zsl-gpt-4o-t0-r1.jsonl"]


@pytest.mark.parametrize("patterns", [["**"], ["**/*.php"], ["**/*.php", "linked-dir/*.php"]])
def test_include_patterns_run_the_default_file_set_on_every_python(tmp_path, patterns) -> None:
    # Path.glob("**") finds only directories before 3.13, and Path.glob("linked-dir/*.php")
    # reads .hidden/copy.php a second time through the link; the walk's filter does neither.
    project = fileset_project(tmp_path / "fileset")
    out = tmp_path / "out"
    include = [arg for pattern in patterns for arg in ("--include", pattern)]
    assert main([*inside_project_zsl_args(project, out), *include]) == 0
    assert sorted(p.name for p in out.glob("*.jsonl")) == FILESET_RUNS


@pytest.mark.parametrize("pattern", ["", "/abs/*.php", "./*.php", "a//b.php"])
def test_an_include_pattern_in_no_project_path_spelling_exits_2_naming_it(tmp_path, capsys,
                                                                         pattern) -> None:
    project = fileset_project(tmp_path / "fileset")
    args = [*inside_project_zsl_args(project, tmp_path / "out"), "--include", pattern]
    assert main(args) == 2
    assert f"pattern {pattern!r} is not a path inside a project" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_project_holding_only_outputs_exits_13_naming_the_output_directory(tmp_path,
                                                                           capsys) -> None:
    project = demo_project(tmp_path / "legacy", "out/old-run/reference_list.php")
    assert main(inside_project_zsl_args(project, project / "out")) == 13
    assert f"no files under {project} outside out match" in capsys.readouterr().err


def test_a_project_that_names_a_file_exits_13_naming_it(tmp_path, capsys) -> None:
    project = demo_project(tmp_path, "reference_list.php") / "reference_list.php"
    assert main(inside_project_zsl_args(project, tmp_path / "out")) == 13
    assert f"error: no files under {project} match ['**/*']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_project_that_cannot_be_listed_exits_13_naming_it(tmp_path, capsys,
                                                             monkeypatch) -> None:
    project = demo_project(tmp_path / "legacy", "reference_list.php")
    real_scandir = os.scandir

    def scandir(path):  # simulated: a permission bit would not stop root
        if os.path.samefile(path, project):
            raise PermissionError(13, "Permission denied", path)
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    assert main(inside_project_zsl_args(project, tmp_path / "out")) == 13
    assert f"error: no files under {project} match ['**/*']" in capsys.readouterr().err


def test_the_default_file_set_runs_hidden_and_symlinked_files_once_each(tmp_path,
                                                                        capsys) -> None:
    project = demo_project(tmp_path / "legacy", "reference_list.php", ".hidden/copy.php")
    (project / "linked.php").symlink_to("reference_list.php")
    (project / "linked-dir").symlink_to(".hidden", target_is_directory=True)
    out = project / "out"
    assert main(inside_project_zsl_args(project, out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        ".hidden__copy-zsl-gpt-4o-t0-r1", "linked-zsl-gpt-4o-t0-r1",
        "reference_list-zsl-gpt-4o-t0-r1"]
    assert len(list(out.glob("*.jsonl"))) == 3


@pytest.mark.parametrize("spelling", [".", "sub/..", "alias"])
def test_an_output_directory_that_is_the_project_root_exits_2_before_any_call(
        tmp_path, capsys, monkeypatch, spelling) -> None:
    project = demo_project(tmp_path / "legacy", "reference_list.php")
    (project / "sub").mkdir()
    (tmp_path / "alias").symlink_to(project)
    before = sorted(project.rglob("*"))
    monkeypatch.setattr(vapu.cli.RunContext, "from_config", lambda config: pytest.fail(
        "no run context is built"))
    out = tmp_path / "alias" if spelling == "alias" else project / spelling
    assert main(inside_project_zsl_args(project, out)) == 2
    assert "is the project root" in capsys.readouterr().err
    assert sorted(project.rglob("*")) == before


@pytest.mark.parametrize("parallel", ["1", "3"])
def test_every_header_of_a_batch_records_the_config_as_to_json_writes_it(tmp_path,
                                                                       parallel) -> None:
    out = tmp_path / "runs"
    assert main([*demo_update_args(DEMO / "legacy", out, runs=3), "--parallel", parallel]) == 0
    config = RunConfig(model="gpt-4o", output_dir=out, repetitions=3, backend=Backend.REPLAY,
                       fixtures_dir=DEMO / "fixtures", parallel=int(parallel))
    expected = to_json(config, omit=UNRECORDED_CONFIG)
    paths = sorted(out.glob("*.jsonl"))
    assert [load_transcript(path).config for path in paths] == [expected] * 3
    # A library run without a context builds its own and writes the same header line.
    req = RequirementSpec.from_text(
        id="requirements", text=(DEMO / "requirements.txt").read_text(encoding="utf-8"))
    [doc] = load_codebase(DEMO / "legacy", ["**/*"])
    library = replace(config, output_dir=tmp_path / "library")
    result = vapu.pipeline.run_update(req, doc, library, repetition=2, context=None)
    written = library.output_dir / f"{result.transcript_ref}.jsonl"
    assert written.read_bytes().split(b"\n")[0] == paths[1].read_bytes().split(b"\n")[0]


def test_failed_baseline_exits_9_and_keeps_transcript(tmp_path) -> None:
    out = tmp_path / "zsl-runs"
    status = main([
        "baseline", "--backend", "replay",
        "--fixtures", str(write_fixtures(tmp_path / "empty-fx", {})),
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(DEMO / "legacy"),
        "--model", "gpt-4o", "--runs", "1", "--method", "zsl",
        "--output-dir", str(out),
    ])
    assert status == 9
    transcript = load_transcript(out / "reference_list-zsl-gpt-4o-t0-r1.jsonl")
    assert transcript.status == "aborted"


def test_every_run_flag_but_the_machine_paths_reaches_the_config_header(tmp_path) -> None:
    """The output and fixture directories are left out: the typed header reads the
    output directory as the transcript's own, and a replay sends the recorded replies."""
    example = tmp_path / "example.json"
    example.write_text(json.dumps({"input": "old()", "output": "new()"}), encoding="utf-8")
    registry = DEMO.parent / "registry.json"
    templates = DEMO.parent / "templates"
    out = tmp_path / "osl-runs"
    assert main([
        "baseline", "--backend", "replay",
        "--fixtures", str(DEMO / "fixtures-baseline"),
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(DEMO / "legacy"),
        "--model", "gpt-4o", "--temperature", "1",
        "--runs", "2", "--max-iterations", "3", "--parallel", "2",
        "--registry", str(registry), "--templates", str(templates),
        "--method", "osl", "--example", str(example),
        "--output-dir", str(out),
    ]) == 0
    expected = {
        "model": "gpt-4o",
        "temperature": 1.0,
        "max_feedback_iterations": 3,
        "repetitions": 2,
        "backend": "replay",
        "method": "osl",
        "example_path": str(example),
        "registry_path": str(registry),
        "templates_dir": str(templates),
        "parallel": 2,
    }
    paths = sorted(out.glob("*.jsonl"))
    assert len(paths) == 2
    for path in paths:
        transcript = load_transcript(path)
        assert transcript.config == expected
        config = read_header(transcript, path).config
        assert (config.output_dir, config.fixtures_dir) == (out, None)


def demo_osl_args(example: Path, out: Path, runs: int = 1) -> list[str]:
    return [
        "baseline", "--backend", "replay",
        "--fixtures", str(DEMO / "fixtures-baseline"),
        "--requirements", str(DEMO / "requirements.txt"),
        "--project", str(DEMO / "legacy"),
        "--model", "gpt-4o", "--runs", str(runs),
        "--method", "osl", "--example", str(example),
        "--output-dir", str(out),
    ]


@pytest.mark.parametrize("asset", [
    None,  # missing file
    "{not json",
    json.dumps({"input": "old()"}),
    json.dumps({"input": "old()", "output": 3}),
    json.dumps(["old()", "new()"]),
])
def test_bad_example_asset_is_a_config_error_before_any_run(tmp_path, capsys, asset) -> None:
    example = tmp_path / "example.json"
    if asset is not None:
        example.write_text(asset, encoding="utf-8")
    out = tmp_path / "osl-runs"
    assert main(demo_osl_args(example, out)) == 2
    assert str(example) in capsys.readouterr().err
    assert not out.exists()


def test_example_asset_is_read_once_per_command(tmp_path, monkeypatch) -> None:
    example = tmp_path / "example.json"
    example.write_text(json.dumps({"input": "old()", "output": "new()"}), encoding="utf-8")
    reads = []
    real_open, real_os_open = builtins.open, os.open

    def counting_open(file, *args, **kwargs):
        if not isinstance(file, int) and os.fspath(file) == str(example):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    def counting_os_open(file, *args, **kwargs):
        if os.fspath(file) == str(example):
            reads.append(file)
        return real_os_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(os, "open", counting_os_open)
    out = tmp_path / "osl-runs"
    assert main(demo_osl_args(example, out, runs=3)) == 0
    assert len(reads) == 1
    paths = sorted(out.glob("*.jsonl"))
    assert len(paths) == 3
    for path in paths:
        assert load_transcript(path).inputs["example"] == ["old()", "new()"]


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's vapu."""
    package_root = str(Path(vapu.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


# Every command but a live run must work where requests cannot be imported.
WITHOUT_REQUESTS = """
import json, sys
sys.modules["requests"] = None  # makes any import of it fail
from vapu.cli import main
for argv in json.loads(sys.argv[1]):
    status = main(argv)
    if status:
        sys.exit(f"{argv[0]} exited {status}")
"""


def demo_zsl_args(out: Path) -> list[str]:
    args = demo_osl_args(Path("unused"), out)
    args[args.index("osl")] = "zsl"
    del args[args.index("--example"):args.index("--example") + 2]
    return args


def test_offline_commands_never_import_requests(tmp_path) -> None:
    example = tmp_path / "example.json"
    example.write_text(json.dumps({"input": "old()", "output": "new()"}), encoding="utf-8")
    zsl = demo_zsl_args(tmp_path / "zsl")
    scored = [str(tmp_path / f"{method}-scored.json") for method in ("vapu", "zsl")]
    commands = [
        demo_update_args(DEMO / "legacy", tmp_path / "vapu"),
        zsl,
        demo_osl_args(example, tmp_path / "osl"),
        *(["evaluate", "--runs-dir", str(tmp_path / method), "--annotations",
           str(DEMO / "annotations.json"), "--output", path]
          for method, path in zip(("vapu", "zsl"), scored)),
        ["report", "--compare", *scored, "--output-dir", str(tmp_path / "report")],
        ["replay", "--transcript",
         str(tmp_path / "vapu" / "reference_list-vapu-gpt-4o-t0-r1.jsonl")],
    ]
    child = fresh_python(WITHOUT_REQUESTS, json.dumps(commands))
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "report" / "report.txt").exists()
    child = fresh_python("import sys, vapu.cli; print('requests' in sys.modules)")
    assert (child.returncode, child.stdout) == (0, "False\n"), child.stderr


# After the import and then after each command: its exit status and which
# modules of the scoring and report stack are loaded.
SCORING_STACK = """
import contextlib, io, json, sys
from vapu.cli import main

def loaded():
    return [name for name in ("vapu.evaluation", "statistics", "fractions", "decimal", "csv",
                              "concurrent.futures")
            if name in sys.modules]

print(json.dumps([None, loaded()]))
for argv in json.loads(sys.argv[1]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
    except SystemExit as exc:  # --help
        status = exc.code
    print(json.dumps([status, loaded()]))
"""


def test_update_baseline_and_replay_start_without_the_scoring_stack(tmp_path) -> None:
    """Scoring and reporting take their SDs in plain integers, so they load none of
    statistics, fractions or decimal either."""
    vapu_scored, zsl_scored = write_synthetic_report_inputs(tmp_path / "scored")
    commands = [
        ["--help"],
        demo_update_args(DEMO / "legacy", tmp_path / "vapu"),
        demo_zsl_args(tmp_path / "zsl"),
        ["replay", "--transcript",
         str(tmp_path / "vapu" / "reference_list-vapu-gpt-4o-t0-r1.jsonl")],
        ["evaluate", "--runs-dir", str(tmp_path / "vapu"), "--annotations",
         str(DEMO / "annotations.json"), "--output", str(tmp_path / "scored.json")],
        ["report", "--compare", str(vapu_scored), str(zsl_scored),
         "--output-dir", str(tmp_path / "report")],
    ]
    child = fresh_python(SCORING_STACK, json.dumps(commands))
    assert child.returncode == 0, child.stderr
    *short, (status, after_evaluate), after_report = map(json.loads, child.stdout.splitlines())
    assert short == [[None, []], *[[0, []]] * 4]
    assert status == 0 and after_evaluate == ["vapu.evaluation"]
    assert after_report == [0, ["vapu.evaluation", "csv"]]


def test_live_backend_without_requests_exits_2_before_any_run(tmp_path) -> None:
    args = live_update_args(tmp_path / "out", "gpt-4o")
    child = fresh_python('import sys; sys.modules["requests"] = None\n'
                         'from vapu.cli import main; sys.exit(main(sys.argv[1:]))', *args)
    assert child.returncode == 2, child.stderr
    assert "requests package" in child.stderr and "Traceback" not in child.stderr
    assert not (tmp_path / "out").exists()


def live_update_args(out: Path, model: str) -> list[str]:
    args = demo_update_args(DEMO / "legacy", out, runs=3)
    del args[args.index("--fixtures"):args.index("--fixtures") + 2]
    args[args.index("replay")] = "live"
    args[args.index("gpt-4o")] = model
    return args


@pytest.fixture
def stub_endpoint():
    """Call with a transcript: a started StubEndpoint that replays it; each one started is
    stopped after the test, its handler threads with it."""
    from stub_endpoint import StubEndpoint

    started = []

    def start(transcript: Path) -> StubEndpoint:
        server = StubEndpoint.from_transcript(transcript)
        started.append((server, server.start()))
        return server

    yield start
    for server, thread in started:
        server.stop()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_a_live_update_over_http_writes_what_the_replay_run_wrote(tmp_path, monkeypatch,
                                                                  stub_endpoint) -> None:
    pytest.importorskip("requests")
    replay = run_demo_update(tmp_path)
    transcript = next(replay.glob("*.jsonl"))
    server = stub_endpoint(transcript)
    monkeypatch.setenv("VAPU_API_KEY_OPENAI", "dummy")
    monkeypatch.setenv("VAPU_API_BASE_OPENAI", server.url)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")  # a proxy set in the environment is skipped
    live = tmp_path / "live"
    args = live_update_args(live, "gpt-4o")
    args[args.index("--runs") + 1] = "1"
    assert main(args) == 0
    updated = Path("reference_list-vapu-gpt-4o-t0-r1", "reference_list.php")
    assert (live / updated).read_bytes() == (replay / updated).read_bytes()
    # One request per recorded exchange, every reply sent, all over one kept-alive connection.
    assert server.requests == len(load_transcript(transcript).exchanges)
    assert not any(server.replies.values())
    assert server.connections == 1


@pytest.mark.parametrize("model, present, missing", [
    ("gpt-4o", {}, ["VAPU_API_KEY_OPENAI", "VAPU_API_BASE_OPENAI"]),
    # only OpenAI has a default base URL
    ("deepseek-v3", {"VAPU_API_KEY_DEEPSEEK": "dummy"}, ["VAPU_API_BASE_DEEPSEEK"]),
])
def test_live_run_without_credentials_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                             model, present, missing) -> None:
    for name in [*os.environ]:
        if name.startswith(("VAPU_API_KEY_", "VAPU_API_BASE_")):
            monkeypatch.delenv(name)
    for name, value in present.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    assert main(live_update_args(out, model)) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in missing), err
    assert not out.exists()


@pytest.mark.parametrize("backend, key", [(None, "dummy"), ("live", "dummy"), (None, None)],
                         ids=["None", "live", "None-no-key"])
def test_fixtures_without_the_replay_backend_exit_2_before_any_call(
        tmp_path, capsys, monkeypatch, backend, key) -> None:
    def no_live_gateway(*args, **kwargs):
        raise AssertionError("a live gateway was built")

    if key is None:  # the refusal names --backend replay, not the missing key
        monkeypatch.delenv("VAPU_API_KEY_OPENAI", raising=False)
    else:
        monkeypatch.setenv("VAPU_API_KEY_OPENAI", key)
    monkeypatch.setattr(vapu.pipeline, "LiveGateway", no_live_gateway)
    out = tmp_path / "out"
    args = demo_update_args(DEMO / "legacy", out)
    if backend is None:  # the default backend is live
        del args[args.index("--backend"):args.index("--backend") + 2]
    else:
        args[args.index("replay")] = backend
    assert main(args) == 2
    assert "--backend replay" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def full_disk(monkeypatch):
    """Call with a file name: from then on, opening a file of that name to write fails
    with ENOSPC, however the program opens it."""
    real_open = io.open
    real_os_open = os.open

    def fill(name: str) -> None:
        def refuse(file) -> None:
            if isinstance(file, (str, os.PathLike)) and Path(file).name == name:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), os.fspath(file))

        def open_(file, mode="r", *args, **kwargs):
            if "w" in mode:
                refuse(file)
            return real_open(file, mode, *args, **kwargs)

        def os_open(file, flags, *args, **kwargs):
            if flags & (os.O_WRONLY | os.O_RDWR):
                refuse(file)
            return real_os_open(file, flags, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", open_)
        monkeypatch.setattr(io, "open", open_)
        monkeypatch.setattr(os, "open", os_open)

    return fill


def command_writing_outputs(tmp_path: Path, command: str) -> list[str]:
    """Arguments for ``command`` on the demo; what it reads is made here."""
    if command == "update":
        return demo_update_args(DEMO / "legacy", tmp_path / "out")
    if command == "evaluate":
        return ["evaluate", "--runs-dir", str(run_demo_update(tmp_path)),
                "--annotations", str(DEMO / "annotations.json"),
                "--output", str(tmp_path / "scored" / "scored.json")]
    scored = write_synthetic_report_inputs(tmp_path / "scored")
    return ["report", "--compare", *map(str, scored), "--output-dir", str(tmp_path / "report")]


@pytest.mark.parametrize("command, name", [
    ("update", "reference_list-vapu-gpt-4o-t0-r1.jsonl"),
    ("update", "reference_list.php"),
    ("evaluate", "scored.json"),
    ("report", "report.json"),
    ("report", "report.tsv"),
    ("report", "report.txt"),
])
def test_a_full_disk_exits_15_naming_the_output(tmp_path, capsys, full_disk, command,
                                                 name) -> None:
    args = command_writing_outputs(tmp_path, command)
    full_disk(name)
    assert main(args) == 15
    err = capsys.readouterr().err
    assert name in err and "device is full" in err


def test_an_updated_file_that_cannot_be_written_leaves_its_run_aborted(
        tmp_path, capsys, full_disk) -> None:
    full_disk("reference_list.php")
    assert main(demo_update_args(DEMO / "legacy", tmp_path / "out", runs=2)) == 15
    assert "reference_list.php" in capsys.readouterr().err
    run = tmp_path / "out" / "reference_list-vapu-gpt-4o-t0-r1"
    transcript = load_transcript(run.with_suffix(".jsonl"))
    assert transcript.status == "aborted" and transcript.exchanges
    assert transcript.outcome == {"error": transcript.outcome["error"]}  # no task failed
    assert "reference_list.php" in transcript.outcome["error"]
    assert "device is full" in transcript.outcome["error"]
    assert not (run / "reference_list.php").exists()


# A child that may write no file past 4096 bytes; Python ignores SIGXFSZ, so the kernel
# cuts the write at the limit, and the next write fails with EFBIG.
FILE_SIZE_LIMIT = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
from vapu.cli import main
sys.exit(main(json.loads(sys.argv[1])))
"""


def test_a_file_size_limit_cuts_the_transcript_and_exits_15(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")  # no cache file meets the limit
    out = tmp_path / "out"
    child = fresh_python(FILE_SIZE_LIMIT, json.dumps(demo_update_args(DEMO / "legacy", out)))
    assert child.returncode == 15, child.stderr
    assert "reference_list-vapu-gpt-4o-t0-r1.jsonl" in child.stderr
    updated = out / "reference_list-vapu-gpt-4o-t0-r1" / "reference_list.php"
    whole = run_demo_update(tmp_path) / updated.relative_to(out)
    assert len(whole.read_bytes()) == 469
    assert updated.read_bytes() == whole.read_bytes()
    # The partial transcript is left as the kernel cut it.
    assert (out / "reference_list-vapu-gpt-4o-t0-r1.jsonl").stat().st_size == 4096


def test_a_transcripts_duration_leaves_out_writing_the_updated_file(tmp_path,
                                                                   monkeypatch) -> None:
    write_file = vapu.pipeline.write_file

    def slow_write(path, data):
        time.sleep(0.5)
        return write_file(path, data)

    monkeypatch.setattr(vapu.pipeline, "write_file", slow_write)
    [path] = run_demo_update(tmp_path).glob("*.jsonl")
    transcript = load_transcript(path)
    assert transcript.status == "completed" and transcript.duration < 0.5


def test_code_reply_utf8_cannot_encode_aborts_the_run(tmp_path, capsys, monkeypatch) -> None:
    reply = "```php\n<?php echo '\ud800'; ?>\n```\n"  # a JSON "\ud800" escape, decoded
    from_config = vapu.cli.RunContext.from_config
    monkeypatch.setattr(vapu.cli.RunContext, "from_config", lambda config: replace(
        from_config(config), new_gateway=lambda: ReplayGateway(
            {("baseline", 0): reply}, model_id=config.model)))
    out = tmp_path / "zsl-runs"
    args = demo_update_args(DEMO / "legacy", out)
    args[0:1] = ["baseline", "--method", "zsl"]
    assert main(args) == 9
    assert "UTF-8" in capsys.readouterr().err
    transcript = load_transcript(out / "reference_list-zsl-gpt-4o-t0-r1.jsonl")
    assert transcript.status == "aborted"
    assert [e.response for e in transcript.exchanges] == [reply]
    assert not (out / "reference_list-zsl-gpt-4o-t0-r1").exists()


def test_demo_update_and_baseline_summary_lines(tmp_path, capsys) -> None:
    out = tmp_path / "vapu-runs"
    assert main(demo_update_args(DEMO / "legacy", out, runs=2)) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"reference_list-vapu-gpt-4o-t0-r{rep}: 2 task(s), verified, updated file at "
        f"{out / f'reference_list-vapu-gpt-4o-t0-r{rep}' / 'reference_list.php'}"
        for rep in (1, 2)
    ]
    example = tmp_path / "example.json"
    example.write_text(json.dumps({"input": "old()", "output": "new()"}), encoding="utf-8")
    for method in ("zsl", "osl"):
        args = demo_osl_args(example, tmp_path / f"{method}-runs", runs=2)
        args[args.index("osl")] = method
        if method == "zsl":
            del args[args.index("--example"):args.index("--example") + 2]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"reference_list-{method}-gpt-4o-t0-r{rep}: baseline update written to "
            f"{tmp_path / f'{method}-runs' / f'reference_list-{method}-gpt-4o-t0-r{rep}' / 'reference_list.php'}"
            for rep in (1, 2)
        ]


# --- one parser per process ---

GOLDEN_HELP = Path(__file__).parent / "data" / "help"


@pytest.mark.parametrize("command", ["vapu", "update", "baseline", "evaluate", "report",
                                     "replay"])
def test_help_bytes_match_the_golden_files(capsys, monkeypatch, command) -> None:
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"] if command == "vapu" else [command, "--help"])
    assert excinfo.value.code == 0
    golden = GOLDEN_HELP / f"{command}.txt"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


def test_the_parser_is_built_once_per_process() -> None:
    assert vapu.cli.build_parser() is vapu.cli.build_parser()


def test_consecutive_calls_leave_no_trace_of_each_other(tmp_path) -> None:
    def transcripts(out: Path) -> list[str]:
        return sorted(p.name for p in out.glob("*.jsonl"))

    project = demo_project(tmp_path / "project", "a.php", "b.php")
    # --include appends to a list; the next call starts from all files again.
    assert main([*demo_update_args(project, tmp_path / "one"), "--include", "a.php"]) == 0
    assert transcripts(tmp_path / "one") == ["a-vapu-gpt-4o-t0-r1.jsonl"]
    assert main(demo_update_args(project, tmp_path / "all")) == 0
    assert transcripts(tmp_path / "all") == ["a-vapu-gpt-4o-t0-r1.jsonl",
                                             "b-vapu-gpt-4o-t0-r1.jsonl"]
    # A one-shot baseline's --method and --example do not become the next call's defaults.
    example = tmp_path / "example.json"
    example.write_text(json.dumps({"input": "old()", "output": "new()"}), encoding="utf-8")
    assert main(demo_osl_args(example, tmp_path / "osl")) == 0
    zsl = demo_osl_args(example, tmp_path / "zsl")
    del zsl[zsl.index("--method"):zsl.index("--example") + 2]
    assert main(zsl) == 0
    [path] = (tmp_path / "zsl").glob("*.jsonl")
    transcript = load_transcript(path)
    assert transcript.config["method"] == "zsl" and "example" not in transcript.inputs
    # update's method comes from its own defaults, not from the baseline before it.
    assert main(demo_update_args(DEMO / "legacy", tmp_path / "vapu")) == 0
    assert transcripts(tmp_path / "vapu") == ["reference_list-vapu-gpt-4o-t0-r1.jsonl"]


# Runs each argv in turn in one process; a marker on stderr starts each call's output.
CALLS_IN_ONE_PROCESS = """
import json, sys
from vapu.cli import main
for argv in json.loads(sys.argv[1]):
    print("--- call", file=sys.stderr)
    if main(argv):
        sys.exit(f"{argv} failed")
"""


def test_verbose_applies_to_each_call_in_a_process(tmp_path) -> None:
    calls = [demo_update_args(DEMO / "legacy", tmp_path / name) for name in ("a", "b", "c")]
    calls[1].insert(0, "-v")
    child = fresh_python(CALLS_IN_ONE_PROCESS, json.dumps(calls))
    assert child.returncode == 0, child.stderr
    assert child.stderr.split("--- call\n")[1:] == [
        "",
        "INFO vapu.pipeline: run reference_list-vapu-gpt-4o-t0-r1: plan of 2 task(s)\n",
        "",
    ]


@pytest.mark.parametrize("verbose", [False, True])
def test_a_level_the_caller_set_on_the_package_logger_survives_a_call(
        tmp_path, monkeypatch, verbose) -> None:
    package_logger = logging.getLogger("vapu")
    monkeypatch.setattr(package_logger, "level", logging.ERROR)
    args = demo_update_args(DEMO / "legacy", tmp_path / "out")
    assert main(["-v", *args] if verbose else args) == 0
    assert package_logger.level == logging.ERROR


GOLDEN_REPORT = Path(__file__).parent / "data" / "report"


def synthetic_scored(method: str, models: tuple[str, ...]) -> dict:
    """Scored records over twelve files and several models, in the shape evaluate writes.

    The files cover every LOC band (both edges of each), every CC group
    with lower- and upper-case letters, and task counts that sort
    differently as text and as numbers.
    """
    locs = (1, 99, 100, 199, 200, 299, 300, 900, 40, 120, 260, 310)
    letters = "aBcDeFAbCdEf"
    task_counts = (1, 2, 3, 5, 10)
    records = []
    for i in range(len(locs)):
        for j, model in enumerate(models):
            flags = [((i + 1) * (j + 2) + k * len(method)) % (k + 3) != 0 for k in range(3)]
            records.append({
                "run_id": f"file{i:02d}-{method}-{model}-t0-r1",
                "file_id": f"file{i:02d}",
                "model": model,
                "method": method,
                "checkmarks": {
                    "updates_present_and_plausible": flags[0],
                    "basic_functions_ok": flags[1],
                    "all_requirements_correct": flags[2],
                    "score": sum(flags),
                },
                "features": {"loc": locs[i], "cc_letter": letters[i],
                             "task_count": task_counts[i % len(task_counts)]},
            })
    # A run with no check marks is left out of the report.
    records.append({**records[0], "run_id": "unmarked", "checkmarks": None})
    return {"records": records}


def write_synthetic_report_inputs(directory: Path) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for method, models in (("vapu", ("model-a", "model-b", "pipeline-only")),
                           ("zsl", ("baseline-only", "model-a", "model-b"))):
        path = directory / f"scored-{method}.json"
        path.write_text(json.dumps(synthetic_scored(method, models), indent=2), encoding="utf-8")
        paths.append(path)
    return paths[0], paths[1]


def test_report_bytes_match_the_golden_files(tmp_path) -> None:
    vapu_scored, zsl_scored = write_synthetic_report_inputs(tmp_path / "scored")
    out = tmp_path / "report"
    assert main(["report", "--compare", str(vapu_scored), str(zsl_scored),
                 "--output-dir", str(out)]) == 0
    for name in ("report.json", "report.tsv", "report.txt"):
        assert (out / name).read_bytes() == (GOLDEN_REPORT / name).read_bytes(), name


GOLDEN_EVALUATE = Path(__file__).parent / "data" / "evaluate"


def test_evaluate_bytes_match_the_golden_file(tmp_path) -> None:
    # Hand-built v4 runs with fixed timings: one valid Python final file over r1-r3 (an
    # exchange of each role, flags, retries and an int duration), an invalid one, a PHP
    # one and an aborted run; the annotations hold findings, requirements, check marks
    # and features.  Each group's durations have a standard deviation that every Python
    # from 3.10 on rounds alike.
    scored = tmp_path / "scored.json"
    assert main(["evaluate", "--runs-dir", str(GOLDEN_EVALUATE / "runs"),
                 "--annotations", str(GOLDEN_EVALUATE / "annotations.json"),
                 "--output", str(scored)]) == 0
    assert scored.read_bytes() == (GOLDEN_EVALUATE / "scored.json").read_bytes()


@pytest.mark.parametrize("field, value", [("loc", 200), ("cc_letter", "E"), ("task_count", 4)])
def test_report_refuses_a_file_whose_features_put_it_in_other_buckets_on_one_side(
        tmp_path, capsys, field, value) -> None:
    # file03 is 199 LOC, grade D, 5 tasks on both sides; each change moves it on the baseline side.
    vapu_scored, zsl_scored = write_synthetic_report_inputs(tmp_path / "scored")
    data = json.loads(zsl_scored.read_text(encoding="utf-8"))
    for record in data["records"]:
        if record["file_id"] == "file03":
            record["features"][field] = value
    zsl_scored.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--compare", str(vapu_scored), str(zsl_scored),
                 "--output-dir", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert "'file03'" in err and str(vapu_scored) in err and str(zsl_scored) in err
    assert not (tmp_path / "report").exists()


def test_report_refuses_a_scored_file_whose_records_put_a_file_in_two_buckets(
        tmp_path, capsys) -> None:
    # file03 is 250 LOC in every record but the pipeline side's first, which holds 50.
    vapu_scored, zsl_scored = write_synthetic_report_inputs(tmp_path / "scored")
    for path in (vapu_scored, zsl_scored):
        data = json.loads(path.read_text(encoding="utf-8"))
        file03 = [record for record in data["records"] if record["file_id"] == "file03"]
        for record in file03:
            record["features"]["loc"] = 250
        if path == vapu_scored:
            file03[0]["features"]["loc"] = 50
        path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--compare", str(vapu_scored), str(zsl_scored),
                 "--output-dir", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert f"cannot read scored file {vapu_scored}" in err and "'file03'" in err
    assert not (tmp_path / "report").exists()


def test_report_compares_features_by_the_buckets_they_put_a_file_in(tmp_path) -> None:
    # A grade letter's case, a grade of the same group and a LOC in the same band do not count.
    vapu_scored, zsl_scored = write_synthetic_report_inputs(tmp_path / "scored")
    data = json.loads(zsl_scored.read_text(encoding="utf-8"))
    for record in data["records"]:
        record["features"]["cc_letter"] = record["features"]["cc_letter"].swapcase()
        if record["file_id"] == "file03":
            record["features"].update(loc=101, cc_letter="c")
    zsl_scored.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "report"
    assert main(["report", "--compare", str(vapu_scored), str(zsl_scored),
                 "--output-dir", str(out)]) == 0
    for name in ("report.json", "report.tsv", "report.txt"):
        assert (out / name).read_bytes() == (GOLDEN_REPORT / name).read_bytes(), name


def annotation_without_a_flag(data: dict) -> dict:
    del data["checkmarks"][0]["basic_functions_ok"]
    return data


def annotation_with_text_loc(data: dict) -> dict:
    data["files"][0]["loc"] = "many"
    return data


def annotations_as_a_list(data: dict) -> list:
    return [data]


def annotation_with_a_text_flag(data: dict) -> dict:
    data["checkmarks"][1]["all_requirements_correct"] = "false"
    return data


def annotation_with_a_boolean_loc(data: dict) -> dict:
    data["files"][0]["loc"] = True
    return data


def scored_record_without_a_flag(data: dict) -> dict:
    del data["records"][0]["checkmarks"]["all_requirements_correct"]
    return data


def scored_records_as_a_list(data: dict) -> list:
    return data["records"]


def scored_record_with_a_text_flag(data: dict) -> dict:
    data["records"][0]["checkmarks"]["all_requirements_correct"] = "false"
    return data


def annotation_with_an_unknown_grade(data: dict) -> dict:
    data["files"][0]["cc_letter"] = "Z"
    return data


def scored_record_with_an_unknown_grade(data: dict) -> dict:
    data["records"][0]["features"]["cc_letter"] = "Z"
    return data


def annotation_with_a_numeric_run_id(data: dict) -> dict:
    data["requirements"][0]["run_id"] = 5
    return data


def annotation_with_a_numeric_model(data: dict) -> dict:
    data["checkmarks"][0]["model"] = 4
    return data


def annotation_with_a_negative_loc(data: dict) -> dict:
    data["files"][0]["loc"] = -5  # would count in the totals but in no LOC band
    return data


def annotation_with_a_requirement_listed_twice(data: dict) -> dict:
    data["requirements"].append(dict(data["requirements"][0]))
    return data


def annotation_with_a_file_listed_twice(data: dict) -> dict:
    data["files"].append({**data["files"][0], "loc": 900, "cc_letter": "F", "task_count": 6})
    return data


def annotation_with_checkmarks_listed_twice(data: dict) -> dict:
    data["checkmarks"].append({**data["checkmarks"][0], "updates_present_and_plausible": False,
                               "basic_functions_ok": False, "all_requirements_correct": False})
    return data


@pytest.mark.parametrize("target, corrupt", [
    ("annotations", annotation_without_a_flag),
    ("annotations", annotation_with_text_loc),
    ("annotations", annotations_as_a_list),
    ("annotations", annotation_with_a_text_flag),
    ("annotations", annotation_with_a_boolean_loc),
    ("scored", scored_record_without_a_flag),
    ("scored", scored_records_as_a_list),
    ("scored", scored_record_with_a_text_flag),
    ("annotations", annotation_with_an_unknown_grade),
    ("scored", scored_record_with_an_unknown_grade),
    ("annotations", annotation_with_a_numeric_run_id),
    ("annotations", annotation_with_a_numeric_model),
    ("annotations", annotation_with_a_negative_loc),
    ("annotations", annotation_with_a_requirement_listed_twice),
    ("annotations", annotation_with_a_file_listed_twice),
    ("annotations", annotation_with_checkmarks_listed_twice),
])
def test_malformed_evaluation_input_is_a_config_error_naming_the_file(
        tmp_path, capsys, target, corrupt) -> None:
    runs = run_demo_update(tmp_path)
    annotations = tmp_path / "annotations.json"
    data = json.loads((DEMO / "annotations.json").read_text(encoding="utf-8"))
    if target == "annotations":
        data = corrupt(data)
    annotations.write_text(json.dumps(data), encoding="utf-8")
    scored = tmp_path / "scored.json"
    status = main(["evaluate", "--runs-dir", str(runs), "--annotations", str(annotations),
                   "--output", str(scored)])
    if target == "scored":
        assert status == 0
        records = corrupt(json.loads(scored.read_text(encoding="utf-8")))
        scored.write_text(json.dumps(records), encoding="utf-8")
        capsys.readouterr()
        status = main(["report", "--compare", str(scored), str(scored),
                       "--output-dir", str(tmp_path / "report")])
    assert status == 2
    assert str(tmp_path / f"{target}.json") in capsys.readouterr().err


def test_a_requirement_listed_twice_for_a_run_is_refused_by_name(tmp_path) -> None:
    data = json.loads((DEMO / "annotations.json").read_text(encoding="utf-8"))
    data["requirements"].insert(1, dict(data["requirements"][0]))
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigInvalid, match=f"{re.escape(str(path))}.*'entity-access' is listed "
                                            f"twice for run 'reference_list-vapu-gpt-4o-t0-r1'"):
        load_annotations(path)


@pytest.mark.parametrize("section, field, value", [
    ("findings", "run_id", None),
    ("requirements", "run_id", 5),
    ("checkmarks", "file_id", ["reference_list"]),
    ("checkmarks", "model", 4),
    ("checkmarks", "method", True),
    ("files", "file_id", 7),
])
def test_annotation_key_that_is_not_text_is_refused_by_name(tmp_path, section, field,
                                                            value) -> None:
    data = json.loads((DEMO / "annotations.json").read_text(encoding="utf-8"))
    data[section][0][field] = value
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigInvalid, match=f"{re.escape(str(path))}.*{field} must be str"):
        load_annotations(path)


@pytest.mark.parametrize("command", ["update", "evaluate", "report", "replay"])
def test_missing_input_file_is_a_config_error_naming_it(tmp_path, capsys, command) -> None:
    missing = tmp_path / "absent.txt"
    out = tmp_path / "out"
    if command == "update":
        args = demo_update_args(DEMO / "legacy", out)
        args[args.index(str(DEMO / "requirements.txt"))] = str(missing)
    elif command == "evaluate":
        args = ["evaluate", "--runs-dir", str(run_demo_update(tmp_path)),
                "--annotations", str(missing), "--output", str(out / "scored.json")]
    elif command == "report":
        args = ["report", "--compare", str(missing), str(missing), "--output-dir", str(out)]
    else:
        args = ["replay", "--transcript", str(missing)]
    capsys.readouterr()
    assert main(args) == 2
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "replay"])
def test_transcript_that_is_not_utf8_exits_14_naming_it(tmp_path, capsys, command) -> None:
    runs = run_demo_update(tmp_path)
    [path] = runs.glob("*.jsonl")
    path.write_bytes(b"\xff" + path.read_bytes())
    if command == "evaluate":
        args = ["evaluate", "--runs-dir", str(runs), "--annotations",
                str(DEMO / "annotations.json"), "--output", str(tmp_path / "scored.json")]
    else:
        args = ["replay", "--transcript", str(path)]
    capsys.readouterr()
    assert main(args) == 14
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "replay"])
@pytest.mark.parametrize("field", ["config.model", "config.method", "config.temperature",
                                   "inputs.requirement", "inputs.code.path", "final_code.path"])
@pytest.mark.parametrize("null", [False, True], ids=["missing", "null"])
def test_transcript_without_a_run_field_exits_14_naming_it(tmp_path, capsys, null, field,
                                                           command) -> None:
    runs = run_demo_update(tmp_path)
    [path] = runs.glob("*.jsonl")
    records = records_of(path)
    *parents, name = field.split(".")
    holder = records[-1]["outcome"] if parents == ["final_code"] else records[0]
    for key in parents:
        holder = holder[key]
    if null:
        holder[name] = None
    else:
        del holder[name]
    write_records(path, records)  # only the field is wrong: the checksum matches
    if command == "evaluate":
        args = ["evaluate", "--runs-dir", str(runs), "--annotations",
                str(DEMO / "annotations.json"), "--output", str(tmp_path / "scored.json")]
    else:
        args = ["replay", "--transcript", str(path)]
    capsys.readouterr()
    assert main(args) == 14
    err = capsys.readouterr().err
    assert str(path) in err and field in err


MISSING = object()


@pytest.mark.parametrize("command", ["evaluate", "replay"])
@pytest.mark.parametrize("method, field, value", [
    ("vapu", "config.model", 5),
    ("vapu", "config.method", "fsl"),
    ("vapu", "config.temperature", "hot"),
    ("vapu", "inputs.requirement.body", [1, 2]),
    ("vapu", "inputs.requirement.body", []),
    ("osl", "inputs.example", ["a"]),
    ("osl", "inputs.example", 5),
    ("osl", "inputs.example", MISSING),
    ("vapu", "inputs.repetition", "2"),
], ids=lambda v: "missing" if v is MISSING else repr(v) if not isinstance(v, str) else v)
def test_transcript_with_a_mistyped_run_field_exits_14_naming_it(tmp_path, capsys, method,
                                                                  field, value,
                                                                  command) -> None:
    runs = tmp_path / "runs"
    if method == "osl":
        example = tmp_path / "example.json"  # stays in place: replay must not read it
        example.write_text(json.dumps({"input": "old()", "output": "new()"}), encoding="utf-8")
        assert main(demo_osl_args(example, runs)) == 0
    else:
        assert main(demo_update_args(DEMO / "legacy", runs)) == 0
    [path] = runs.glob("*.jsonl")
    records = records_of(path)
    *parents, name = field.split(".")
    holder = records[0]
    for key in parents:
        holder = holder[key]
    if value is MISSING:
        del holder[name]
    else:
        holder[name] = value
    write_records(path, records)  # only the field is wrong: the checksum matches
    scored = tmp_path / "scored.json"
    if command == "evaluate":
        args = ["evaluate", "--runs-dir", str(runs), "--annotations",
                str(DEMO / "annotations.json"), "--output", str(scored)]
    else:
        args = ["replay", "--transcript", str(path)]
    capsys.readouterr()
    assert main(args) == 14
    err = capsys.readouterr().err
    assert str(path) in err and field in err
    assert not scored.exists()


def test_evaluate_records_a_lone_surrogate_in_a_final_file_as_one_fatal_finding(
        tmp_path) -> None:
    runs = tmp_path / "runs"
    python_baseline_runs(runs, tmp_path / "fx", "odd", "x = 1", reps=1)
    [path] = runs.glob("*.jsonl")
    records = records_of(path)
    records[-1]["outcome"]["final_code"]["content"] = 'x = "\ud800"\n'
    write_records(path, records)
    scored = tmp_path / "scored.json"
    assert main(["evaluate", "--runs-dir", str(runs), "--annotations",
                 str(DEMO / "annotations.json"), "--output", str(scored)]) == 0
    [record] = json.loads(scored.read_text(encoding="utf-8"))["records"]
    assert record["error_count"] == 1 and record["errors_by_category"]["fatal"] == 1


@pytest.mark.parametrize("flag", ["--requirements", "--registry", "--templates placeholder",
                                  "--templates bytes", "--templates unbound", "--fixtures bytes",
                                  "--fixtures missing"])
def test_unreadable_run_input_is_a_config_error_naming_it(tmp_path, capsys, flag) -> None:
    bad = tmp_path / "bad.txt"
    out = tmp_path / "out"
    args = demo_update_args(DEMO / "legacy", out)
    if flag == "--requirements":  # not UTF-8
        bad.write_bytes(b"Update the view \xff to the current version.\n")
        args[args.index(str(DEMO / "requirements.txt"))] = str(bad)
    elif flag == "--registry":  # missing; only a live backend reads it, before any call
        args = [*live_update_args(out, "gpt-4o"), "--registry", str(bad)]
    elif flag.startswith("--templates"):  # an undocumented or unbound placeholder, or not UTF-8
        templates = shutil.copytree(DEMO.parent / "templates", tmp_path / "templates")
        name, tail = {"--templates placeholder": ("verifier.txt", b"x {{bogus}}\n"),
                      "--templates bytes": ("verifier.txt", b"\xff\n"),
                      # the finalizer is bound code and changes only
                      "--templates unbound": ("finalizer.txt", b"x {{requirements}}\n")}[flag]
        bad = templates / name
        bad.write_bytes(bad.read_bytes() + tail)
        args += ["--templates", str(templates)]
    elif flag == "--fixtures bytes":  # a UTF-16 byte-order mark: not UTF-8
        fixtures = shutil.copytree(DEMO / "fixtures", tmp_path / "fixtures")
        bad = fixtures / "manager-0.txt"
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        args[args.index(str(DEMO / "fixtures"))] = str(fixtures)
    else:  # a directory that does not exist is not an empty fixture set
        bad = tmp_path / "no-such-dir"
        args[args.index(str(DEMO / "fixtures"))] = str(bad)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    assert not out.exists()


def test_every_bundled_template_is_rendered_with_exactly_its_placeholders(
        tmp_path, monkeypatch) -> None:
    # load_templates lets a template use only its bundled counterpart's placeholders,
    # which holds only while those are exactly the names its step binds.
    rendered = []
    real_render = vapu.prompts.render_template

    def render(tpl, bindings):
        rendered.append((tpl.template_id, tpl.placeholders(), frozenset(bindings)))
        return real_render(tpl, bindings)

    monkeypatch.setattr(vapu.pipeline, "render_template", render)
    monkeypatch.setattr(vapu.prompts, "render_template", render)
    example = tmp_path / "example.json"
    example.write_text(json.dumps({"input": "old()", "output": "new()"}), encoding="utf-8")
    zsl_args = demo_osl_args(example, tmp_path / "zsl")
    at = zsl_args.index("--method")
    zsl_args[at:at + 4] = ["--method", "zsl"]  # and no --example
    for args in (demo_update_args(DEMO / "legacy", tmp_path / "vapu"), zsl_args,
                 demo_osl_args(example, tmp_path / "osl")):
        assert main(args) == 0
    bundled = {tpl.template_id for tpl in vapu.prompts.default_templates().values()}
    assert {template_id for template_id, _, _ in rendered} == bundled
    for template_id, placeholders, names in rendered:
        assert placeholders == names, template_id


@pytest.mark.parametrize("command", ["update", "replay"])
def test_a_template_directory_that_is_gone_exits_2_naming_it(tmp_path, capsys,
                                                             command) -> None:
    templates = shutil.copytree(DEMO.parent / "templates", tmp_path / "templates")
    out = tmp_path / "out"
    args = [*demo_update_args(DEMO / "legacy", out), "--templates", str(templates)]
    if command == "replay":  # a transcript whose template directory was deleted since
        assert main(args) == 0
        [transcript] = out.glob("*.jsonl")
        args = ["replay", "--transcript", str(transcript)]
    shutil.rmtree(templates)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"cannot read template directory {templates}: not a directory" in err
    assert "is missing" not in err and "Traceback" not in err
    assert command == "replay" or not out.exists()


@pytest.mark.parametrize("parallel", ["1", "3"])
def test_a_batch_reads_its_templates_once_so_an_edit_reaches_no_later_run(
        tmp_path, monkeypatch, parallel) -> None:
    templates = shutil.copytree(DEMO.parent / "templates", tmp_path / "templates")
    reads = []
    read_input = vapu.prompts.read_input

    def counted_read(path, what, *args):
        if what == "template asset":
            reads.append(path)
        return read_input(path, what, *args)

    persist = vapu.pipeline.persist_transcript

    def persist_then_edit(transcript, output_dir):
        path = persist(transcript, output_dir)
        if transcript.run_id.endswith("-r1"):
            with (templates / "verifier.txt").open("a", encoding="utf-8") as handle:
                handle.write("Edited after the first run.\n")
        return path

    monkeypatch.setattr(vapu.prompts, "read_input", counted_read)
    monkeypatch.setattr(vapu.pipeline, "persist_transcript", persist_then_edit)
    out = tmp_path / "out"
    assert main([*demo_update_args(DEMO / "legacy", out, runs=3),
                 "--templates", str(templates), "--parallel", parallel]) == 0
    assert len(reads) == 8  # the eight templates, once for the three runs
    assert "Edited" in (templates / "verifier.txt").read_text(encoding="utf-8")
    prompts = [[e.prompt for e in load_transcript(
        out / f"reference_list-vapu-gpt-4o-t0-r{rep}.jsonl").exchanges] for rep in (1, 2, 3)]
    assert prompts[1] == prompts[0] and prompts[2] == prompts[0]


@pytest.mark.parametrize("command", ["update", "evaluate", "report"])
def test_an_output_that_cannot_be_written_exits_15_naming_it(tmp_path, capsys,
                                                             command) -> None:
    afile = tmp_path / "afile"  # a regular file where a directory belongs
    afile.write_text("", encoding="utf-8")
    if command == "update":
        args = demo_update_args(DEMO / "legacy", afile / "out")
    elif command == "evaluate":
        args = ["evaluate", "--runs-dir", str(run_demo_update(tmp_path)),
                "--annotations", str(DEMO / "annotations.json"),
                "--output", str(afile / "scored.json")]
    else:
        scored = write_synthetic_report_inputs(tmp_path / "scored")
        args = ["report", "--compare", *map(str, scored), "--output-dir", str(afile / "report")]
    capsys.readouterr()
    assert main(args) == 15
    err = capsys.readouterr().err
    assert str(afile) in err and os.strerror(errno.ENOTDIR) in err


@pytest.mark.parametrize("under", ["", "out", "out/deeper"], ids=["file", "under", "deeper"])
def test_an_output_dir_at_or_under_a_file_exits_15_before_any_call(tmp_path, capsys,
                                                                   monkeypatch, under) -> None:
    calls = []

    def no_call(self, role, prompt, params):
        calls.append(role)
        raise AssertionError("a model call was made")

    monkeypatch.setattr(ReplayGateway, "_send", no_call)
    afile = tmp_path / "afile"  # a regular file where a directory belongs
    afile.write_bytes(b"kept")
    capsys.readouterr()
    assert main(demo_update_args(DEMO / "legacy", afile / under if under else afile)) == 15
    err = capsys.readouterr().err
    assert str(afile) in err and os.strerror(errno.ENOTDIR) in err
    assert calls == []
    assert afile.read_bytes() == b"kept"


def test_every_exit_code_is_in_the_readme_table() -> None:
    def family(cls: type) -> list[type]:
        return [cls, *(sub for child in cls.__subclasses__() for sub in family(child))]

    codes = {cls.exit_code for cls in family(VapuError)} | {0}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = {int(code) for code in re.findall(r"^\| (\d+) \|", readme, re.MULTILINE)}
    assert codes == table


def test_pipeline_warnings_name_their_own_run(tmp_path, caplog) -> None:
    fixtures = write_fixtures(tmp_path / "fx", {
        "manager-0": "no task list here",
        "manager-1": "1. update the view",
        "prompt_maker-0": "rewrite the view",
        "executor-0": "```php\ncut off",
        "executor-1": fenced("echo 'updated';"),
        "verifier-0": "maybe",
        "verifier-1": "still maybe",
        "finalizer-0": fenced("echo 'final';"),
        "verifier-2": "ACCEPT",
    })
    # A run id is no logging format string: "%" in it must reach the log as it is.
    project = demo_project(tmp_path / "project", "a.php", "100%.php")
    args = demo_update_args(project, tmp_path / "runs")
    args[args.index(str(DEMO / "fixtures"))] = str(fixtures)
    caplog.set_level(logging.WARNING)
    assert main([*args, "--parallel", "2"]) == 0
    warnings: dict[str, list[str]] = {}
    for record in caplog.records:
        if record.levelno == logging.WARNING and record.name.startswith("vapu"):
            prefix, _, message = record.getMessage().partition(": ")
            warnings.setdefault(prefix, []).append(message)
    expected = [
        "manager draft yielded no tasks; reflection sees the raw response",
        "executor output looked truncated; retrying once",
        "unparseable verdict for task 1; re-asking once",
        "verdict still unparseable; treating as rejection",
    ]
    assert warnings == {"run a-vapu-gpt-4o-t0-r1": expected, "run 100%-vapu-gpt-4o-t0-r1": expected}


# --- evaluate checks each distinct final file once ---

def python_baseline_runs(runs: Path, fixtures: Path, name: str, code: str, reps: int) -> None:
    """``reps`` zero-shot runs of a one-file Python project, each ending in ``code``."""
    project = runs.parent / f"project-{name}"
    project.mkdir()
    (project / f"{name}.py").write_text("x = 1\n", encoding="utf-8")
    write_fixtures(fixtures / name, {"baseline-0": fenced(code, "python")})
    args = demo_update_args(project, runs, runs=reps)
    args[0] = "baseline"
    args[args.index(str(DEMO / "fixtures"))] = str(fixtures / name)
    assert main([*args, "--method", "zsl"]) == 0


def test_evaluate_checks_each_distinct_final_file_once_per_command(tmp_path, checked) -> None:
    runs = tmp_path / "runs"
    python_baseline_runs(runs, tmp_path / "fx", "broken", "def f(:\n    pass", reps=2)
    python_baseline_runs(runs, tmp_path / "fx", "fine", "def f():\n    pass", reps=1)
    scored = tmp_path / "scored.json"
    args = ["evaluate", "--runs-dir", str(runs), "--annotations", str(DEMO / "annotations.json"),
            "--output", str(scored)]
    assert main(args) == 0
    assert checked == ["def f(:\n    pass", "def f():\n    pass"]  # broken r1 and r2, fine r1
    # A second command keeps nothing from the first.
    assert main(args) == 0
    assert len(checked) == 4

    # The records are the ones an unmemoised checker gives, fatal findings included.
    records = json.loads(scored.read_text(encoding="utf-8"))["records"]
    annotations = load_annotations(DEMO / "annotations.json")
    plain = {"py": python_syntax_checker, "python": python_syntax_checker}
    transcripts = [(load_transcript(path), path) for path in sorted(runs.glob("*.jsonl"))]
    expected = [score_transcript(t, read_header(t, path), annotations, plain)
                for t, path in transcripts]
    assert records == json.loads(json.dumps(expected))
    assert [r["errors_by_category"]["fatal"] for r in records] == [1, 1, 0]
