from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import write_fixtures
import vapu.pipeline
from vapu.cli import demo_root, main
from vapu.workspace import load_transcript

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


def test_replay_detects_mismatch(tmp_path) -> None:
    out = run_demo_update(tmp_path)
    path = next(out.glob("*.jsonl"))
    transcript = load_transcript(path)
    transcript.outcome["final_code"]["content"] += "\ntampered"
    from vapu.workspace import persist_transcript
    persist_transcript(transcript, path.parent)
    assert main(["replay", "--transcript", str(path)]) == 19


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
