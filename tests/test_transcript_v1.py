"""Format v1 transcripts still load, replay and score as before.

``data/v1/`` holds the demo ``update`` and ``baseline --method zsl``
transcripts as the v1 writer made them (run from a directory holding a
copy of the demo, so the config paths are relative).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from vapu.cli import demo_root, main
from vapu.gateway import ChatExchange
from vapu.workspace import RunTranscript, load_transcript

V1 = Path(__file__).parent / "data" / "v1"
DEMO = demo_root()
VAPU_V1 = V1 / "reference_list-vapu-gpt-4o-t0-r1.jsonl"
ZSL_V1 = V1 / "reference_list-zsl-gpt-4o-t0-r1.jsonl"


def v1_reading(path: Path) -> RunTranscript:
    """What the v1 reader built: every record taken as written."""
    header, *middle, outcome, _ = [
        json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert header["format"] == "vapu-transcript-v1"
    return RunTranscript(
        run_id=header["run_id"],
        config=header["config"],
        exchanges=[ChatExchange.from_dict(record) for record in middle],
        outcome=outcome["outcome"],
        duration=outcome["duration"],
        inputs=header["inputs"],
        status=outcome["status"],
    )


def remake(tmp_path: Path) -> Path:
    """The same two demo runs, written now; returns the runs directory."""
    runs = tmp_path / "v2"
    common = ["--backend", "replay", "--requirements", str(DEMO / "requirements.txt"),
              "--project", str(DEMO / "legacy"), "--model", "gpt-4o",
              "--temperature", "0", "--runs", "1"]
    assert main(["update", *common, "--fixtures", str(DEMO / "fixtures"),
                 "--output-dir", str(runs / "vapu")]) == 0
    assert main(["baseline", "--method", "zsl", *common,
                 "--fixtures", str(DEMO / "fixtures-baseline"),
                 "--output-dir", str(runs / "zsl")]) == 0
    return runs


@pytest.mark.parametrize("path", [VAPU_V1, ZSL_V1], ids=["update", "zsl"])
def test_v1_loads_as_before(path) -> None:
    assert load_transcript(path) == v1_reading(path)


@pytest.mark.parametrize("path, method", [(VAPU_V1, "vapu"), (ZSL_V1, "zsl")],
                         ids=["update", "zsl"])
def test_v1_and_v2_of_one_run_load_alike(tmp_path, path, method) -> None:
    old = load_transcript(path)
    new = load_transcript(remake(tmp_path) / method / path.name)
    assert old.run_id == new.run_id
    assert (old.inputs, old.outcome, old.status) == (new.inputs, new.outcome, new.status)
    assert [(e.role, e.prompt, e.response, e.flags) for e in old.exchanges] == \
        [(e.role, e.prompt, e.response, e.flags) for e in new.exchanges]


@pytest.mark.parametrize("path", [VAPU_V1, ZSL_V1], ids=["update", "zsl"])
def test_v1_replays_byte_identically(path, capsys) -> None:
    assert main(["replay", "--transcript", str(path)]) == 0
    assert "byte-identically" in capsys.readouterr().out


def test_v1_scores_like_v2(tmp_path) -> None:
    v2 = remake(tmp_path)
    scored = {}
    for label, runs_dir in (("v1", tmp_path / "v1"), ("v2", v2)):
        for method, transcript in (("vapu", VAPU_V1), ("zsl", ZSL_V1)):
            if label == "v1":
                (runs_dir / method).mkdir(parents=True)
                shutil.copy(transcript, runs_dir / method)
            output = tmp_path / f"scored-{label}-{method}.json"
            assert main(["evaluate", "--runs-dir", str(runs_dir / method),
                         "--annotations", str(DEMO / "annotations.json"),
                         "--output", str(output)]) == 0
            records = json.loads(output.read_text(encoding="utf-8"))["records"]
            scored[label, method] = [
                {k: v for k, v in r.items() if k != "duration"} for r in records]
    for method in ("vapu", "zsl"):
        assert len(scored["v1", method]) == 1
        assert scored["v1", method] == scored["v2", method]
