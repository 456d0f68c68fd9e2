from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import vapu.evaluation
from vapu.models import CodeDocument, RequirementSpec
from vapu.pipeline import RunContext
from vapu.prompts import default_templates
from vapu.workspace import Backend, Method, RunConfig

LEGACY_VIEW = """<?php foreach ($rows as $row): ?>
<p><?php echo $row['Item']['name']; ?></p>
<?php endforeach; ?>
"""


def write_fixtures(directory: Path, entries: dict[str, str]) -> Path:
    """Write replay fixture files; keys are '<role>-<index>' stems."""
    directory.mkdir(parents=True, exist_ok=True)
    for stem, text in entries.items():
        (directory / f"{stem}.txt").write_text(text, encoding="utf-8")
    return directory


def records_of(path: Path) -> list[dict]:
    """A transcript's records, all but the checksum."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()][:-1]


def write_records(path: Path, records: list[dict]) -> None:
    """Write records as persist_transcript does, with a valid checksum."""
    body = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode("utf-8")
    trailer = {"record": "checksum", "sha256": hashlib.sha256(body).hexdigest()}
    path.write_bytes(body + (json.dumps(trailer, sort_keys=True) + "\n").encode("utf-8"))


@pytest.fixture
def checked(monkeypatch) -> list[str]:
    """Every content the bundled Python syntax checker runs on, in order."""
    contents: list[str] = []
    check = vapu.evaluation.python_syntax_checker

    def counting(content: str) -> list[str]:
        contents.append(content)
        return check(content)

    monkeypatch.setattr(vapu.evaluation, "python_syntax_checker", counting)
    return contents


def fenced(code: str, tag: str = "php") -> str:
    return f"```{tag}\n{code}\n```\n"


def multi_task_fixtures(tasks: int, verifier_responses: list[str],
                        finalizer_count: int) -> dict[str, str]:
    """Fixture set for a plan of n tasks with scripted verifier behaviour."""
    plan = "\n".join(f"{i}. task number {i}" for i in range(1, tasks + 1))
    entries = {"manager-0": plan, "manager-1": plan}
    for i in range(tasks):
        entries[f"prompt_maker-{i}"] = f"instruction for task {i + 1}"
        entries[f"executor-{i}"] = fenced(f"echo 'executed {i + 1}';")
    for i, response in enumerate(verifier_responses):
        entries[f"verifier-{i}"] = response
    for i in range(finalizer_count):
        entries[f"finalizer-{i}"] = fenced(f"echo 'finalized {i}';")
    return entries


@pytest.fixture
def sample_doc() -> CodeDocument:
    return CodeDocument(path="views/items.php", language_tag="php", content=LEGACY_VIEW)


@pytest.fixture
def sample_req() -> RequirementSpec:
    return RequirementSpec.from_text(
        id="upgrade",
        text="Update the view to the current framework version.\n"
             "Replace array access with entity getters.",
    )


def replay_config(output_dir: Path, fixtures_dir: Path, **overrides) -> RunConfig:
    defaults = dict(
        model="gpt-4o",
        output_dir=output_dir,
        temperature=0.0,
        repetitions=1,
        backend=Backend.REPLAY,
        fixtures_dir=fixtures_dir,
        method=Method.VAPU,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def one_gateway(gateway) -> RunContext:
    """A context with the bundled templates whose every run sends through ``gateway``."""
    return RunContext(default_templates(), lambda: gateway)
