"""Micro-benchmarks for the per-run local hot path (pytest-benchmark).

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_hotpath.py

They sit outside ``testpaths``, so the plain test run skips them.  The
inputs are shaped like the large-file replay runs: a 900-LOC PHP view,
an executor reply that fences it, and a transcript of ten exchanges
whose prompts embed the file.
"""

from __future__ import annotations

import pytest

from vapu.gateway import ChatExchange
from vapu.models import AgentRole
from vapu.prompts import extract_code, has_unbalanced_fences
from vapu.workspace import RunTranscript, persist_transcript

LOC = 900
CODE = "".join(
    f"    <td><?php echo h($row['Item']['field_{i % 37}']); ?> <!-- line {i} --></td>\n"
    for i in range(LOC)
)
REPLY = f"Here is the updated view:\n```php\n{CODE}```\nAll tasks applied.\n"


@pytest.fixture
def transcript() -> RunTranscript:
    roles = [AgentRole.MANAGER, AgentRole.MANAGER, AgentRole.PROMPT_MAKER,
             AgentRole.EXECUTOR, AgentRole.VERIFIER, AgentRole.FINALIZER,
             AgentRole.VERIFIER, AgentRole.PROMPT_MAKER, AgentRole.EXECUTOR,
             AgentRole.VERIFIER]
    exchanges = [
        ChatExchange(role=role, prompt=f"Update this file:\n{CODE}\nInto:\n{CODE}",
                     response=REPLY, duration=0.01, started_at=1000.0 + i,
                     model="replay", temperature=0.0)
        for i, role in enumerate(roles)
    ]
    return RunTranscript(
        run_id="app__View__items_index-vapu-replay-t0-r1",
        config={"model": "replay", "method": "vapu"},
        exchanges=exchanges,
        outcome={"final_code": {"path": "app/View/items_index.php", "content": CODE}},
        inputs={"code": {"path": "app/View/items_index.php", "content": CODE}},
    )


def test_extract_code(benchmark) -> None:
    code, fenced = benchmark(extract_code, REPLY)
    assert fenced and code == CODE.strip("\r\n")


def test_has_unbalanced_fences(benchmark) -> None:
    assert benchmark(has_unbalanced_fences, REPLY) is False


def test_persist_transcript(benchmark, transcript, tmp_path) -> None:
    path = benchmark(persist_transcript, transcript, tmp_path)
    assert path.stat().st_size > 10 * 2 * len(CODE)
