"""Micro-benchmarks for the per-run local hot path (pytest-benchmark).

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_hotpath.py

They sit outside ``testpaths``, so the plain test run skips them.  The
inputs are shaped like the large-file replay runs: a 900-LOC PHP view,
an executor reply that fences it, and transcripts of ten exchanges
whose prompts embed the file: as literal strings (stored inline), or
rendered through the default templates (stored as template pieces plus
references to the transcript's text table), optionally with the
executor's and finalizer's replies split around their code as the
pipeline splits them (the code stored as a reference too).  The fence
scans also run on two replies dense in backticks, where stepping from
backtick to backtick gains nothing: a ~40 KB JavaScript module with a
template literal on every line, and Markdown prose with inline code on
every line before a short fenced block.  The prompt benches render the
executor, verifier and baseline templates around that file, and the
verdict bench parses a rejection with eight change bullets.
``test_persist_large_file_transcript`` writes a three-task run shaped
like a perfbench large-files one: a long header input, six versions of
the file as table texts (79% of its bytes; 76% in large-files) and one
truncated reply stored as one long string.
Two benches time ``models.to_json``, the writer of a transcript's header
and outcome, on one rendered exchange and on a run config, one times
``workspace._exchange_record``, the writer of the exchange records, on
that exchange, and one ``workspace._exchange_from_record``, their reader,
on the record it writes; their ``_with_optional_fields`` twins do the
same with ``retries`` and ``flags`` set, the optional-field table's
path.  ``test_json_text`` escapes the first 1 K and 40 K characters of
the view as a transcript's text, on the bytes path of
``workspace._json_text`` (``kernel``) and by json's C escaper (``c``):
where the two cross sets ``workspace.LONG_TEXT``.

Three benches run whole layers on the bundled demo instead: one
``run_update`` through a replay gateway (planning, two tasks, the
verifier loop, and the updated-file and transcript writes),
``score_transcript`` on that run's loaded transcript, and
``build_comparison_report`` on the synthetic scored records whose
report ``tests/test_cli.py`` checks against the golden files.  One more
runs the whole ``vapu evaluate`` command over ``REPETITIONS`` replayed
runs of one Python file that all end in the same 600-LOC module, as
repeated runs at temperature 0 do, and ``test_evaluate_runs_dir`` runs it
over the hand-built runs whose scored file ``tests/test_cli.py`` checks
against its golden bytes.
``test_cli_report_call`` times a whole in-process ``vapu report`` call on
those synthetic records: the fixed cost each ``main`` call pays (argument
parsing included) on top of the report itself.  ``test_indented_json``
writes that golden scored file's data as ``evaluate`` writes it, through
``evaluation.to_indented_json`` and through ``json.dumps(indent=2)``, and
``test_aggregate_records`` summarises the records of one perfbench
evaluate-report ``evaluate`` call: four files of two repetitions each.
The batch benches run the
demo update ``BATCH_RUNS`` times through one command at ``--parallel`` 1,
8 and 32, through a replay gateway that waits ``CALL_LATENCY_S`` before
each reply as an endpoint would, so they measure how far the worker pool
overlaps model latency.  ``test_demo_zsl_batch`` runs a
``vapu baseline --method zsl --runs 20`` batch over the demo through
``main`` with no latency, so what it times is each run's fixed cost: the
run id, the prompt, the updated-file and transcript writes.
``test_run_id_and_output_path`` times working out one job's run id and
updated-file path.  ``test_load_codebase`` reads a project of three
controller directories of five 28-line views and a hidden file, past an
output directory inside it that holds 20 earlier runs, and
``test_load_replay_fixtures`` reads 18 fixture files, four of them
900-line coded replies.  ``test_read_input`` reads a 28-line and a
900-line view, with "\\n" and with "\\r\\n" line ends, through
``read_input``, against one text-mode read of the same file.  Then
``test_rewrite_a_file`` rewrites a 10 KB and a
220 KB file in place with ``write_file``, against writing a temporary
file and moving it over the old one with ``os.replace``, and
``test_create_a_file`` writes the same sizes to a path that does not exist
yet, as a real run makes its files.  The last times
a new interpreter importing ``vapu.cli``, the start-up cost every command
pays, and checks that the HTTP stack stays unloaded.

To time another tree's code with these benches (a before/after
comparison), pass ``-o pythonpath=<tree>/src``: ``pyproject.toml`` puts
this checkout's ``src/`` ahead of ``PYTHONPATH``, so without it both
sides silently measure this checkout.  The ``vapu:`` line of the report
header (``conftest.py``) names the package a session imported.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest

import vapu.cli
import vapu.workspace
from vapu.cli import demo_root, main
from vapu.evaluation import (
    aggregate_records,
    build_comparison_report,
    default_checkers,
    load_annotations,
    records_for_report,
    score_transcript,
    to_indented_json,
)
from vapu.gateway import ChatExchange, ReplayGateway, load_replay_fixtures
from vapu.models import AgentRole, CodeDocument, RequirementSpec, read_input, to_json
from vapu.pipeline import RunContext, run_update, updated_file_path
from vapu.prompts import (
    build_baseline_prompt,
    default_templates,
    extract_code,
    has_unbalanced_fences,
    parse_verdict,
    render_template,
)
from vapu.workspace import (
    Backend,
    Method,
    RunConfig,
    RunTranscript,
    load_codebase,
    load_transcript,
    make_run_id,
    persist_transcript,
    read_header,
    write_file,
)

# The golden-report records live with the test that checks their report.
TESTS = Path(__file__).parents[1] / "tests"
sys.path.insert(0, str(TESTS))
# test_cli imports the tests' conftest module by name, which is this directory's as pytest
# loaded it: drop that name so the import finds the tests' one (pytest keeps its own copy).
sys.modules.pop("conftest", None)
from test_cli import (  # noqa: E402
    demo_update_args,
    demo_zsl_args,
    fresh_python,
    synthetic_scored,
    write_synthetic_report_inputs,
)

DEMO = demo_root()

LOC = 900
CODE = "".join(
    f"    <td><?php echo h($row['Item']['field_{i % 37}']); ?> <!-- line {i} --></td>\n"
    for i in range(LOC)
)
REPLY = f"Here is the updated view:\n```php\n{CODE}```\nAll tasks applied.\n"
VERDICT = "REJECT: the view still uses CakePHP 1.2 conventions\n" + "".join(
    f"- read field_{i} through an entity getter, not array access\n" for i in range(8))
JS_CODE = "".join(f"  const label{i} = `${{row.field_{i % 37}}} of ${{rows.length}} rows`;\n"
                  for i in range(660))
PROSE = "".join(f"- Read `field_{i % 37}` through `$row->get()`, not `$row[...]`; keep `h()`.\n"
                for i in range(2000))
# Each reply with the code extract_code takes from it.
REPLIES = {
    "php": (REPLY, CODE.strip("\r\n")),
    "js": (f"Here is the updated module:\n```js\n{JS_CODE}```\nAll tasks applied.\n",
           JS_CODE.strip("\r\n")),
    "prose": (f"{PROSE}```php\n<?php ?>\n```\n", "<?php ?>"),
}
EXAMPLE = ("<?php echo $html->link($row['Item']['title'], '/items/view/' . $row['Item']['id']);",
           "<?php echo $this->Html->link($row->title, ['action' => 'view', $row->id]);")


ROLES = [AgentRole.MANAGER, AgentRole.MANAGER, AgentRole.PROMPT_MAKER,
         AgentRole.EXECUTOR, AgentRole.VERIFIER, AgentRole.FINALIZER,
         AgentRole.VERIFIER, AgentRole.PROMPT_MAKER, AgentRole.EXECUTOR,
         AgentRole.VERIFIER]
# The template each role's prompt comes from (the second manager call reflects).
TEMPLATES = ["manager", "reflection", "prompt_maker", "executor", "verifier", "finalizer",
             "verifier", "prompt_maker", "executor", "verifier"]
BINDINGS = {"requirements": "- Use entity getters\n- Use the Html helper",
            "task": "Replace array access with entity getters", "code": CODE,
            "code_before": CODE, "code_after": CODE.replace("field_", "field-"),
            "changes": "- keep the row markup"}


@pytest.fixture
def transcript() -> RunTranscript:
    exchanges = [
        ChatExchange(role=role, prompt=f"Update this file:\n{CODE}\nInto:\n{CODE}",
                     response=REPLY, duration=0.01, started_at=1000.0 + i,
                     model="replay", temperature=0.0)
        for i, role in enumerate(ROLES)
    ]
    return _transcript(exchanges)


@pytest.fixture
def rendered_transcript() -> RunTranscript:
    exchanges = []
    for i, (role, name) in enumerate(zip(ROLES, TEMPLATES)):
        tpl = default_templates()[name]
        prompt = render_template(tpl, {k: BINDINGS[k] for k in tpl.placeholders()})
        exchange = ChatExchange(role=role, prompt=prompt.text, response=REPLY, duration=0.01,
                                started_at=1000.0 + i, model="replay", temperature=0.0)
        exchange.prompt_parts = prompt.parts
        exchanges.append(exchange)
    return _transcript(exchanges)


@pytest.fixture
def referenced_transcript(rendered_transcript) -> RunTranscript:
    for exchange in rendered_transcript.exchanges:
        if exchange.role in (AgentRole.EXECUTOR, AgentRole.FINALIZER):
            code, _, (start, end) = extract_code(exchange.response)
            exchange.response_parts = [exchange.response[:start], code, exchange.response[end:]]
    return rendered_transcript


# The code as each of six updates leaves it, as a large-files run's replies carry it.
VERSIONS = [CODE.replace("field_", f"field{v}_") for v in range(1, 7)]


@pytest.fixture
def large_file_transcript() -> RunTranscript:
    """A three-task run shaped like a large-files one: the header's input is the original
    file; each executor and finalizer reply carries a new version of it, split around the
    code as the pipeline splits it, so the six versions are table texts; and one executor
    reply, cut short, is one part, flagged truncated."""
    exchanges: list[ChatExchange] = []

    def call(role, template, bindings, reply_parts, flags=()):
        tpl = default_templates()[template]
        prompt = render_template(tpl, {k: bindings[k] for k in tpl.placeholders()})
        exchange = ChatExchange(role=role, prompt=prompt.text, response="".join(reply_parts),
                                duration=0.01, started_at=1000.0 + len(exchanges),
                                model="replay", temperature=0.0, flags=list(flags))
        exchange.prompt_parts, exchange.response_parts = prompt.parts, reply_parts
        exchanges.append(exchange)

    plan = "1. Use entity getters\n2. Use the Html helper\n3. Escape every field\n"
    call(AgentRole.MANAGER, "manager", BINDINGS, [plan])
    call(AgentRole.MANAGER, "reflection", BINDINGS, [plan])
    code = CODE
    for task in range(3):
        executed, finalized = VERSIONS[2 * task], VERSIONS[2 * task + 1]
        bindings = {**BINDINGS, "code": code, "code_before": code, "code_after": executed}
        call(AgentRole.PROMPT_MAKER, "prompt_maker", bindings, [f"instruction {task + 1}"])
        if task == 1:  # cut off mid-code, then asked again
            call(AgentRole.EXECUTOR, "executor", bindings,
                 [REPLY.replace(CODE, executed)[:len(CODE) // 2]], flags=["truncated"])
        call(AgentRole.EXECUTOR, "executor", bindings,
             ["Here is the updated view:\n```php\n", executed, "```\nAll tasks applied.\n"])
        call(AgentRole.VERIFIER, "verifier", bindings, [VERDICT])
        call(AgentRole.FINALIZER, "finalizer", {**bindings, "code": executed},
             ["```php\n", finalized, "```\n"])
        code = finalized
    transcript = _transcript(exchanges)
    transcript.outcome = {"final_code": {"path": "app/View/items_index.php", "content": code}}
    return transcript


def _transcript(exchanges: list[ChatExchange]) -> RunTranscript:
    return RunTranscript(
        run_id="app__View__items_index-vapu-replay-t0-r1",
        config={"model": "replay", "method": "vapu"},
        exchanges=exchanges,
        outcome={"final_code": {"path": "app/View/items_index.php", "content": CODE}},
        inputs={"code": {"path": "app/View/items_index.php", "content": CODE}},
    )


@pytest.mark.parametrize("reply", REPLIES)
def test_extract_code(benchmark, reply) -> None:
    text, expected = REPLIES[reply]
    code, fenced, _ = benchmark(extract_code, text)
    assert fenced and code == expected


@pytest.mark.parametrize("reply", REPLIES)
def test_has_unbalanced_fences(benchmark, reply) -> None:
    assert benchmark(has_unbalanced_fences, REPLIES[reply][0]) is False


@pytest.mark.parametrize("name", ["executor", "verifier"])
def test_render_template(benchmark, name) -> None:
    tpl = default_templates()[name]
    prompt = benchmark(render_template, tpl, {k: BINDINGS[k] for k in tpl.placeholders()})
    assert CODE in prompt.text and "".join(prompt.parts) == prompt.text


def test_parse_verdict(benchmark) -> None:
    verdict = benchmark(parse_verdict, VERDICT)
    assert not verdict.accepted and len(verdict.changes) == 8


@pytest.mark.parametrize("example", [None, EXAMPLE], ids=["zsl", "osl"])
def test_build_baseline_prompt(benchmark, example) -> None:
    code = CodeDocument(path="app/View/items_index.php", language_tag="php", content=CODE)
    prompt = benchmark(build_baseline_prompt, BINDINGS["requirements"], code,
                       default_templates(), example=example)
    assert CODE in prompt.text
    assert ("Example input:" in prompt.text) == (example is not None)


def test_persist_transcript(benchmark, transcript, tmp_path) -> None:
    path = Path(benchmark(persist_transcript, transcript, tmp_path))
    assert path.stat().st_size > 10 * 2 * len(CODE)


def test_persist_rendered_transcript(benchmark, rendered_transcript, tmp_path) -> None:
    path = Path(benchmark(persist_transcript, rendered_transcript, tmp_path))
    # Ten replies fence the file; the header, the outcome and the one changed
    # binding (code_after) add a copy each, however many prompts embed them.
    assert path.stat().st_size < (10 + 4) * len(CODE)


def test_load_rendered_transcript(benchmark, rendered_transcript, tmp_path) -> None:
    path = Path(persist_transcript(rendered_transcript, tmp_path))
    loaded = benchmark(load_transcript, path)
    assert loaded == rendered_transcript


def test_persist_referenced_transcript(benchmark, referenced_transcript, tmp_path) -> None:
    path = Path(benchmark(persist_transcript, referenced_transcript, tmp_path))
    # One copy each: the header's input, code_after, the seven other
    # replies, and the code the three code replies share.  The rest is
    # JSON escaping and the prompts' template text.
    assert path.stat().st_size < (10 + 1) * len(CODE)


def test_persist_large_file_transcript(benchmark, large_file_transcript, tmp_path) -> None:
    path = Path(benchmark(persist_transcript, large_file_transcript, tmp_path))
    texts = [text for line in path.read_text(encoding="utf-8").splitlines()
             for text in json.loads(line).get("texts", [])]
    assert set(VERSIONS) <= set(texts) and len(texts) == len(set(texts))
    assert min(map(len, [CODE, *VERSIONS])) >= vapu.workspace.LONG_TEXT
    # One copy of each version, the input, the cut reply and the text the prompts share.
    assert path.stat().st_size < (1 + 6 + 1 + 1) * len(CODE)
    assert load_transcript(path) == large_file_transcript


def test_load_referenced_transcript(benchmark, referenced_transcript, tmp_path) -> None:
    path = Path(persist_transcript(referenced_transcript, tmp_path))
    loaded = benchmark(load_transcript, path)
    assert loaded == referenced_transcript
    assert loaded.exchanges[3].response_parts == referenced_transcript.exchanges[3].response_parts


def test_to_json_exchange(benchmark, rendered_transcript) -> None:
    exchange = rendered_transcript.exchanges[4]  # a verifier call rendered from its template
    record = benchmark(to_json, exchange)
    assert record["role"] == "verifier" and "parts" not in record


JSON_TEXTS = {"1K": CODE[:1024], "40K": CODE[:40960]}


@pytest.mark.parametrize("size", JSON_TEXTS)
@pytest.mark.parametrize("escaper", ["kernel", "c"])
def test_json_text(benchmark, monkeypatch, escaper, size) -> None:
    text = JSON_TEXTS[size]
    expected = json.encoder.encode_basestring_ascii(text).encode("ascii")
    if escaper == "c":
        assert benchmark(lambda: json.encoder.encode_basestring_ascii(text).encode("ascii")) \
            == expected
        return
    # Every length on the bytes path, so the sizes show where it starts to win.
    monkeypatch.setattr(vapu.workspace, "LONG_TEXT", 0)

    def escape() -> list[bytes]:
        pieces: list[bytes] = []
        vapu.workspace._json_text(text, pieces)
        return pieces

    pieces = benchmark(escape)
    assert len(pieces) == 3 and b"".join(pieces) == expected


def test_exchange_record(benchmark, rendered_transcript) -> None:
    exchange = rendered_transcript.exchanges[4]  # the exchange test_to_json_exchange writes
    record = benchmark(vapu.workspace._exchange_record, exchange, {})
    assert record["role"] == "verifier" and isinstance(record["prompt"], list)


def with_optional_fields(exchange: ChatExchange) -> ChatExchange:
    """``exchange`` with its optional fields set, as a retried, truncated call records them."""
    exchange.retries, exchange.flags = 2, ["truncated", "no_fence"]
    return exchange


def test_exchange_record_with_optional_fields(benchmark, rendered_transcript) -> None:
    exchange = with_optional_fields(rendered_transcript.exchanges[4])
    record = benchmark(vapu.workspace._exchange_record, exchange, {})
    assert record["retries"] == 2 and record["flags"] == exchange.flags


def test_exchange_from_record(benchmark, rendered_transcript) -> None:
    exchange = rendered_transcript.exchanges[4]  # the exchange test_exchange_record writes
    record = vapu.workspace._exchange_record(exchange, {})
    path = Path("t.jsonl")
    # Each call reads the record after an empty table, as the first exchange of a file.
    loaded = benchmark(lambda: vapu.workspace._exchange_from_record(record, [], path, False))
    assert loaded == exchange and loaded.prompt_parts == [p for p in exchange.prompt_parts if p]


def test_exchange_from_record_with_optional_fields(benchmark, rendered_transcript) -> None:
    exchange = with_optional_fields(rendered_transcript.exchanges[4])
    record = vapu.workspace._exchange_record(exchange, {})
    path = Path("t.jsonl")
    loaded = benchmark(lambda: vapu.workspace._exchange_from_record(record, [], path, False))
    assert loaded == exchange and loaded.retries == 2


def test_to_json_config(benchmark, tmp_path) -> None:
    config = RunConfig(model="gpt-4o", output_dir=tmp_path, repetitions=1,
                       backend=Backend.REPLAY, fixtures_dir=DEMO / "fixtures")
    record = benchmark(to_json, config)
    assert record["backend"] == "replay" and record["fixtures_dir"] == str(DEMO / "fixtures")


def _demo_update(output_dir: Path):
    """A call that runs the bundled demo update into ``output_dir``; its inputs are read here."""
    req = RequirementSpec.from_text(
        id="requirements", text=(DEMO / "requirements.txt").read_text(encoding="utf-8"))
    [doc] = load_codebase(DEMO / "legacy", ["**/*"])
    config = RunConfig(model="gpt-4o", output_dir=output_dir, temperature=0.0, repetitions=1,
                       backend=Backend.REPLAY, fixtures_dir=DEMO / "fixtures")
    context = RunContext.from_config(config)
    return lambda: run_update(req, doc, config, context=context)


def test_demo_run_update(benchmark, tmp_path) -> None:
    result = benchmark(_demo_update(tmp_path))
    assert len(result.per_task_outcomes) == 2 and not result.unverified
    assert (tmp_path / f"{result.transcript_ref}.jsonl").exists()


def test_score_demo_transcript(benchmark, tmp_path) -> None:
    result = _demo_update(tmp_path)()
    path = tmp_path / f"{result.transcript_ref}.jsonl"
    transcript = load_transcript(path)
    record = benchmark(score_transcript, transcript, read_header(transcript, path),
                       load_annotations(DEMO / "annotations.json"), default_checkers())
    assert record["run_id"] == result.transcript_ref and record["checkmarks"] is not None


def test_build_comparison_report(benchmark) -> None:
    vapu_marks, vapu_features = records_for_report(
        synthetic_scored("vapu", ("model-a", "model-b", "pipeline-only"))["records"])
    zsl_marks, zsl_features = records_for_report(
        synthetic_scored("zsl", ("baseline-only", "model-a", "model-b"))["records"])
    report = benchmark(build_comparison_report, vapu_marks, zsl_marks,
                       {**zsl_features, **vapu_features})
    golden = TESTS / "data" / "report" / "report.txt"
    assert report.to_text() == golden.read_text(encoding="utf-8")


REPETITIONS = 8
PY_MODULE = "".join(f"def field_{i}(row):\n    return row['Item']['field_{i % 37}']\n\n\n"
                    for i in range(300))


@pytest.fixture(scope="module")
def python_runs(tmp_path_factory) -> Path:
    """A runs directory of ``REPETITIONS`` zero-shot replay runs ending in ``PY_MODULE``."""
    root = tmp_path_factory.mktemp("python-runs")
    (root / "project").mkdir()
    (root / "project" / "items.py").write_text("x = 1\n", encoding="utf-8")
    (root / "fixtures").mkdir()
    (root / "fixtures" / "baseline-0.txt").write_text(f"```python\n{PY_MODULE}```\n",
                                                      encoding="utf-8")
    assert main(["baseline", "--method", "zsl", "--backend", "replay",
                 "--fixtures", str(root / "fixtures"),
                 "--requirements", str(DEMO / "requirements.txt"),
                 "--project", str(root / "project"), "--model", "gpt-4o",
                 "--temperature", "0", "--runs", str(REPETITIONS),
                 "--output-dir", str(root / "runs")]) == 0
    return root / "runs"


def test_evaluate_repeated_python_runs(benchmark, python_runs, tmp_path) -> None:
    scored = tmp_path / "scored.json"
    assert benchmark(main, ["evaluate", "--runs-dir", str(python_runs),
                            "--annotations", str(DEMO / "annotations.json"),
                            "--output", str(scored)]) == 0
    records = json.loads(scored.read_text(encoding="utf-8"))["records"]
    assert len(records) == REPETITIONS
    assert all(r["loc_final"] == 600 and r["error_count"] == 0 for r in records)


def test_evaluate_runs_dir(benchmark, tmp_path) -> None:
    golden = TESTS / "data" / "evaluate"
    scored = tmp_path / "scored.json"
    assert benchmark(main, ["evaluate", "--runs-dir", str(golden / "runs"),
                            "--annotations", str(golden / "annotations.json"),
                            "--output", str(scored)]) == 0
    assert scored.read_bytes() == (golden / "scored.json").read_bytes()


def test_cli_report_call(benchmark, tmp_path) -> None:
    vapu_scored, zsl_scored = write_synthetic_report_inputs(tmp_path / "scored")
    out = tmp_path / "report"
    assert benchmark(main, ["report", "--compare", str(vapu_scored), str(zsl_scored),
                            "--output-dir", str(out)]) == 0
    golden = TESTS / "data" / "report" / "report.txt"
    assert (out / "report.txt").read_bytes() == golden.read_bytes()


def dumps_indented(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("writer", [to_indented_json, dumps_indented], ids=["evaluation", "json"])
def test_indented_json(benchmark, writer) -> None:
    golden = (TESTS / "data" / "evaluate" / "scored.json").read_text(encoding="utf-8")
    assert benchmark(writer, json.loads(golden)) == golden


def test_aggregate_records(benchmark) -> None:
    records = [{"file_id": f"file{i}", "method": "vapu", "model": "replay", "temperature": 0.0,
                "error_count": (i + rep) % 3, "requirement_score": (i * rep) % 3 or None,
                "duration": 0.0131 + 0.0007 * i - 0.0002 * rep}
               for i in range(4) for rep in (1, 2)]
    summaries = benchmark(aggregate_records, records)
    assert [summary["n"] for summary in summaries] == [2] * 4
    assert all(summary["duration_sd"] > 0 for summary in summaries)


BATCH_RUNS = 32
CALL_LATENCY_S = 0.003


class SlowReplayGateway(ReplayGateway):
    """A replay gateway that waits ``CALL_LATENCY_S`` before each reply."""

    def _send(self, role, prompt, params):
        time.sleep(CALL_LATENCY_S)
        return super()._send(role, prompt, params)


@pytest.mark.parametrize("parallel", [1, 8, 32])
def test_demo_batch_throughput(benchmark, monkeypatch, tmp_path, parallel) -> None:
    fixtures = load_replay_fixtures(DEMO / "fixtures")
    from_config = RunContext.from_config
    monkeypatch.setattr(vapu.cli.RunContext, "from_config", lambda config: replace(
        from_config(config),
        new_gateway=lambda: SlowReplayGateway(fixtures, model_id=config.model)))
    out = tmp_path / "runs"
    argv = [*demo_update_args(DEMO / "legacy", out, runs=BATCH_RUNS), "--parallel", str(parallel)]
    assert benchmark.pedantic(main, (argv,), rounds=3) == 0
    assert len(list(out.glob("*.jsonl"))) == BATCH_RUNS


ZSL_BATCH_RUNS = 20


def test_demo_zsl_batch(benchmark, tmp_path) -> None:
    out = tmp_path / "zsl"
    argv = demo_zsl_args(out)
    argv[argv.index("--runs") + 1] = str(ZSL_BATCH_RUNS)
    assert benchmark(main, argv) == 0
    assert len(list(out.glob("*.jsonl"))) == ZSL_BATCH_RUNS


def test_run_id_and_output_path(benchmark, tmp_path) -> None:
    config = RunConfig(model="gpt-4o", output_dir=tmp_path, method=Method.ZSL)
    path = "app/View/Items/index.ctp"

    def job() -> str:
        run_id = make_run_id(path, config.method, config.model, config.temperature, 3)
        return updated_file_path(config, run_id, path)

    assert benchmark(job) == str(tmp_path / "app__View__Items__index-zsl-gpt-4o-t0-r3" / path)


SMALL_VIEW = CODE[:28 * len(CODE) // LOC]  # a 28-line view, as small-batch replies hold


def test_load_codebase(benchmark, tmp_path) -> None:
    root = tmp_path / "project"
    for controller in ("Items", "Orders", "Users"):
        for view in ("index", "view", "add", "edit", "export"):
            write_file(root / controller / f"{view}.ctp", SMALL_VIEW)
    write_file(root / ".htaccess", "RewriteEngine on\n")
    for run in range(20):  # earlier runs' outputs, inside the project but not read
        run_id = f"Items__index-zsl-gpt-4o-t0-r{run + 1}"
        write_file(root / "out" / run_id / "Items" / "index.ctp", SMALL_VIEW)
        write_file(root / "out" / f"{run_id}.jsonl", "{}\n")
    documents = benchmark(load_codebase, root, exclude="out")
    assert len(documents) == 16 and documents[0].path == ".htaccess"


# Fixtures per role, 18 in all, as a large-files invocation reads; coded replies fence CODE.
FIXTURE_COUNTS = {"manager": 2, "prompt_maker": 4, "executor": 4, "verifier": 6, "finalizer": 2}


def test_load_replay_fixtures(benchmark, tmp_path) -> None:
    for role, count in FIXTURE_COUNTS.items():
        for index in range(count):
            text = REPLY if role in ("executor", "finalizer") else VERDICT
            write_file(tmp_path / f"{role}-{index}.txt", text)
    fixtures = benchmark(load_replay_fixtures, tmp_path)
    assert len(fixtures) == 18 and fixtures[("executor", 3)] == REPLY


def read_in_text_mode(path: Path, what: str) -> str:
    """How input files were read before ``read_input`` read bytes: one text-mode open."""
    with open(path, encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("size", ["28-lines", "900-lines"])
@pytest.mark.parametrize("reader", [read_in_text_mode, read_input], ids=["text-mode", "bytes"])
def test_read_input(benchmark, tmp_path, reader, size, line_end) -> None:
    text = SMALL_VIEW if size == "28-lines" else CODE
    path = write_file(tmp_path / "index.ctp", text.replace("\n", line_end))
    assert benchmark(reader, path, "input file") == text


def replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` to a new file beside ``path``, then move it over ``path``."""
    handle, temporary = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    with os.fdopen(handle, "wb") as stream:
        stream.write(data)
    os.replace(temporary, path)


@pytest.mark.parametrize("size", [10_000, 220_000], ids=["10KB", "220KB"])
@pytest.mark.parametrize("writer", [write_file, replace_file], ids=["in-place", "replace"])
def test_rewrite_a_file(benchmark, tmp_path, writer, size) -> None:
    data = (CODE.encode("utf-8") * (size // len(CODE) + 1))[:size]
    path = write_file(tmp_path / "items_index.php", b"")
    benchmark(writer, path, data)
    assert path.read_bytes() == data


@pytest.mark.parametrize("size", [10_000, 220_000], ids=["10KB", "220KB"])
def test_create_a_file(benchmark, tmp_path, size) -> None:
    data = (CODE.encode("utf-8") * (size // len(CODE) + 1))[:size]
    names = (tmp_path / f"items_index_{index}.php" for index in itertools.count())
    made: list[Path] = []

    def fresh_path():  # untimed: the last round's file goes, so the disk holds one
        if made:
            made.pop().unlink()
        made.append(next(names))
        return (made[0], data), {}

    benchmark.pedantic(write_file, setup=fresh_path, rounds=500)
    assert made[0].read_bytes() == data


def test_cold_import(benchmark) -> None:
    child = benchmark.pedantic(fresh_python, (
        "import sys, vapu.cli; print('requests' in sys.modules, 'vapu.evaluation' in sys.modules)",
    ), rounds=5)
    assert (child.returncode, child.stdout) == (0, "False False\n"), child.stderr
