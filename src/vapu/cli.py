"""Command-line surface: update, baseline, evaluate, report, replay.

Each module error family maps to its own nonzero exit code so scripted
callers can tell a config mistake from a backend failure or a replay
mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

from . import errors as err
from .evaluation import (
    aggregate_records,
    build_comparison_report,
    load_annotations,
    records_for_report,
    score_transcript,
)
from .models import CodeDocument, RequirementKind, RequirementSpec
from .pipeline import gateway_factory, reexecute_transcript, run_baseline, run_update
from .workspace import Backend, Method, RunConfig, load_codebase, load_transcript, make_run_id

logger = logging.getLogger(__name__)

REPLAY_MISMATCH_EXIT = 19

# Most specific class first; the first isinstance match wins.
_EXIT_CODES: list[tuple[type, int]] = [
    (err.ConfigInvalid, 2),
    (err.UnknownModel, 3),
    (err.TransientExhausted, 4),
    (err.ContextOverflow, 5),
    (err.BackendRefused, 6),
    (err.MalformedFixtureName, 7),
    (err.GapInIndices, 8),
    (err.AbortedRun, 9),
    (err.UnparseableTaskList, 10),
    (err.UnparseableVerdict, 11),
    (err.EmptyRequirements, 12),
    (err.NoFilesMatched, 13),
    (err.CorruptTranscript, 14),
    (err.StorageFull, 15),
    (err.CheckerUnavailable, 16),
    (err.EmptyScores, 17),
    (err.VapuError, 18),
]


def exit_code_for(exc: err.VapuError) -> int:
    for klass, code in _EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 18


def demo_root() -> Path:
    """Directory of the bundled offline demo assets."""
    return Path(str(resources.files("vapu").joinpath("demo")))


def _load_requirements(args) -> RequirementSpec:
    path = Path(args.requirements)
    kind = (RequirementKind.PROJECT_DESCRIPTION if args.kind == "description"
            else RequirementKind.REQUIREMENT_LIST)
    return RequirementSpec.from_text(
        id=path.stem,
        text=path.read_text(encoding="utf-8"),
        kind=kind,
    )


def _run_config(args, method: Method) -> RunConfig:
    return RunConfig(
        model=args.model,
        output_dir=Path(args.output_dir),
        temperature=args.temperature,
        max_feedback_iterations=args.max_iterations,
        repetitions=args.runs,
        backend=Backend(args.backend),
        fixtures_dir=Path(args.fixtures) if args.fixtures else None,
        method=method,
        example_path=Path(args.example) if getattr(args, "example", None) else None,
        registry_path=Path(args.registry) if args.registry else None,
        templates_dir=Path(args.templates) if args.templates else None,
        parallel=args.parallel,
    )


def _write_updated(output_dir: Path, run_id: str, document: CodeDocument) -> Path:
    target = Path(output_dir) / run_id / document.path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(document.content, encoding="utf-8")
    return target


def _run_jobs(args, req: RequirementSpec, config: RunConfig, run) -> list:
    """Run ``run`` per (file, repetition), once the run ids are known to be unique."""
    config.validate()
    documents = load_codebase(Path(args.project), args.include or ["**/*"])
    jobs = [(doc, rep) for doc in documents for rep in range(1, config.repetitions + 1)]
    owners: dict[str, str] = {}
    for doc, rep in jobs:
        run_id = make_run_id(doc.path, config.method, config.model, config.temperature, rep)
        if owners.setdefault(run_id, doc.path) != doc.path:
            raise err.ConfigInvalid(f"{owners[run_id]} and {doc.path} would both be run {run_id}")
    new_gateway = gateway_factory(config)

    def worker(job):
        doc, rep = job
        result = run(req, doc, config, repetition=rep, gateway=new_gateway())
        path = _write_updated(config.output_dir, result.transcript_ref, result.final_code)
        return result, path

    if config.parallel > 1:
        with ThreadPoolExecutor(max_workers=config.parallel) as pool:
            return list(pool.map(worker, jobs))
    return [worker(job) for job in jobs]


def cmd_update(args) -> int:
    req = _load_requirements(args)
    config = _run_config(args, Method.VAPU)
    for result, path in _run_jobs(args, req, config, run_update):
        state = "unverified" if result.unverified else "verified"
        print(f"{result.transcript_ref}: {len(result.per_task_outcomes)} task(s), "
              f"{state}, updated file at {path}")
    return 0


def cmd_baseline(args) -> int:
    req = _load_requirements(args)
    method = Method(args.method)
    if method is Method.VAPU:
        raise err.ConfigInvalid("baseline method must be zsl or osl")
    config = _run_config(args, method)
    for result, path in _run_jobs(args, req, config, run_baseline):
        print(f"{result.transcript_ref}: baseline update written to {path}")
    return 0


def cmd_evaluate(args) -> int:
    runs_dir = Path(args.runs_dir)
    paths = sorted(runs_dir.glob("*.jsonl"))
    if not paths:
        raise err.NoFilesMatched(f"no transcripts (*.jsonl) under {runs_dir}")
    annotations = load_annotations(Path(args.annotations))
    records = [score_transcript(load_transcript(path), annotations) for path in paths]
    aggregates = aggregate_records(records)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(
        json.dumps({"records": records, "aggregates": aggregates}, indent=2, sort_keys=True),
        encoding="utf-8",
    )
    print(f"scored {len(records)} run(s) into {output} "
          f"({len(aggregates)} aggregate group(s))")
    return 0


def _load_scored(path: Path) -> list[dict]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict):
        return data.get("records", [])
    return data


def cmd_report(args) -> int:
    vapu_path, baseline_path = args.compare
    vapu_marks, vapu_features = records_for_report(_load_scored(Path(vapu_path)))
    baseline_marks, baseline_features = records_for_report(_load_scored(Path(baseline_path)))
    features = {**baseline_features, **vapu_features}
    if not vapu_marks or not baseline_marks:
        raise err.ConfigInvalid("both scored files need records with check marks")
    try:
        report = build_comparison_report(vapu_marks, baseline_marks, features)
    except ValueError as exc:
        raise err.ConfigInvalid(str(exc)) from exc
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    (output_dir / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8",
    )
    with (output_dir / "report.tsv").open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, delimiter="\t").writerows(report.to_rows())
    text = report.to_text()
    (output_dir / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    print(f"report written to {output_dir}")
    return 0


def cmd_replay(args) -> int:
    transcript = load_transcript(Path(args.transcript))
    with tempfile.TemporaryDirectory(prefix="vapu-replay-") as scratch:
        recorded, replayed = reexecute_transcript(transcript, Path(scratch))
    if recorded != replayed:
        print(f"{transcript.run_id}: MISMATCH - replayed final code differs "
              f"from the recorded output", file=sys.stderr)
        return REPLAY_MISMATCH_EXIT
    print(f"{transcript.run_id}: replay reproduced the final code byte-identically")
    return 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--requirements", required=True,
                        help="file with the update request")
    parser.add_argument("--kind", choices=["requirements", "description"],
                        default="requirements",
                        help="treat the request as a requirement list or a project description")
    parser.add_argument("--project", required=True, help="codebase root directory")
    parser.add_argument("--include", action="append",
                        help="glob under the project root (repeatable; default all files)")
    parser.add_argument("--model", required=True, help="model profile id")
    parser.add_argument("--temperature", type=float, default=0.0)
    parser.add_argument("--backend", choices=[b.value for b in Backend], default="live")
    parser.add_argument("--fixtures", help="replay fixture directory")
    parser.add_argument("--runs", type=int, default=10,
                        help="repetitions per file (use 1 for single-attempt runs)")
    parser.add_argument("--max-iterations", type=int, default=2,
                        help="verifier/finalizer loop budget per task")
    parser.add_argument("--output-dir", required=True)
    parser.add_argument("--parallel", type=int, default=1,
                        help="concurrent repetitions")
    parser.add_argument("--registry", help="model registry file (default: bundled)")
    parser.add_argument("--templates", help="prompt template directory (default: bundled)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vapu",
        description="Multi-agent legacy code updater with a replayable evaluation harness",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    update = commands.add_parser("update", help="run the agent pipeline over a codebase")
    _add_run_arguments(update)
    update.set_defaults(func=cmd_update)

    baseline = commands.add_parser("baseline", help="run a one-prompt baseline over a codebase")
    _add_run_arguments(baseline)
    baseline.add_argument("--method", choices=["zsl", "osl"], default="zsl")
    baseline.add_argument("--example", help="JSON example asset for one-shot prompts")
    baseline.set_defaults(func=cmd_baseline)

    evaluate = commands.add_parser("evaluate", help="merge transcripts with annotations")
    evaluate.add_argument("--runs-dir", required=True, help="directory of run transcripts")
    evaluate.add_argument("--annotations", required=True, help="annotations JSON file")
    evaluate.add_argument("--output", required=True, help="scored records JSON to write")
    evaluate.set_defaults(func=cmd_evaluate)

    report = commands.add_parser("report", help="compare two scored run sets")
    report.add_argument("--compare", nargs=2, metavar=("PIPELINE", "BASELINE"), required=True,
                        help="scored records for the pipeline and the baseline")
    report.add_argument("--output-dir", required=True)
    report.set_defaults(func=cmd_report)

    replay = commands.add_parser("replay", help="re-execute a persisted transcript")
    replay.add_argument("--transcript", required=True)
    replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except err.VapuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
