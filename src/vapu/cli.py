"""Command-line surface: update, baseline, evaluate, report, replay.

A command ends with the ``exit_code`` of the error that stops it (see
``vapu.errors``), so scripted callers can tell a config mistake (2) from a
run that failed once it had started (9) or a replay mismatch (19).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import logging
import sys
import tempfile
from importlib import resources
from pathlib import Path

from . import errors as err
from .models import RequirementKind, RequirementSpec, from_json, read_input
from .pipeline import (
    RunContext,
    reexecute_transcript,
    run_baseline,
    run_update,
    updated_file_path,
)
from .workspace import (
    Backend,
    Method,
    RunConfig,
    RunHeader,
    RunTranscript,
    load_codebase,
    load_transcript,
    make_run_id,
    read_header,
    write_file,
)

logger = logging.getLogger(__name__)


def demo_root() -> Path:
    """Directory of the bundled offline demo assets."""
    return Path(str(resources.files("vapu").joinpath("demo")))


def cmd_run(args) -> int:
    """``update`` and ``baseline``: a run per (file, repetition), once the run ids are unique."""
    path = Path(args.requirements)
    kind = (RequirementKind.PROJECT_DESCRIPTION if args.kind == "description"
            else RequirementKind.REQUIREMENT_LIST)
    text = read_input(path, "requirements file")  # parsed apart: a blank one exits 12, not 2
    req = RequirementSpec.from_text(id=path.stem, text=text, kind=kind)
    config = from_json(RunConfig, vars(args))
    if config.method is Method.ZSL and config.example_path:
        # RunConfig.validate accepts this, so older transcripts with the pair still replay.
        raise err.ConfigInvalid("a zero-shot baseline takes no --example; use --method osl")
    context = RunContext.from_config(config)  # every run of the batch shares what it read
    run = run_update if config.method is Method.VAPU else run_baseline
    documents = load_codebase(Path(args.project), args.include or ["**/*"])
    jobs = [(doc, rep, make_run_id(doc.path, config.method, config.model, config.temperature, rep))
            for doc in documents for rep in range(1, config.repetitions + 1)]
    owners: dict[str, str] = {}
    for doc, _, run_id in jobs:
        if owners.setdefault(run_id, doc.path) != doc.path:
            raise err.ConfigInvalid(f"{owners[run_id]} and {doc.path} would both be run {run_id}")

    def worker(job):
        doc, rep, _ = job
        return run(req, doc, config, repetition=rep, context=context)

    if config.parallel > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.parallel) as pool:
            finished = list(pool.map(worker, jobs))
    else:
        finished = [worker(job) for job in jobs]
    for (_, _, run_id), result in zip(jobs, finished):
        target = updated_file_path(config, run_id, result.final_code.path)
        if config.method is Method.VAPU:
            state = "unverified" if result.unverified else "verified"
            print(f"{run_id}: {len(result.per_task_outcomes)} task(s), "
                  f"{state}, updated file at {target}")
        else:
            print(f"{run_id}: baseline update written to {target}")
    return 0


def _load_run(path: Path) -> tuple[RunTranscript, RunHeader]:
    """A transcript and the typed run its header records (see ``read_header``)."""
    transcript = load_transcript(path)
    return transcript, read_header(transcript, path)


def cmd_evaluate(args) -> int:
    from . import evaluation

    runs_dir = Path(args.runs_dir)
    paths = sorted(runs_dir.glob("*.jsonl"))
    if not paths:
        raise err.NoFilesMatched(f"no transcripts (*.jsonl) under {runs_dir}")
    annotations = evaluation.load_annotations(Path(args.annotations))
    checkers = evaluation.default_checkers()  # one memo: an identical final file is checked once
    records = [evaluation.score_transcript(*_load_run(path), annotations, checkers)
               for path in paths]
    aggregates = evaluation.aggregate_records(records)
    output = write_file(Path(args.output), json.dumps(
        {"records": records, "aggregates": aggregates}, indent=2, sort_keys=True))
    print(f"scored {len(records)} run(s) into {output} "
          f"({len(aggregates)} aggregate group(s))")
    return 0


def _load_scored(path: Path) -> tuple[list, dict]:
    """Check marks and features from the ``{"records": [...]}`` object ``evaluate`` writes."""
    from . import evaluation

    return read_input(path, "scored file",
                      lambda text: evaluation.records_for_report(json.loads(text)["records"]))


def cmd_report(args) -> int:
    import csv

    from . import evaluation

    vapu_path, baseline_path = args.compare
    vapu_marks, vapu_features = _load_scored(vapu_path)
    baseline_marks, baseline_features = _load_scored(baseline_path)
    features = {**baseline_features, **vapu_features}
    if not vapu_marks or not baseline_marks:
        raise err.ConfigInvalid("both scored files need records with check marks")
    try:
        report = evaluation.build_comparison_report(vapu_marks, baseline_marks, features)
    except ValueError as exc:
        raise err.ConfigInvalid(str(exc)) from exc
    output_dir = Path(args.output_dir)
    write_file(output_dir / "report.json",
               json.dumps(report.to_dict(), indent=2, sort_keys=True))
    rows = io.StringIO()
    csv.writer(rows, delimiter="\t").writerows(report.to_rows())
    write_file(output_dir / "report.tsv", rows.getvalue())
    text = report.to_text()
    write_file(output_dir / "report.txt", text)
    print(text, end="")
    print(f"report written to {output_dir}")
    return 0


def cmd_replay(args) -> int:
    transcript, header = _load_run(Path(args.transcript))
    with tempfile.TemporaryDirectory(prefix="vapu-replay-") as scratch:
        recorded, replayed = reexecute_transcript(transcript, header, Path(scratch))
    if recorded != replayed:
        raise err.ReplayMismatch(f"{transcript.run_id}: MISMATCH - replayed final code "
                                 f"differs from the recorded output")
    print(f"{transcript.run_id}: replay reproduced the final code byte-identically")
    return 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags whose dest equals a RunConfig field go into the run's config."""
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
    parser.add_argument("--fixtures", dest="fixtures_dir", metavar="FIXTURES",
                        help="replay fixture directory")
    parser.add_argument("--runs", dest="repetitions", metavar="RUNS", type=int, default=10,
                        help="repetitions per file (use 1 for single-attempt runs)")
    parser.add_argument("--max-iterations", dest="max_feedback_iterations",
                        metavar="MAX_ITERATIONS", type=int, default=2,
                        help="verifier/finalizer loop budget per task")
    parser.add_argument("--output-dir", required=True)
    parser.add_argument("--parallel", type=int, default=1,
                        help="concurrent repetitions")
    parser.add_argument("--registry", dest="registry_path", metavar="REGISTRY",
                        help="model registry file (default: bundled)")
    parser.add_argument("--templates", dest="templates_dir", metavar="TEMPLATES",
                        help="prompt template directory (default: bundled)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``vapu`` parser, built on the first call and shared by every later one.

    Each ``parse_args`` call returns a fresh Namespace, so one parse leaves
    no trace in the next. ``set_defaults(func=cmd_*)`` binds the command
    functions once per process: patching a ``cmd_*`` after the first
    :func:`main` call does not reach it. Patch the functions the commands
    look up when they call them instead, as the tests do: ``update``,
    ``baseline`` and ``replay`` look theirs up on this module
    (``run_update``, ``load_transcript``, ...); ``evaluate`` and ``report``
    look theirs up on ``vapu.evaluation`` (``score_transcript``,
    ``build_comparison_report``, ...), which only those two commands
    import, so the other commands start without the scoring stack.
    perfbench wraps ``main`` and those functions. To substitute a backend,
    patch ``RunContext.from_config`` to return a context with another
    ``new_gateway``.
    """
    parser = argparse.ArgumentParser(
        prog="vapu",
        description="Multi-agent legacy code updater with a replayable evaluation harness",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    update = commands.add_parser("update", help="run the agent pipeline over a codebase")
    _add_run_arguments(update)
    update.set_defaults(func=cmd_run, method=Method.VAPU)

    baseline = commands.add_parser("baseline", help="run a one-prompt baseline over a codebase")
    _add_run_arguments(baseline)
    baseline.add_argument("--method", choices=["zsl", "osl"], default="zsl")
    baseline.add_argument("--example", dest="example_path", metavar="EXAMPLE",
                          help="JSON example asset for one-shot prompts")
    baseline.set_defaults(func=cmd_run)

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
    # basicConfig acts only while the root logger has no handler, so -v sets
    # the package logger's level for this call and puts the caller's back after.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    package_logger = logging.getLogger("vapu")
    level = package_logger.level
    if args.verbose:
        package_logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except err.VapuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        package_logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
