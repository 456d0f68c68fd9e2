"""The three workloads: set-up, one timed invocation, and its output checks.

An invocation is what one user command line (or two, or three) does:
``vapu update`` + ``vapu baseline`` over an app area for ``small-batch``,
``vapu update`` over a group of large files for ``large-files``, and
``vapu evaluate`` twice + ``vapu report`` for ``evaluate-report``.  The
checks run after the invocation, outside its timed region, and read
only what the program left on disk.
"""

from __future__ import annotations

import io
import json
import resource
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import generate as gen


class Cli:
    """Runs ``vapu.cli.main`` as a shell user would, capturing its output."""

    def __init__(self, main) -> None:
        self.main = main
        self.stdout = io.StringIO()
        self.stderr = io.StringIO()

    def __call__(self, *argv) -> int:
        with redirect_stdout(self.stdout), redirect_stderr(self.stderr):
            return self.main([str(a) for a in argv])

    def reset(self) -> None:
        for stream in (self.stdout, self.stderr):
            stream.seek(0)
            stream.truncate()


@dataclass
class Outcome:
    """Per-file runs checked, and what the kept transcripts cost."""

    runs: int = 0
    kept: int = 0  # runs whose outputs all passed their checks
    lost: int = 0  # runs whose transcript another run with the same file stem overwrote
    failed: int = 0  # runs with any other failed check
    problems: list[str] = field(default_factory=list)
    calls: int = 0
    prompt_chars: int = 0
    input_chars: int = 0
    transcript_bytes: int = 0
    transcripts: int = 0

    def add(self, other: "Outcome") -> None:
        for name in ("runs", "kept", "lost", "failed", "calls", "prompt_chars",
                     "input_chars", "transcript_bytes", "transcripts"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])

    def count(self, transcript, path: Path) -> None:
        self.transcripts += 1
        self.calls += len(transcript.exchanges)
        self.prompt_chars += sum(len(e.prompt) for e in transcript.exchanges)
        self.input_chars += len(transcript.inputs["code"]["content"])
        self.transcript_bytes += path.stat().st_size


def _run_args(unit: gen.Unit, method: str, out: Path, repetitions: int = 1,
              fixtures: Path | None = None, include: str | None = None) -> list:
    args = ["--requirements", unit.requirements, "--project", unit.project,
            "--model", gen.MODEL, "--backend", "replay",
            "--fixtures", fixtures or unit.fixtures[method],
            "--runs", repetitions, "--parallel", 1, "--output-dir", out / method]
    if include:
        args += ["--include", include]
    if method == "vapu":
        return ["update", *args, "--max-iterations", gen.MAX_ITERATIONS]
    return ["baseline", "--method", method, *args]


def _stem(path: str) -> str:
    return Path(path).stem


def mtimes(directory: Path) -> dict[Path, int]:
    """Every file's mtime, taken before an invocation that may rewrite it.

    Invocations of one unit are more than a clock tick apart, so a file
    the next one rewrites gets a new mtime and one it skips keeps its own.
    """
    return {file: file.stat().st_mtime_ns for file in directory.rglob("*") if file.is_file()}


def _fresh(path: Path, before: dict[Path, int]) -> bool:
    return path.stat().st_mtime_ns != before.get(path)


def check_runs(unit: gen.Unit, out: Path, cli: Cli, replay: bool, before: dict[Path, int],
               methods=("vapu", "zsl")) -> tuple[Outcome, dict]:
    """Check the transcripts and updated files that update/baseline runs left.

    Transcripts are matched to runs by their header's code path,
    repetition and method, never by file name.  A run without a
    transcript counts as lost when another run of the same method and
    file stem kept one (the stem-only run id); otherwise it failed.
    Outputs that match no run are problems that fail no particular run.
    Returns the outcome and the run id of every kept transcript, keyed
    by (path, method, repetition).
    """
    from vapu.errors import CorruptTranscript
    from vapu.workspace import load_transcript

    outcome = Outcome(runs=sum(1 for r in unit.runs if r.method in methods))
    expected = {(r.path, r.method, r.repetition): r for r in unit.runs}
    found: dict[tuple[str, str, int], str] = {}
    bad: set[tuple[str, str, int]] = set()

    def fail(key, message: str) -> None:
        bad.add(key)
        outcome.problems.append(f"{unit.name}: {message}")

    for method in methods:
        directory = out / method
        replayed = not replay
        for path in sorted(directory.glob("*.jsonl")):
            if not _fresh(path, before):
                continue
            try:
                transcript = load_transcript(path)
            except CorruptTranscript as exc:
                outcome.problems.append(f"{unit.name}: {exc}")
                continue
            key = (transcript.inputs["code"]["path"], transcript.config["method"],
                   transcript.inputs.get("repetition", 1))
            run = expected.get(key)
            if run is None or key in found:
                outcome.problems.append(f"{unit.name}: unexpected transcript {path.name}")
                continue
            found[key] = transcript.run_id
            result = transcript.outcome
            if transcript.status != "completed":
                fail(key, f"{path.name} status {transcript.status}")
            elif result["final_code"]["content"] != run.final_code:
                fail(key, f"{path.name} final code differs from the fixture code")
            elif len(transcript.exchanges) != run.calls:
                fail(key, f"{path.name} has {len(transcript.exchanges)} exchanges, "
                          f"expected {run.calls}")
            elif method == "vapu" and (
                    result["unverified"] != run.unverified
                    or result["truncated"] != run.truncated
                    or [o["accepted"] for o in result["per_task_outcomes"]] != list(run.accepted)
                    or [o["finalizer_iterations"] for o in result["per_task_outcomes"]]
                    != list(run.finalizer_iterations)):
                fail(key, f"{path.name} task outcomes or flags differ from the script")
            outcome.count(transcript, path)
            if not replayed:
                replayed = True
                if cli("replay", "--transcript", path) != 0:
                    fail(key, f"{path.name} did not replay byte-identically")

        # Updated files live at <output>/<run id>/<path in project>.
        written: dict[str, int] = {}
        for file in directory.rglob("*"):
            if file.is_dir() or file.suffix == ".jsonl" or not _fresh(file, before):
                continue
            rel = file.relative_to(directory).parts[1:]
            doc = "/".join(rel)
            written[doc] = written.get(doc, 0) + 1
            run = expected.get((doc, method, 1))
            if run is None:
                outcome.problems.append(f"{unit.name}: unexpected updated file {file}")
            elif file.read_text(encoding="utf-8") != run.final_code:
                fail((doc, method, 1), f"updated file {file} differs from the fixture code")
        for key, run in expected.items():
            if run.method == method and run.repetition == 1 and \
                    written.get(run.path, 0) != sum(1 for k in expected if k[:2] == key[:2]):
                fail(key, f"{run.path}: {written.get(run.path, 0)} updated file(s) written")

    kept_stems = {(_stem(k[0]), k[1]) for k in found}
    for key in expected:
        if key[1] not in methods:
            continue
        if key in bad:
            outcome.failed += 1
        elif key in found:
            outcome.kept += 1
        elif (_stem(key[0]), key[1]) in kept_stems:
            outcome.lost += 1
        else:
            outcome.failed += 1
            outcome.problems.append(f"{unit.name}: no transcript for {key}")
    return outcome, found


class Workload:
    name = ""

    def setup(self, root: Path, seed: int, cli: Cli) -> list[gen.Unit]:
        raise NotImplementedError

    def invoke(self, unit: gen.Unit, out: Path, cli: Cli) -> list[int]:
        raise NotImplementedError

    def check(self, unit: gen.Unit, out: Path, cli: Cli, codes: list[int],
              replay: bool, before: dict[Path, int]) -> Outcome:
        raise NotImplementedError

    def corpus(self) -> Outcome | None:
        """Cost figures fixed at set-up (evaluate-report), else None."""
        return None


class UpdateWorkload(Workload):
    methods: tuple[str, ...] = ("vapu",)

    def invoke(self, unit, out, cli):
        return [cli(*_run_args(unit, method, out)) for method in self.methods]

    def check(self, unit, out, cli, codes, replay, before):
        if any(codes):
            outcome = Outcome(runs=len(unit.runs), failed=len(unit.runs))
            outcome.problems.append(f"{unit.name}: exit codes {codes}: "
                                    f"{cli.stderr.getvalue()[-300:]}")
            return outcome
        return check_runs(unit, out, cli, replay, before, self.methods)[0]


class SmallBatch(UpdateWorkload):
    name = "small-batch"
    methods = ("vapu", "zsl")

    def setup(self, root, seed, cli):
        return gen.small_batch(root, seed)


class LargeFiles(UpdateWorkload):
    name = "large-files"

    def setup(self, root, seed, cli):
        return gen.large_files(root, seed)


class EvaluateReport(Workload):
    """Scores transcripts that set-up made by running the program."""

    name = "evaluate-report"

    def __init__(self) -> None:
        self._corpus: Outcome | None = None

    def setup(self, root, seed, cli):
        units = gen.evaluate_report(root, seed)
        corpus = Outcome()
        for unit in units:
            runs_dir = unit.extra["root"] / "runs"
            for f in unit.extra["files"]:
                for method in ("vapu", "zsl"):
                    code = cli(*_run_args(unit, method, runs_dir, gen.EVAL_REPETITIONS,
                                          f["fixtures"][method], f["path"]))
                    if code != 0:
                        raise RuntimeError(f"set-up run failed ({code}): "
                                           f"{cli.stderr.getvalue()[-300:]}")
            cli.reset()
            outcome, run_ids = check_runs(unit, runs_dir, cli, replay=False, before={})
            if outcome.kept != outcome.runs:
                raise RuntimeError(f"set-up transcripts are wrong: {outcome.problems}")
            corpus.add(outcome)
            annotations = gen.annotations_for(unit, run_ids, seed)
            unit.extra["annotations"] = unit.extra["root"] / "annotations.json"
            unit.extra["annotations"].write_text(json.dumps(annotations), encoding="utf-8")
            unit.extra["run_ids"] = {v: k for k, v in run_ids.items()}
        self._corpus = corpus
        return units

    def corpus(self):
        return self._corpus

    def invoke(self, unit, out, cli):
        runs_dir = unit.extra["root"] / "runs"
        ann = unit.extra["annotations"]
        return [
            cli("evaluate", "--runs-dir", runs_dir / "vapu", "--annotations", ann,
                "--output", out / "scored-vapu.json"),
            cli("evaluate", "--runs-dir", runs_dir / "zsl", "--annotations", ann,
                "--output", out / "scored-zsl.json"),
            cli("report", "--compare", out / "scored-vapu.json", out / "scored-zsl.json",
                "--output-dir", out / "report"),
        ]

    def check(self, unit, out, cli, codes, replay, before):
        """Scored records and report totals against what the generator planted."""
        outcome = Outcome(runs=len(unit.runs))
        problems = outcome.problems
        if any(codes):
            problems.append(f"{unit.name}: exit codes {codes}: {cli.stderr.getvalue()[-300:]}")
        elif not all(_fresh(out / name, before) for name in
                     ("scored-vapu.json", "scored-zsl.json", "report/report.json")):
            problems.append(f"{unit.name}: scored records or report not written")
        else:
            expected = {(r.path, r.method, r.repetition): r for r in unit.runs}
            run_ids = unit.extra["run_ids"]
            report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
            for method, side in (("vapu", "vapu"), ("zsl", "baseline")):
                scored = json.loads((out / f"scored-{method}.json").read_text(encoding="utf-8"))
                records = scored["records"]
                runs = [r for r in unit.runs if r.method == method]
                if len(records) != len(runs):
                    problems.append(f"{unit.name}: {len(records)} {method} records, "
                                    f"expected {len(runs)}")
                if len(scored["aggregates"]) != len(unit.extra["files"]):
                    problems.append(f"{unit.name}: {len(scored['aggregates'])} aggregates")
                for record in records:
                    run = expected.get(run_ids.get(record["run_id"]))
                    if run is None or (
                            record["status"] != "completed"
                            or record["errors_by_category"]["fatal"] != run.fatal
                            or record["error_count"] != run.fatal + run.annotated
                            or record["requirement_total"] != len(gen.REQUIREMENT_IDS)
                            or record["checkmarks"]["score"] != sum(run.marks)
                            or record["features"] is None):
                        problems.append(f"{unit.name}: scored record {record['run_id']} "
                                        f"differs from the planted annotations")
                marks = sum(sum(r.marks) for r in runs)
                if (report[side]["total"], report[side]["records"]) != (marks, len(runs)):
                    problems.append(f"{unit.name}: report {side} totals "
                                    f"{report[side]['total']}/{report[side]['records']}, "
                                    f"expected {marks}/{len(runs)}")
        if problems:
            outcome.failed = outcome.runs
        else:
            outcome.kept = outcome.runs
        return outcome


WORKLOADS = {w.name: w for w in (SmallBatch, LargeFiles, EvaluateReport)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

