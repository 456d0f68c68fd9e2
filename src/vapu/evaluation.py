"""Measurement apparatus for comparing update methods.

A run is scored from plain data: its errors counted once per cause
(annotated findings plus the automated fatal check), its requirements
as the count of 0/1 results, and its three check marks as the count of
true flags.  Also here: difficulty scoring from LOC/complexity/task
count, duration normalization, mean/SD statistics, temperature
selection, and the side-by-side comparison report.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import EmptyScores, InvalidCCLetter
from .models import CodeDocument, from_json, read_input, to_json
from .workspace import RunHeader, RunTranscript


class ErrorCategory(str, Enum):
    FATAL = "fatal"
    RUNTIME = "runtime"
    CONTENT = "content"
    MISSING_ADDITIONAL = "missing_additional"


_DIGITS_RE = re.compile(r"\d+")
_WS_RE = re.compile(r"\s+")


def normalize_cause_key(message: str) -> str:
    """Collapse a diagnostic message to the mistake behind it.

    Line/column numbers and casing are stripped so the same mistake
    reported at ten locations maps to one cause key.
    """
    text = _DIGITS_RE.sub("", message.lower())
    return _WS_RE.sub(" ", text).strip()


@dataclass(frozen=True)
class Finding:
    """One error observed in an updated file."""

    category: ErrorCategory
    cause_key: str

    def __post_init__(self) -> None:
        if not self.cause_key.strip():
            raise ValueError("finding cause_key must be non-empty")


# A checker takes file content and returns diagnostic messages (empty = clean).
SyntaxCheckerHook = Callable[[str], list[str]]


def python_syntax_checker(content: str) -> list[str]:
    """Messages for a file that ``python3`` could not compile.

    ``dont_inherit`` keeps this module's ``from __future__ import
    annotations`` away from the candidate, which ``python3`` compiles
    without it.
    """
    try:
        compile(content, "<update-candidate>", "exec", dont_inherit=True)
    except SyntaxError as exc:
        return [exc.msg or "syntax error"]
    # ValueError: a lone surrogate, which no UTF-8 file holds; 3.10: a null byte.
    # RecursionError: nesting too deep for the compiler, as in a long chain of "+".
    except (ValueError, RecursionError) as exc:
        return [f"unreadable source: {getattr(exc, 'reason', exc)}"]
    return []


def _once_per_content(hook: SyntaxCheckerHook) -> SyntaxCheckerHook:
    """``hook``, run once per distinct content; later calls get a copy of its messages.

    Repeated runs often end in the same file.  The memo is keyed by a
    SHA-256 digest of the exact content, so it stays small however
    large the files are, and it lives as long as the returned hook.
    """
    messages: dict[bytes, list[str]] = {}

    def check(content: str) -> list[str]:
        key = hashlib.sha256(content.encode("utf-8", "surrogatepass")).digest()
        if key not in messages:
            messages[key] = hook(content)
        return list(messages[key])

    return check


def default_checkers() -> dict[str, SyntaxCheckerHook]:
    """The bundled checkers by language tag, sharing one memo (see ``_once_per_content``).

    Call it once per command and pass the result to every
    ``score_transcript`` call of that command.
    """
    python = _once_per_content(python_syntax_checker)
    return {"py": python, "python": python}


def check_fatal(code: CodeDocument,
                checkers: Mapping[str, SyntaxCheckerHook]) -> list[Finding]:
    """Fatal findings from the registered syntax checker for the document's language.

    Only fatal errors are automatable; the other categories come from
    annotations.  A language no hook covers has no automated findings.
    """
    hook = checkers.get(code.language_tag.lower())
    if hook is None:
        return []
    return [Finding(ErrorCategory.FATAL, normalize_cause_key(message))
            for message in hook(code.content)]


@dataclass(frozen=True)
class RequirementResult:
    """Binary outcome for one requirement: 1 working, 0 not."""

    requirement_id: str
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError(f"requirement value must be 0 or 1, got {self.value}")


@dataclass(frozen=True)
class CheckMarks:
    """The three per-file quality flags used in single-attempt validation."""

    updates_present_and_plausible: bool
    basic_functions_ok: bool
    all_requirements_correct: bool

    def flags(self) -> tuple[bool, bool, bool]:
        return (
            self.updates_present_and_plausible,
            self.basic_functions_ok,
            self.all_requirements_correct,
        )


CC_POINTS = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 5, "F": 6}

# Selection band for update candidates, inclusive on both ends.
SELECTION_RANGE = (3, 10)


@dataclass(frozen=True)
class DifficultyScore:
    loc_points: int
    cc_points: int
    task_points: int

    @property
    def total(self) -> int:
        return self.loc_points + self.cc_points + self.task_points


def _cc_grade(cc_letter: str) -> str:
    """The complexity grade A..F a letter names, case and surrounding blanks aside."""
    letter = cc_letter.strip().upper()
    if letter not in CC_POINTS:
        raise InvalidCCLetter(f"complexity grade must be A..F, got {cc_letter!r}")
    return letter


def score_difficulty(loc: int, cc_letter: str, task_count: int) -> DifficultyScore:
    """One point per rounded 100 LOC (never below 1), the complexity
    grade A..F as 1..6, and one point per task."""
    if loc <= 0:
        raise ValueError("loc must be positive")
    if task_count < 1:
        raise ValueError("task_count must be at least 1")
    letter = _cc_grade(cc_letter)
    loc_points = max(1, (loc + 50) // 100)  # round half up
    return DifficultyScore(
        loc_points=loc_points,
        cc_points=CC_POINTS[letter],
        task_points=task_count,
    )


def in_selection_range(score: DifficultyScore) -> bool:
    low, high = SELECTION_RANGE
    return low <= score.total <= high


@dataclass(frozen=True)
class RunStats:
    """Mean and population standard deviation over repeated runs."""

    n: int
    mean: float
    sd: float


def aggregate_runs(values: Sequence[float]) -> RunStats:
    if not values:
        raise ValueError("cannot aggregate an empty value list")
    mean = statistics.fmean(values)
    sd = statistics.pstdev(values) if len(values) > 1 else 0.0
    return RunStats(n=len(values), mean=mean, sd=sd)


def normalize_durations(durations: Sequence[float]) -> list[float]:
    """Z-score each duration; a constant series normalizes to all zeros."""
    if not durations:
        raise ValueError("cannot normalize an empty duration list")
    mean = statistics.fmean(durations)
    sd = statistics.pstdev(durations)
    if sd == 0:
        return [0.0 for _ in durations]
    return [(value - mean) / sd for value in durations]


@dataclass(frozen=True)
class TemperatureScore:
    """Combined quality score for one temperature setting.

    Averaged fulfilled requirements reward correctness; half the
    averaged error count is subtracted as a penalty.
    """

    temperature: float
    avg_requirements: float
    avg_errors: float

    @property
    def score(self) -> float:
        return self.avg_requirements - self.avg_errors / 2.0


def select_temperature(scores: Sequence[TemperatureScore]) -> float:
    """Pick the temperature with the best combined score; ties go to
    the lower temperature."""
    if not scores:
        raise EmptyScores("no temperature scores to select from")
    seen = set()
    for entry in scores:
        if entry.temperature in seen:
            raise ValueError(f"duplicate score for temperature {entry.temperature}")
        seen.add(entry.temperature)
    return max(scores, key=lambda s: (s.score, -s.temperature)).temperature


# --- comparison report -------------------------------------------------

@dataclass(frozen=True)
class FileFeatures:
    """Per-file difficulty features recorded alongside the dataset."""

    loc: int
    cc_letter: str
    task_count: int

    def __post_init__(self) -> None:
        # A file score_difficulty refuses would drop out of the LOC or grade table.
        score_difficulty(self.loc, self.cc_letter, self.task_count)


@dataclass(frozen=True)
class CheckMarkRecord:
    """Check marks earned by one (file, model) pair under one method."""

    file_id: str
    model: str
    marks: CheckMarks


LOC_BANDS = (
    ("<100", 0, 100),
    ("100-199", 100, 200),
    ("200-299", 200, 300),
    (">=300", 300, None),
)

CC_GROUPS = (
    ("A-B", ("A", "B")),
    ("C-D", ("C", "D")),
    ("E-F", ("E", "F")),
)


@dataclass(frozen=True)
class BucketDelta:
    label: str
    vapu: int
    baseline: int

    @property
    def delta(self) -> int:
        return self.vapu - self.baseline


@dataclass(frozen=True)
class MarkTotals:
    """Each check mark's count over ``records`` scored records (three marks possible each)."""

    first: int
    second: int
    third: int
    records: int
    model: str = ""  # set on a per-model total

    @property
    def total(self) -> int:
        return self.first + self.second + self.third

    @property
    def possible(self) -> int:
        return 3 * self.records

    @property
    def pass_rate(self) -> float:
        return 100.0 * self.total / self.possible if self.possible else 0.0


@dataclass
class ComparisonReport:
    """Check-mark comparison between the pipeline and a baseline method."""

    vapu_totals: MarkTotals
    baseline_totals: MarkTotals
    vapu_models: tuple[MarkTotals, ...]
    baseline_models: tuple[MarkTotals, ...]
    loc_bands: tuple[BucketDelta, ...]
    cc_groups: tuple[BucketDelta, ...]
    task_counts: tuple[BucketDelta, ...]

    @property
    def overall_delta(self) -> int:
        return self.vapu_totals.total - self.baseline_totals.total

    def _sections(self) -> tuple[tuple[str, str, str, tuple[BucketDelta, ...]], ...]:
        """(dict key, row section, text title, buckets) per bucketed table, in report order."""
        return (
            ("loc_bands", "loc_band", "By LOC band:", self.loc_bands),
            ("cc_groups", "cc_group", "By complexity grade:", self.cc_groups),
            ("task_counts", "task_count", "By task count:", self.task_counts),
        )

    def _model_pairs(self) -> list[tuple[MarkTotals, MarkTotals | None]]:
        """Each pipeline model's totals beside the baseline's for that model, if it has any."""
        baseline_by_model = {m.model: m for m in self.baseline_models}
        return [(entry, baseline_by_model.get(entry.model)) for entry in self.vapu_models]

    def to_dict(self) -> dict:
        def figures(totals: MarkTotals, *names: str) -> dict:
            return {name: getattr(totals, name) for name in (*names, "total", "possible", "pass_rate")}

        report = {
            "vapu": figures(self.vapu_totals, "first", "second", "third", "records"),
            "baseline": figures(self.baseline_totals, "first", "second", "third", "records"),
            "overall_delta": self.overall_delta,
            "models": {"vapu": [figures(m, "model") for m in self.vapu_models],
                       "baseline": [figures(m, "model") for m in self.baseline_models]},
        }
        for key, _, _, buckets in self._sections():
            report[key] = [
                {"bucket": b.label, "vapu": b.vapu, "baseline": b.baseline, "delta": b.delta}
                for b in buckets
            ]
        return report

    def to_rows(self) -> list[tuple[str, ...]]:
        """Flat delimited-table form, one row per figure."""
        vapu, baseline = self.vapu_totals, self.baseline_totals
        rows: list[tuple[str, ...]] = [
            ("section", "key", "vapu", "baseline", "delta"),
            ("totals", "check_marks", str(vapu.total), str(baseline.total),
             str(self.overall_delta)),
            ("totals", "pass_rate_pct", f"{vapu.pass_rate:.1f}", f"{baseline.pass_rate:.1f}",
             f"{vapu.pass_rate - baseline.pass_rate:.1f}"),
        ]
        for name in ("first", "second", "third"):
            mine, theirs = getattr(vapu, name), getattr(baseline, name)
            rows.append(("totals", f"{name}_marks", str(mine), str(theirs), str(mine - theirs)))
        for entry, other in self._model_pairs():
            rows.append((
                "models", entry.model, str(entry.total),
                str(other.total) if other else "",
                str(entry.total - other.total) if other else "",
            ))
        for _, section, _, buckets in self._sections():
            for bucket in buckets:
                rows.append((section, bucket.label, str(bucket.vapu),
                             str(bucket.baseline), str(bucket.delta)))
        return rows

    def to_text(self) -> str:
        def method(name: str, t: MarkTotals) -> str:
            return (f"  {name} : {t.total}/{t.possible} marks ({t.pass_rate:.1f}%) "
                    f"[{t.first}/{t.second}/{t.third}]")

        lines = [
            "Check-mark comparison (pipeline vs baseline)",
            "",
            method("pipeline", self.vapu_totals),
            method("baseline", self.baseline_totals),
            f"  overall delta: {self.overall_delta:+d}",
            "",
            "Per model (pipeline vs baseline):",
        ]
        for entry, other in self._model_pairs():
            if other:
                lines.append(
                    f"  {entry.model}: {entry.total} vs {other.total} "
                    f"({entry.pass_rate:.1f}% vs {other.pass_rate:.1f}%)"
                )
        for _, _, title, buckets in self._sections():
            lines.append("")
            lines.append(title)
            for bucket in buckets:
                lines.append(
                    f"  {bucket.label}: {bucket.vapu} vs {bucket.baseline} ({bucket.delta:+d})"
                )
        return "\n".join(lines) + "\n"


def _mark_totals(records: Sequence[CheckMarkRecord], model: str = "") -> MarkTotals:
    flags = [record.marks.flags() for record in records]
    return MarkTotals(*(sum(f[mark] for f in flags) for mark in range(3)), len(records), model)


def _model_totals(records: Sequence[CheckMarkRecord]) -> tuple[MarkTotals, ...]:
    by_model: dict[str, list[CheckMarkRecord]] = {}
    for record in records:
        by_model.setdefault(record.model, []).append(record)
    return tuple(_mark_totals(group, model) for model, group in sorted(by_model.items()))


def build_comparison_report(
    vapu_runs: Sequence[CheckMarkRecord],
    baseline_runs: Sequence[CheckMarkRecord],
    features: Mapping[str, FileFeatures],
) -> ComparisonReport:
    """Aggregate two scored run sets into the side-by-side report.

    Both sets must cover the same files, and every file needs its
    difficulty features for the bucketed delta tables.
    """
    vapu_files = {record.file_id for record in vapu_runs}
    baseline_files = {record.file_id for record in baseline_runs}
    if vapu_files != baseline_files:
        raise ValueError(
            f"run sets score different files: only-pipeline={sorted(vapu_files - baseline_files)}, "
            f"only-baseline={sorted(baseline_files - vapu_files)}"
        )
    missing = sorted(vapu_files - set(features))
    if missing:
        raise ValueError(f"missing difficulty features for files: {missing}")

    def loc_band(file_id: str) -> str:
        loc = features[file_id].loc  # at least 1, so in a band
        return next(label for label, _, high in LOC_BANDS if high is None or loc < high)

    def cc_group(file_id: str) -> str:
        letter = features[file_id].cc_letter.strip().upper()  # as _cc_grade reads it
        return next(label for label, letters in CC_GROUPS if letter in letters)

    task_labels = sorted({str(f.task_count) for f in features.values()}, key=int)

    def task_bucket(file_id: str) -> str:
        return str(features[file_id].task_count)

    def deltas(bucket_of: Callable[[str], str], labels: list[str]) -> tuple[BucketDelta, ...]:
        sums = {label: [0, 0] for label in labels}  # [pipeline, baseline]
        for side, runs in enumerate((vapu_runs, baseline_runs)):
            for record in runs:
                sums[bucket_of(record.file_id)][side] += sum(record.marks.flags())
        return tuple(BucketDelta(label, *sums[label]) for label in labels)

    return ComparisonReport(
        vapu_totals=_mark_totals(vapu_runs),
        baseline_totals=_mark_totals(baseline_runs),
        vapu_models=_model_totals(vapu_runs),
        baseline_models=_model_totals(baseline_runs),
        loc_bands=deltas(loc_band, [label for label, _, _ in LOC_BANDS]),
        cc_groups=deltas(cc_group, [label for label, _ in CC_GROUPS]),
        task_counts=deltas(task_bucket, task_labels),
    )


# --- annotations file and transcript scoring ----------------------------
#
# Runtime, content and missing-feature errors come from human inspection
# of the updated files, as do requirement outcomes and check marks; the
# annotations file is how those observations enter the harness.

@dataclass
class Annotations:
    """Parsed annotations: human observations keyed for the merge step."""

    findings: dict[str, list[Finding]] = field(default_factory=dict)
    requirements: dict[str, list[RequirementResult]] = field(default_factory=dict)
    checkmarks: dict[tuple[str, str, str], CheckMarks] = field(default_factory=dict)
    features: dict[str, FileFeatures] = field(default_factory=dict)


def load_annotations(path: Path) -> Annotations:
    """Read the JSON annotations file.

    Sections (all optional): findings per run, requirement results per
    run (each requirement once), check marks once per (file, model, method),
    and features per file (each file once).  A finding's ``description`` is ignored.
    """
    def text(entry: dict, name: str) -> str:  # a key of another type would match no run
        if type(entry[name]) is not str:
            raise TypeError(f"{name} must be str, got {entry[name]!r}")
        return entry[name]

    def parse(content: str) -> Annotations:
        data = json.loads(content)
        annotations = Annotations()
        for entry in data.get("findings", []):
            finding = from_json(Finding, entry)
            annotations.findings.setdefault(text(entry, "run_id"), []).append(finding)
        for entry in data.get("requirements", []):
            result, run_id = from_json(RequirementResult, entry), text(entry, "run_id")
            results = annotations.requirements.setdefault(run_id, [])
            if any(r.requirement_id == result.requirement_id for r in results):
                raise ValueError(f"requirement {result.requirement_id!r} is listed twice "
                                 f"for run {run_id!r}")
            results.append(result)
        for entry in data.get("checkmarks", []):
            key = (text(entry, "file_id"), text(entry, "model"), text(entry, "method"))
            if key in annotations.checkmarks:
                raise ValueError(f"check marks for {key} are listed twice")
            annotations.checkmarks[key] = from_json(CheckMarks, entry)
        for entry in data.get("files", []):
            file_id = text(entry, "file_id")
            if file_id in annotations.features:
                raise ValueError(f"file {file_id!r} is listed twice")
            annotations.features[file_id] = from_json(FileFeatures, entry)
        return annotations

    return read_input(path, "annotations file", parse)


def score_transcript(transcript: RunTranscript, header: RunHeader, annotations: Annotations,
                     checkers: Mapping[str, SyntaxCheckerHook]) -> dict:
    """Merge one run transcript, read as ``header``, with annotations into a scored record.

    Errors are annotated findings plus the automated fatal check on the final code (by
    ``checkers``, see ``default_checkers``), one per cause key, the first setting its
    category; an automated key that an annotated key normalizes to is that cause's.
    """
    config, final_code = header.config, header.final_code
    file_id = Path(header.code.path).stem
    automated = check_fatal(final_code, checkers) if final_code is not None else []
    annotated = annotations.findings.get(transcript.run_id, [])
    known = {normalize_cause_key(f.cause_key) for f in annotated}  # automated keys are normalized
    causes: dict[str, ErrorCategory] = {}
    for finding in [*annotated, *(f for f in automated if f.cause_key not in known)]:
        causes.setdefault(finding.cause_key, finding.category)
    per_category = Counter(causes.values())
    requirement_entries = annotations.requirements.get(transcript.run_id, [])
    marks = annotations.checkmarks.get((file_id, config.model, config.method.value))
    features = annotations.features.get(file_id)
    return {
        "run_id": transcript.run_id,
        "file_id": file_id,
        "model": config.model,
        "method": config.method.value,
        "temperature": config.temperature,
        "repetition": header.repetition,
        "status": transcript.status,
        "duration": transcript.duration,
        "error_count": len(causes),
        "errors_by_category": {cat.value: per_category[cat] for cat in ErrorCategory},
        "requirement_score": (sum(r.value for r in requirement_entries)
                              if requirement_entries else None),
        "requirement_total": len(requirement_entries) or None,
        "checkmarks": {**to_json(marks), "score": sum(marks.flags())} if marks else None,
        "features": to_json(features) if features else None,
        "loc_final": final_code.loc if final_code else None,
        "unverified": transcript.outcome.get("unverified"),
        "truncated": transcript.outcome.get("truncated"),
    }


def aggregate_records(records: Sequence[dict]) -> list[dict]:
    """Mean/SD summaries per (file, method, model, temperature) group.

    Durations are z-scored within each group so long runs can be
    compared against their error and requirement outcomes.
    """
    fields = ("file_id", "method", "model", "temperature")
    groups: dict[tuple, list[dict]] = {}
    for record in records:
        groups.setdefault(tuple(record[name] for name in fields), []).append(record)
    summaries = []
    for key, members in sorted(groups.items()):
        summary = {**dict(zip(fields, key)), "n": len(members)}
        durations = [m["duration"] for m in members]
        for name, values in (
            ("error", [m["error_count"] for m in members]),
            ("requirement", [m["requirement_score"] for m in members
                             if m["requirement_score"] is not None]),
            ("duration", durations),
        ):
            if values:  # only requirement scores can be missing
                stats = aggregate_runs(values)
                summary[f"{name}_mean"] = stats.mean
                summary[f"{name}_sd"] = stats.sd
        summary["normalized_durations"] = normalize_durations(durations)
        summaries.append(summary)
    return summaries


def records_for_report(records: Sequence[dict]) -> tuple[list[CheckMarkRecord], dict[str, FileFeatures]]:
    """Extract check-mark records and features from scored records."""
    marks: list[CheckMarkRecord] = []
    features: dict[str, FileFeatures] = {}
    for record in records:
        if record.get("checkmarks") is None:
            continue
        marks.append(CheckMarkRecord(record["file_id"], record["model"],
                                     from_json(CheckMarks, record["checkmarks"])))
        if record.get("features"):
            features[record["file_id"]] = from_json(FileFeatures, record["features"])
    return marks, features
