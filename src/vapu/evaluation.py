"""Measurement apparatus for comparing update methods.

A run is scored from plain data: its errors counted once per cause
(annotated findings plus the automated fatal check), its requirements
as the count of 0/1 results, and its three check marks as the count of
true flags.  Also here: difficulty scoring from LOC/complexity/task
count, duration normalization, mean/SD statistics, temperature
selection, and the side-by-side comparison report and its JSON text.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import EmptyScores, InvalidCCLetter
from .models import CodeDocument, from_json, read_input, to_json
from .workspace import RunHeader, RunTranscript, split_suffix


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
    except MemoryError:  # the parser's stack overflowed; its message differs by version
        return ["unreadable source: too deeply nested for the parser"]
    return []


class Checkers(dict):
    """Syntax checkers by language tag, with the memo of the one command they serve.

    :meth:`final_file` works out a final file's fatal findings and its LOC
    on the first call for its content and checker; repeated runs often end
    in the same file.  The memo is keyed by a SHA-256 digest of the exact
    content, so it stays small however large the files are, and it lives
    as long as this mapping.  A plain mapping of checkers works wherever
    this one does, without the memo.
    """

    def __init__(self, hooks: Mapping[str, SyntaxCheckerHook]) -> None:
        super().__init__(hooks)
        self._final_files: dict[tuple[object, bytes], tuple[list[Finding], int]] = {}

    def final_file(self, code: CodeDocument) -> tuple[list[Finding], int]:
        """``code``'s fatal findings (see :func:`check_fatal`) and LOC, from the memo.
        The findings are the memo's own list: copy it before changing it."""
        hook = self.get(code.language_tag.lower())  # "py" and "python" share theirs
        key = (hook, hashlib.sha256(code.content.encode("utf-8", "surrogatepass")).digest())
        facts = self._final_files.get(key)
        if facts is None:  # checked as a plain mapping, so check_fatal does the work
            facts = self._final_files[key] = (check_fatal(code, dict(self)), code.loc)
        return facts


def default_checkers() -> Checkers:
    """The bundled checkers by language tag, with one memo (see :class:`Checkers`).

    Call it once per command and pass the result to every ``score_transcript``
    call of that command: each distinct final file is then checked and its
    lines counted once, and the memo goes with the command.
    """
    return Checkers({"py": python_syntax_checker, "python": python_syntax_checker})


def check_fatal(code: CodeDocument,
                checkers: Mapping[str, SyntaxCheckerHook]) -> list[Finding]:
    """Fatal findings from the registered syntax checker for the document's language.

    Only fatal errors are automatable; the other categories come from
    annotations.  A language no hook covers has no automated findings.
    :class:`Checkers` check each distinct content once.
    """
    if isinstance(checkers, Checkers):
        return list(checkers.final_file(code)[0])
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
    """The mean as ``statistics.fmean`` gives it, and the population SD correctly rounded,
    as 3.11+'s ``statistics.pstdev`` gives it.  Over one power-of-two denominator ``d``, ints
    and finite floats have the variance ``(n*sum(x*x) - sum(x)**2) / (n*d)**2``, and
    ``math.isqrt`` its root, rounded to odd at 2*53+3 bits as pstdev rounds it."""
    if not values:
        raise ValueError("cannot aggregate an empty value list")
    count, total = len(values), math.fsum(values)
    if not math.isfinite(total) or not set(map(type, values)) <= {int, float}:
        import statistics  # for other number types, infinities and NaN

        return RunStats(count, total / count, statistics.pstdev(values) if count > 1 else 0.0)
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(denominator for _, denominator in ratios)  # a multiple of every other
    scaled = [numerator * (scale // denominator) for numerator, denominator in ratios]
    top, bottom = count * sum(x * x for x in scaled) - sum(scaled) ** 2, (count * scale) ** 2
    shift = (top.bit_length() - bottom.bit_length() - 109) // 2
    top, bottom = (top, bottom << 2 * shift) if shift >= 0 else (top << -2 * shift, bottom)
    root = math.isqrt(top // bottom)
    root |= root * root * bottom != top  # round to odd
    return RunStats(count, total / count,
                    float(root << shift) if shift >= 0 else root / (1 << -shift))


def normalize_durations(durations: Sequence[float],
                        stats: RunStats | None = None) -> list[float]:
    """Z-score each duration by ``stats``, the series' :func:`aggregate_runs` (worked out
    here when not given); a constant series normalizes to all zeros."""
    if not durations:
        raise ValueError("cannot normalize an empty duration list")
    if stats is None:
        stats = aggregate_runs(durations)
    if stats.sd == 0:
        return [0.0 for _ in durations]
    return [(value - stats.mean) / stats.sd for value in durations]


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

    @functools.cached_property
    def buckets(self) -> tuple[str, str, str]:
        """The file's LOC band, grade group and task count: its bucket in each report table."""
        grade = _cc_grade(self.cc_letter)
        return (next(label for label, _, high in LOC_BANDS if high is None or self.loc < high),
                next(label for label, letters in CC_GROUPS if grade in letters),
                str(self.task_count))


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

    def tables(self) -> tuple[tuple[str | None, str, str, tuple], ...]:
        """The compared tables in report order, which all three writers walk.

        Each is its report.json key (None: not written there), report.tsv
        section, report.txt title and rows.  A row is its figures (key,
        pipeline, baseline, delta; "" for one it lacks) and its report.txt
        line (None: left out there, as for a model with no baseline records).
        """
        baseline_by_model = {m.model: m for m in self.baseline_models}
        models = []
        for mine in self.vapu_models:
            theirs = baseline_by_model.get(mine.model)
            if theirs is None:
                models.append(((mine.model, mine.total, "", ""), None))
            else:
                models.append(((mine.model, mine.total, theirs.total, mine.total - theirs.total),
                               f"  {mine.model}: {mine.total} vs {theirs.total} "
                               f"({mine.pass_rate:.1f}% vs {theirs.pass_rate:.1f}%)"))

        def bucket_rows(buckets: tuple[BucketDelta, ...]) -> tuple:
            return tuple(((b.label, b.vapu, b.baseline, b.delta),
                          f"  {b.label}: {b.vapu} vs {b.baseline} ({b.delta:+d})") for b in buckets)

        return (
            (None, "models", "Per model (pipeline vs baseline):", tuple(models)),
            ("loc_bands", "loc_band", "By LOC band:", bucket_rows(self.loc_bands)),
            ("cc_groups", "cc_group", "By complexity grade:", bucket_rows(self.cc_groups)),
            ("task_counts", "task_count", "By task count:", bucket_rows(self.task_counts)),
        )

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
        for key, _, _, rows in self.tables():
            if key is not None:
                report[key] = [dict(zip(("bucket", "vapu", "baseline", "delta"), figures))
                               for figures, _ in rows]
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
        for _, section, _, table in self.tables():
            rows.extend((section, *map(str, figures)) for figures, _ in table)
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
        ]
        for _, _, title, rows in self.tables():
            lines += ["", title, *(line for _, line in rows if line is not None)]
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

    labels = ([label for label, _, _ in LOC_BANDS], [label for label, _ in CC_GROUPS],
              [str(count) for count in sorted({f.task_count for f in features.values()})])
    sums = [{label: [0, 0] for label in table} for table in labels]  # [pipeline, baseline] marks
    for side, runs in enumerate((vapu_runs, baseline_runs)):
        for record in runs:
            for table, label in zip(sums, features[record.file_id].buckets):
                table[label][side] += sum(record.marks.flags())
    loc_bands, cc_groups, task_counts = (
        tuple(BucketDelta(label, *pair) for label, pair in table.items()) for table in sums)
    return ComparisonReport(_mark_totals(vapu_runs), _mark_totals(baseline_runs),
                            _model_totals(vapu_runs), _model_totals(baseline_runs),
                            loc_bands, cc_groups, task_counts)


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
    The findings and ``loc_final`` come from the memo of ``checkers`` when they are
    :class:`Checkers`.
    """
    config, final_code = header.config, header.final_code
    file_id = split_suffix(header.code.path)[0]
    if final_code is None:
        automated, loc_final = [], None
    else:
        if not isinstance(checkers, Checkers):
            checkers = Checkers(checkers)
        automated, loc_final = checkers.final_file(final_code)
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
        "loc_final": loc_final,
        "unverified": transcript.outcome.get("unverified"),
        "truncated": transcript.outcome.get("truncated"),
    }


def aggregate_records(records: Sequence[dict]) -> list[dict]:
    """Mean/SD summaries per (file, method, model, temperature) group.

    Durations are z-scored within each group, by the duration mean and SD
    the summary records, so long runs can be compared against their error
    and requirement outcomes.
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
        # stats is the loop's last, the durations'
        summary["normalized_durations"] = normalize_durations(durations, stats)
        summaries.append(summary)
    return summaries


def records_for_report(records: Sequence[dict]) -> tuple[list[CheckMarkRecord], dict[str, FileFeatures]]:
    """Extract check-mark records and features from scored records.  A file whose records'
    features put it in different report buckets raises ValueError naming it."""
    marks: list[CheckMarkRecord] = []
    features: dict[str, FileFeatures] = {}
    for record in records:
        if record.get("checkmarks") is None:
            continue
        file_id = record["file_id"]
        marks.append(CheckMarkRecord(file_id, record["model"],
                                     from_json(CheckMarks, record["checkmarks"])))
        if record.get("features"):
            read = from_json(FileFeatures, record["features"])
            if features.setdefault(file_id, read).buckets != read.buckets:
                raise ValueError(f"file {file_id!r} falls in two report buckets by its features")
    return marks, features


_JSON_CONSTANTS = {None: "null", True: "true", False: "false",
                   math.inf: "Infinity", -math.inf: "-Infinity"}  # NaN: not found


def to_indented_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` without json's pure-Python encoder,
    for dicts with str keys, lists, str, int, float, bool and None of exactly those types;
    any other type raises TypeError."""
    parts: list[str] = []
    _write_indented(value, "\n", parts)
    return "".join(parts)


def _write_indented(value, newline: str, parts: list[str]) -> None:
    kind = type(value)
    if kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is float and math.isfinite(value):
        parts.append(float.__repr__(value))
    elif kind is float or kind is bool or value is None:
        parts.append(_JSON_CONSTANTS.get(value, "NaN"))
    elif kind is dict:
        inner, separator = newline + "  ", "{"
        for key in sorted(value):  # the escaper raises TypeError on a key that is not str
            parts.append(f"{separator}{inner}{encode_basestring_ascii(key)}: ")
            _write_indented(value[key], inner, parts)
            separator = ","
        parts.append(newline + "}" if value else "{}")
    elif kind is list:
        inner, separator = newline + "  ", "["
        for item in value:
            parts.append(separator + inner)
            _write_indented(item, inner, parts)
            separator = ","
        parts.append(newline + "]" if value else "[]")
    else:
        raise TypeError(f"{kind.__name__} is not written as indented JSON")
