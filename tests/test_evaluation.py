from __future__ import annotations

import json
import math
import random
import statistics
import struct
import sys
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from vapu.errors import EmptyScores, InvalidCCLetter
from vapu.evaluation import (
    Annotations,
    CheckMarkRecord,
    CheckMarks,
    ErrorCategory,
    FileFeatures,
    Finding,
    RequirementResult,
    RunStats,
    TemperatureScore,
    aggregate_runs,
    build_comparison_report,
    check_fatal,
    default_checkers,
    in_selection_range,
    normalize_cause_key,
    normalize_durations,
    python_syntax_checker,
    score_difficulty,
    score_transcript,
    select_temperature,
    to_indented_json,
)
from vapu.models import CodeDocument, RequirementSpec, count_loc
from vapu.workspace import RunConfig, RunHeader, RunTranscript

BROKEN_PYTHON = "def f(:\n  pass"


def finding(cause: str, category: ErrorCategory = ErrorCategory.FATAL) -> Finding:
    return Finding(category=category, cause_key=cause)


def scored(findings: Sequence[Finding] = (), requirements: Sequence[RequirementResult] = (),
           marks: CheckMarks | None = None, final: str | None = None,
           language_tag: str = "python", checkers=None) -> dict:
    """The record score_transcript gives run "r" of file f (model m, vapu) with these
    annotations; ``final`` is its final code, None for a run that did not complete."""
    code = CodeDocument(path="f.py", language_tag=language_tag, content="x = 1\n")
    header = RunHeader(config=RunConfig(model="m", output_dir=Path("out")),
                       requirement=RequirementSpec.from_text("req", "update it"), code=code,
                       repetition=1, final_code=None if final is None else code.with_content(final))
    annotations = Annotations(findings={"r": list(findings)},
                              requirements={"r": list(requirements)},
                              checkmarks={("f", "m", "vapu"): marks} if marks else {})
    return score_transcript(RunTranscript(run_id="r", config={}), header, annotations,
                            default_checkers() if checkers is None else checkers)


# --- errors, one per cause ---

def test_same_cause_counted_once() -> None:
    assert scored([finding("missing helper"), finding("missing helper")])["error_count"] == 1


def test_distinct_causes_both_counted() -> None:
    assert scored([finding("cause a"), finding("cause b")])["error_count"] == 2


def test_dedup_spans_categories_first_wins() -> None:
    record = scored([finding("same mistake", ErrorCategory.FATAL),
                     finding("same mistake", ErrorCategory.RUNTIME)])
    assert record["error_count"] == 1
    assert record["errors_by_category"] == {"fatal": 1, "runtime": 0, "content": 0,
                                            "missing_additional": 0}


def test_an_automated_finding_of_an_annotated_cause_counts_once_as_annotated() -> None:
    [message] = python_syntax_checker(BROKEN_PYTHON)
    annotated = finding(normalize_cause_key(message), ErrorCategory.RUNTIME)
    record = scored([annotated, finding("other mistake", ErrorCategory.CONTENT)],
                    final=BROKEN_PYTHON)
    assert record["error_count"] == 2
    assert record["errors_by_category"] == {"fatal": 0, "runtime": 1, "content": 1,
                                            "missing_additional": 0}
    # Without the annotation the same final code counts one fatal error.
    assert scored(final=BROKEN_PYTHON)["errors_by_category"]["fatal"] == 1


def test_an_annotated_cause_written_otherwise_still_matches_its_automated_finding() -> None:
    [message] = python_syntax_checker(BROKEN_PYTHON)
    written = f"{message[0].upper()}{message[1:]}"  # "Invalid syntax" beside "invalid syntax"
    assert written != normalize_cause_key(message)
    record = scored([finding(written)], final=BROKEN_PYTHON)
    assert record["error_count"] == 1
    assert record["errors_by_category"]["fatal"] == 1


def test_annotated_causes_that_normalize_alike_still_count_apart() -> None:
    record = scored([finding("observed mistake 0"), finding("observed mistake 1")],
                    final=BROKEN_PYTHON)
    assert record["error_count"] == 3


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=30),
       st.booleans())
def test_error_count_is_the_number_of_distinct_causes(causes: list[str], broken: bool) -> None:
    findings = [finding(cause) for cause in causes for _ in range(2)]  # each cause twice
    record = scored(findings, final=BROKEN_PYTHON if broken else "x = 2\n")
    assert record["error_count"] == len(set(causes)) + broken
    assert sum(record["errors_by_category"].values()) == record["error_count"]


def test_normalize_cause_key_strips_positions() -> None:
    first = normalize_cause_key("Line 3: unexpected indent")
    second = normalize_cause_key("line 17:  unexpected   indent")
    assert first == second


# --- automated fatal check ---

def test_python_syntax_error_yields_one_fatal_finding() -> None:
    doc = CodeDocument(path="x.py", language_tag="python", content="def f(:\n  pass")
    findings = check_fatal(doc, default_checkers())
    assert len(findings) == 1
    assert findings[0].category is ErrorCategory.FATAL


def test_valid_python_yields_no_findings() -> None:
    doc = CodeDocument(path="x.py", language_tag="python", content="x = 1\n")
    assert check_fatal(doc, default_checkers()) == []


def test_a_lone_surrogate_is_a_fatal_finding_not_an_encoding_error() -> None:
    assert python_syntax_checker('x = "\ud800"\n') == [
        "unreadable source: surrogates not allowed"]


@pytest.mark.parametrize("source", [
    "x: (y := 1) = 2\n",
    "def f():\n    x: (yield) = 1\n",
    "async def f():\n    x: (await f()) = 1\n",
])
def test_an_annotation_python3_compiles_is_no_fatal_finding(source: str) -> None:
    # python3 compiles each; under `from __future__ import annotations` each is a SyntaxError.
    assert python_syntax_checker(source) == []


def test_a_module_too_deep_for_the_compiler_is_a_fatal_finding() -> None:
    deep = "x = " + " + ".join(["1"] * 20000) + "\n"  # 5,000 terms compile on 3.13
    [message] = python_syntax_checker(deep)
    assert message.startswith("unreadable source: ")
    [fatal] = check_fatal(CodeDocument(path="x.py", language_tag="python", content=deep),
                          default_checkers())
    assert fatal.category is ErrorCategory.FATAL


def test_a_module_too_deep_for_the_parser_is_one_fatal_finding_on_every_python() -> None:
    # The parser raises MemoryError, with an empty message on 3.11 and another on 3.13.
    deep = "x = " + "-" * 50000 + "1\n"
    assert python_syntax_checker(deep) == ["unreadable source: too deeply nested for the parser"]
    [fatal] = check_fatal(CodeDocument(path="x.py", language_tag="python", content=deep),
                          default_checkers())
    assert fatal.category is ErrorCategory.FATAL


def test_unregistered_language_has_no_automated_findings() -> None:
    doc = CodeDocument(path="x.php", language_tag="php", content="<?php ?>")
    assert check_fatal(doc, default_checkers()) == []


def test_a_language_with_no_checker_scores_its_annotated_findings_only() -> None:
    flag_everything = {"python": lambda content: ["always wrong"]}
    record = scored([finding("annotated", ErrorCategory.CONTENT)], final="<?php ?>",
                    language_tag="php", checkers=flag_everything)
    assert record["error_count"] == 1
    assert record["errors_by_category"]["content"] == 1
    assert scored(final="x = 1\n", checkers=flag_everything)["error_count"] == 1


def test_one_set_of_checkers_checks_each_content_once(checked) -> None:
    checkers = default_checkers()
    broken = "def f(:\n  pass"
    first = check_fatal(CodeDocument(path="a.py", language_tag="python", content=broken),
                        checkers)
    # "py" and "python" share the memo; the repeat gets equal findings, unchecked.
    again = check_fatal(CodeDocument(path="b.py", language_tag="py", content=broken), checkers)
    assert again == first and len(first) == 1
    assert checked == [broken]
    # Another set of checkers starts empty.
    check_fatal(CodeDocument(path="a.py", language_tag="python", content=broken),
                default_checkers())
    assert checked == [broken, broken]


def test_contents_one_character_apart_are_both_checked(checked) -> None:
    checkers = default_checkers()
    valid, broken = "x = [1]\n", "x = [1}\n"
    assert check_fatal(CodeDocument("a.py", "python", valid), checkers) == []
    assert len(check_fatal(CodeDocument("a.py", "python", broken), checkers)) == 1
    assert checked == [valid, broken]


def test_a_repeated_checks_messages_are_its_own_copy() -> None:
    check = default_checkers()["python"]
    messages = check("def f(:\n")
    messages.append("changed by a caller")
    assert check("def f(:\n") == messages[:1]


# --- requirement scoring ---

def test_requirement_score_sums_values() -> None:
    results = [RequirementResult("a", 1), RequirementResult("b", 0), RequirementResult("c", 1)]
    record = scored(requirements=results)
    assert (record["requirement_score"], record["requirement_total"]) == (2, 3)


def test_requirement_score_all_zero() -> None:
    assert scored(requirements=[RequirementResult(str(i), 0)
                                for i in range(3)])["requirement_score"] == 0


def test_a_run_without_requirement_results_has_no_requirement_score() -> None:
    record = scored()
    assert (record["requirement_score"], record["requirement_total"]) == (None, None)


def test_requirement_values_are_binary() -> None:
    with pytest.raises(ValueError):
        RequirementResult("a", 2)


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=20))
def test_score_bounded_and_monotone_in_flips(values: list[int]) -> None:
    def requirement_score(values: list[int]) -> int:
        return scored(requirements=[RequirementResult(str(i), v)
                                    for i, v in enumerate(values)])["requirement_score"]

    score = requirement_score(values)
    assert 0 <= score <= len(values)
    for i, value in enumerate(values):
        if value == 0:
            flipped = list(values)
            flipped[i] = 1
            assert requirement_score(flipped) == score + 1


def test_requirement_means_match_published_aggregates() -> None:
    # 50 single-attempt totals (5 models x 10 repetitions); the sums 44
    # and 68 reproduce the reported means 0.88 and 1.36.
    high_temp = [1] * 44 + [0] * 6
    low_temp = [2] * 18 + [1] * 32
    assert sum(low_temp) == 68
    assert aggregate_runs(high_temp).mean == pytest.approx(0.88, abs=1e-9)
    assert aggregate_runs(low_temp).mean == pytest.approx(1.36, abs=1e-9)


# --- check marks ---

def test_checkmark_score_counts_true_flags() -> None:
    def score(*flags: bool) -> int:
        return scored(marks=CheckMarks(*flags))["checkmarks"]["score"]

    assert score(True, True, False) == 2
    assert score(False, False, False) == 0
    assert score(True, True, True) == 3
    assert scored()["checkmarks"] is None


# --- difficulty ---

def test_difficulty_floor_case() -> None:
    score = score_difficulty(100, "A", 1)
    assert (score.loc_points, score.cc_points, score.task_points) == (1, 1, 1)
    assert score.total == 3


def test_difficulty_round_half_up() -> None:
    assert score_difficulty(250, "C", 2).total == 8  # 3 + 3 + 2


def test_difficulty_loc_clamped_to_one_point() -> None:
    assert score_difficulty(49, "A", 1).total == 3


def test_difficulty_invalid_letter() -> None:
    with pytest.raises(InvalidCCLetter):
        score_difficulty(100, "G", 1)


@given(
    loc=st.integers(min_value=1, max_value=2000),
    letter=st.sampled_from("ABCDEF"),
    tasks=st.integers(min_value=1, max_value=6),
)
def test_difficulty_monotone_in_each_argument(loc: int, letter: str, tasks: int) -> None:
    base = score_difficulty(loc, letter, tasks).total
    assert score_difficulty(loc + 100, letter, tasks).total >= base
    if letter != "F":
        harder = chr(ord(letter) + 1)
        assert score_difficulty(loc, harder, tasks).total >= base
    assert score_difficulty(loc, letter, tasks + 1).total >= base


def test_selection_range_bounds() -> None:
    assert in_selection_range(score_difficulty(100, "A", 1))        # total 3
    assert in_selection_range(score_difficulty(400, "D", 2))        # total 10
    assert not in_selection_range(score_difficulty(400, "E", 2))    # total 11


# --- statistics ---

def test_normalize_constant_durations() -> None:
    assert normalize_durations([5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0]


def test_normalize_two_point_case() -> None:
    assert normalize_durations([1.0, 3.0]) == [-1.0, 1.0]


durations_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1000.0), min_size=2, max_size=40,
).filter(lambda xs: max(xs) - min(xs) > 0.01)


@given(durations_strategy)
def test_normalized_output_has_zero_mean_unit_sd(values: list[float]) -> None:
    normalized = normalize_durations(values)
    mean = sum(normalized) / len(normalized)
    sd = math.sqrt(sum((x - mean) ** 2 for x in normalized) / len(normalized))
    assert abs(mean) < 1e-9
    assert abs(sd - 1.0) < 1e-9


def test_aggregate_constant_values() -> None:
    stats = aggregate_runs([2.0, 2.0, 2.0])
    assert stats.mean == 2.0 and stats.sd == 0.0


def test_aggregate_published_error_totals() -> None:
    baseline = [2] * 49 + [3]          # 50 totals summing to 101
    pipeline_high = [3] * 35 + [4] * 15  # 165
    pipeline_low = [2] * 35 + [3] * 15   # 115
    assert sum(baseline) == 101 and sum(pipeline_high) == 165 and sum(pipeline_low) == 115
    assert aggregate_runs(baseline).mean == pytest.approx(2.02, abs=1e-9)
    assert aggregate_runs(pipeline_high).mean == pytest.approx(3.30, abs=1e-9)
    assert aggregate_runs(pipeline_low).mean == pytest.approx(2.30, abs=1e-9)


def test_population_sd_matches_two_pass_oracle() -> None:
    rng = random.Random(20240817)
    for _ in range(200):
        values = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 40))]
        stats = aggregate_runs(values)
        mean = sum(values) / len(values)
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        assert abs(stats.mean - mean) < 1e-9
        assert abs(stats.sd - sd) < 1e-9


def test_population_sd_is_the_same_float_on_every_python() -> None:
    # Python 3.10's statistics.pstdev gave ...367 and overflowed on the second.
    assert aggregate_runs([1.25, 2.5, 4.0]).sd == 1.1242281302693369
    assert aggregate_runs([1e300, -1e300]) == RunStats(n=2, mean=0.0, sd=1e300)


def is_correctly_rounded_sqrt(root: float, square: Fraction) -> bool:
    """Whether ``root`` is ``sqrt(square)`` rounded to nearest, ties to even: the exact
    root lies between the midpoints to ``root``'s neighbouring floats."""
    low = (Fraction(root) + Fraction(math.nextafter(root, 0.0))) / 2 if root else Fraction(0)
    high = (Fraction(root) + Fraction(math.nextafter(root, math.inf))) / 2
    if not low * low <= square <= high * high:
        return False
    even = struct.unpack("<q", struct.pack("<d", root))[0] % 2 == 0
    return even or square not in (low * low, high * high)


finite_values = st.lists(st.one_of(st.floats(min_value=-1e300, max_value=1e300),
                                   st.integers(min_value=-2**80, max_value=2**80)),
                         min_size=2, max_size=30)


@given(finite_values)
def test_population_sd_is_the_exact_sd_correctly_rounded(values: list[float]) -> None:
    exact = [Fraction(value) for value in values]
    mean = sum(exact) / len(exact)
    variance = sum((value - mean) ** 2 for value in exact) / len(exact)
    sd = aggregate_runs(values).sd
    assert is_correctly_rounded_sqrt(sd, variance)
    if sys.version_info >= (3, 11):  # 3.10's pstdev rounded twice
        assert sd == statistics.pstdev(values)


def test_other_number_types_take_the_sd_of_statistics() -> None:
    values = [Fraction(1, 3), Fraction(2, 3), Fraction(5, 7)]
    assert aggregate_runs(values) == RunStats(3, statistics.fmean(values),
                                              statistics.pstdev(values))


json_texts = st.one_of(st.text(), st.text(st.characters(exclude_categories=())),
                       st.sampled_from(["\ud800", "a\udfff", "\x00\x1f\x7f\n\t", "\"\\/",
                                        "\u00e9\u20ac\U0001d11e"]))
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.just(2**70), st.floats(),
                        st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), json_texts)
json_trees = st.recursive(json_leaves, lambda children: st.one_of(
    st.lists(children, max_size=4), st.dictionaries(json_texts, children, max_size=4)),
    max_leaves=30)


@given(st.one_of(json_trees, st.just({}), st.just([])))
def test_indented_json_is_the_text_of_json_dumps(value) -> None:
    assert to_indented_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_indented_json_raises_on_any_other_type() -> None:
    for value in ([1, (2, 3)], {1: "a"}, {"a": ErrorCategory.FATAL}, [{1, 2}]):
        with pytest.raises(TypeError):
            to_indented_json(value)


# --- temperature selection ---

def test_select_temperature_published_case() -> None:
    scores = [
        TemperatureScore(temperature=1.0, avg_requirements=0.88, avg_errors=2.02),
        TemperatureScore(temperature=0.0, avg_requirements=1.36, avg_errors=2.04),
    ]
    assert select_temperature(scores) == 0.0


def test_select_temperature_tie_goes_lower() -> None:
    scores = [
        TemperatureScore(temperature=0.0, avg_requirements=1.0, avg_errors=0.0),
        TemperatureScore(temperature=1.0, avg_requirements=1.0, avg_errors=0.0),
    ]
    assert select_temperature(scores) == 0.0


def test_select_temperature_prefers_higher_score() -> None:
    scores = [
        TemperatureScore(temperature=1.0, avg_requirements=2.0, avg_errors=0.0),
        TemperatureScore(temperature=0.0, avg_requirements=1.0, avg_errors=0.0),
    ]
    assert select_temperature(scores) == 1.0


def test_select_temperature_empty_rejected() -> None:
    with pytest.raises(EmptyScores):
        select_temperature([])


def test_select_temperature_duplicate_temperature_rejected() -> None:
    scores = [
        TemperatureScore(temperature=0.0, avg_requirements=1.0, avg_errors=0.0),
        TemperatureScore(temperature=0.0, avg_requirements=2.0, avg_errors=0.0),
    ]
    with pytest.raises(ValueError):
        select_temperature(scores)


def sixty_fourths(low: int, high: int) -> st.SearchStrategy[float]:
    """Multiples of 1/64 in [low/64, high/64]: sums and products of these
    stay exact in binary floating point, so a shift or scale cannot round
    a narrow lead away (1.0 + 1e-61 == 1.0) and turn it into a tie."""
    return st.integers(min_value=low, max_value=high).map(lambda n: n / 64)


@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.0]),
            sixty_fourths(0, 5 * 64),
            sixty_fourths(0, 5 * 64),
        ),
        # one entry has only one possible choice, so draw both temperatures
        min_size=2, max_size=2, unique_by=lambda e: e[0],
    ),
    shift=sixty_fourths(-3 * 64, 3 * 64),
    scale=sixty_fourths(7, 10 * 64),
)
def test_selection_invariant_under_shift_and_scale(entries, shift, scale) -> None:
    scores = [TemperatureScore(t, ar, ae) for t, ar, ae in entries]
    shifted = [TemperatureScore(t, ar + shift, ae) for t, ar, ae in entries]
    scaled = [TemperatureScore(t, ar * scale, ae * scale) for t, ar, ae in entries]
    choice = select_temperature(scores)
    assert select_temperature(shifted) == choice
    assert select_temperature(scaled) == choice


def test_score_property_recomputable() -> None:
    entry = TemperatureScore(temperature=1.0, avg_requirements=0.88, avg_errors=2.02)
    assert entry.score == pytest.approx(0.88 - 2.02 / 2)


# --- comparison report ---

def marks(first: bool, second: bool, third: bool) -> CheckMarks:
    return CheckMarks(first, second, third)


def test_small_comparison_report() -> None:
    vapu = [
        CheckMarkRecord("f1", "gpt-4o", marks(True, True, True)),
        CheckMarkRecord("f2", "gpt-4o", marks(True, True, False)),
    ]
    baseline = [
        CheckMarkRecord("f1", "gpt-4o", marks(True, False, False)),
        CheckMarkRecord("f2", "gpt-4o", marks(True, True, False)),
    ]
    features = {
        "f1": FileFeatures(loc=120, cc_letter="B", task_count=1),
        "f2": FileFeatures(loc=340, cc_letter="E", task_count=2),
    }
    report = build_comparison_report(vapu, baseline, features)
    assert report.vapu_totals.total == 5
    assert report.baseline_totals.total == 3
    assert report.overall_delta == 2
    by_label = {b.label: b for b in report.loc_bands}
    assert by_label["100-199"].delta == 2   # f1 improved
    assert by_label[">=300"].delta == 0     # f2 tied
    text = report.to_text()
    assert "overall delta: +2" in text


@pytest.mark.parametrize("loc, task_count", [(-5, 1), (0, 1), (10, 0), (-5, 0)])
def test_report_refuses_features_score_difficulty_refuses(loc, task_count) -> None:
    # Such a file would count in the totals but in no LOC band.
    vapu = [CheckMarkRecord("f1", "m", marks(True, True, True))]
    baseline = [CheckMarkRecord("f1", "m", marks(False, False, False))]
    with pytest.raises(ValueError, match="loc must be positive|task_count must be at least 1"):
        build_comparison_report(vapu, baseline, {
            "f1": FileFeatures(loc=loc, cc_letter="A", task_count=task_count)})


@pytest.mark.parametrize("letter", ["Z", "", "AB", "G"])
def test_file_features_refuse_a_grade_outside_a_to_f(letter) -> None:
    with pytest.raises(InvalidCCLetter):
        FileFeatures(loc=10, cc_letter=letter, task_count=1)


def test_report_groups_a_grade_as_score_difficulty_reads_it() -> None:
    # Case and surrounding blanks aside, as score_difficulty reads the letter.
    vapu = [CheckMarkRecord("f1", "m", marks(True, True, True))]
    baseline = [CheckMarkRecord("f1", "m", marks(False, False, False))]
    features = {"f1": FileFeatures(loc=10, cc_letter=" c ", task_count=1)}
    assert score_difficulty(10, " c ", 1).cc_points == 3
    report = build_comparison_report(vapu, baseline, features)
    assert {b.label: b.delta for b in report.cc_groups} == {"A-B": 0, "C-D": 3, "E-F": 0}


def test_report_rejects_mismatched_file_sets() -> None:
    vapu = [CheckMarkRecord("f1", "m", marks(True, True, True))]
    baseline = [CheckMarkRecord("f2", "m", marks(True, True, True))]
    with pytest.raises(ValueError):
        build_comparison_report(vapu, baseline, {})


def test_report_requires_features() -> None:
    vapu = [CheckMarkRecord("f1", "m", marks(True, True, True))]
    baseline = [CheckMarkRecord("f1", "m", marks(True, False, False))]
    with pytest.raises(ValueError):
        build_comparison_report(vapu, baseline, {})


MODEL_POOL = ("m0", "m1", "m2", "m3")
BUCKET_SECTIONS = (  # report.tsv section, report.txt title, report.json key
    ("loc_band", "By LOC band:", "loc_bands"),
    ("cc_group", "By complexity grade:", "cc_groups"),
    ("task_count", "By task count:", "task_counts"),
)


@st.composite
def check_mark_record_sets(draw):
    """Both sides' records over the same files: 1-3 models a side, drawn from a pool of four."""
    loc = st.one_of(st.sampled_from((1, 99, 100, 199, 200, 299, 300)), st.integers(1, 1200))
    files = draw(st.lists(st.tuples(loc, st.sampled_from("abcdefABCDEF"), st.integers(1, 12)),
                          min_size=1, max_size=12))
    features = {f"f{i}": FileFeatures(*file) for i, file in enumerate(files)}
    flags = st.builds(CheckMarks, st.booleans(), st.booleans(), st.booleans())

    def side() -> list[CheckMarkRecord]:
        models = draw(st.lists(st.sampled_from(MODEL_POOL), min_size=1, max_size=3, unique=True))
        return [CheckMarkRecord(file_id, model, draw(flags))
                for file_id in features for model in models]

    return side(), side(), features


@given(check_mark_record_sets())
def test_the_three_report_writers_show_the_same_figures(record_sets) -> None:
    vapu, baseline, features = record_sets
    report = build_comparison_report(vapu, baseline, features)
    data, rows, text = report.to_dict(), report.to_rows(), report.to_text()
    # report.txt: a heading, the totals, then one block per table headed by its title.
    blocks = [block.splitlines() for block in text.split("\n\n")[2:]]
    lines = {block[0]: block[1:] for block in blocks}
    assert list(lines) == ["Per model (pipeline vs baseline):",
                           *(title for _, title, _ in BUCKET_SECTIONS)]
    tsv: dict[str, list[tuple[str, ...]]] = {}
    for section, *cells in rows[1:]:
        tsv.setdefault(section, []).append(tuple(cells))
    assert list(tsv) == ["totals", "models", *(section for section, _, _ in BUCKET_SECTIONS)]

    mine = {m["model"]: m for m in data["models"]["vapu"]}
    theirs = {m["model"]: m for m in data["models"]["baseline"]}
    assert [model for model, *_ in tsv["models"]] == sorted({r.model for r in vapu}) == list(mine)
    shown = []
    for model, vapu_total, baseline_total, delta in tsv["models"]:
        assert int(vapu_total) == mine[model]["total"]
        if model not in theirs:
            assert baseline_total == delta == ""
            continue
        assert int(baseline_total) == theirs[model]["total"]
        assert int(delta) == mine[model]["total"] - theirs[model]["total"]
        shown.append(f"  {model}: {vapu_total} vs {baseline_total} "
                     f"({mine[model]['pass_rate']:.1f}% vs {theirs[model]['pass_rate']:.1f}%)")
    assert lines["Per model (pipeline vs baseline):"] == shown

    def buckets(file_id: str) -> tuple[str, ...]:  # read apart from the report's own tables
        f = features[file_id]
        return (("<100", "100-199", "200-299", ">=300")[min(f.loc // 100, 3)],
                ("A-B", "C-D", "E-F")["ABCDEF".index(f.cc_letter.upper()) // 2],
                str(f.task_count))

    marks = [Counter(), Counter()]
    for side, records in enumerate((vapu, baseline)):
        for record in records:
            for table, label in enumerate(buckets(record.file_id)):
                marks[side][table, label] += sum(record.marks.flags())
    for table, (section, title, key) in enumerate(BUCKET_SECTIONS):
        entries = [(e["bucket"], e["vapu"], e["baseline"], e["delta"]) for e in data[key]]
        assert tsv[section] == [tuple(map(str, entry)) for entry in entries]
        assert lines[title] == [f"  {label}: {v} vs {b} ({d:+d})" for label, v, b, d in entries]
        assert all(d == v - b for _, v, b, d in entries)
        assert all((v, b) == (marks[0][table, label], marks[1][table, label])
                   for label, v, b, _ in entries)
        assert sum(v for _, v, _, _ in entries) == data["vapu"]["total"]
        assert sum(b for _, _, b, _ in entries) == data["baseline"]["total"]
    assert [e["bucket"] for e in data["task_counts"]] == [
        str(n) for n in sorted({f.task_count for f in features.values()})]


def test_count_loc_reexported_here() -> None:
    assert count_loc("x\n\ny\n") == 2
