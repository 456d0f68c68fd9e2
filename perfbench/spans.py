"""Span tracing from outside the program.

The layers of ``vapu`` call each other through module attributes
(``vapu.pipeline.render_template``, ``vapu.cli.load_transcript``, ...).
:class:`Tracer` replaces those attributes with wrappers that record a
span per call: name, start, end, parent span and invocation id.  Spans
stay in memory until :meth:`Tracer.write`.  Nothing under ``src/``
changes, and :meth:`Tracer.uninstall` puts every original back.

A target that a later version of the program no longer has is skipped;
its metrics then read 0.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

ROLES = ("manager", "prompt_maker", "executor", "verifier", "finalizer", "baseline")

# (span name, module, attribute).  Each row wraps one attribute through
# which one layer calls another; the span is named after the layer that
# owns the function.
TARGETS = (
    ("pipeline.run_update", "vapu.cli", "run_update"),
    ("pipeline.run_baseline", "vapu.cli", "run_baseline"),
    ("workspace.load_codebase", "vapu.cli", "load_codebase"),
    ("workspace.load_transcript", "vapu.cli", "load_transcript"),
    ("evaluation.load_annotations", "vapu.cli", "load_annotations"),
    ("evaluation.score_transcript", "vapu.cli", "score_transcript"),
    ("evaluation.aggregate_records", "vapu.cli", "aggregate_records"),
    ("evaluation.build_comparison_report", "vapu.cli", "build_comparison_report"),
    ("evaluation.check_fatal", "vapu.evaluation", "check_fatal"),
    ("pipeline.build_gateway", "vapu.pipeline", "build_gateway"),
    ("gateway.load_replay_fixtures", "vapu.pipeline", "load_replay_fixtures"),
    ("pipeline.plan_tasks", "vapu.pipeline", "plan_tasks"),
    ("pipeline.make_task_prompt", "vapu.pipeline", "make_task_prompt"),
    ("pipeline.execute_task", "vapu.pipeline", "execute_task"),
    ("pipeline.verify_task", "vapu.pipeline", "verify_task"),
    ("pipeline.finalize_code", "vapu.pipeline", "finalize_code"),
    ("workspace.persist_transcript", "vapu.pipeline", "persist_transcript"),
    ("prompts.render_template", "vapu.pipeline", "render_template"),
    ("prompts.render_template", "vapu.prompts", "render_template"),
    ("prompts.extract_code", "vapu.pipeline", "extract_code"),
    ("prompts.has_unbalanced_fences", "vapu.pipeline", "has_unbalanced_fences"),
    ("prompts.parse_task_list", "vapu.pipeline", "parse_task_list"),
    ("prompts.parse_verdict", "vapu.pipeline", "parse_verdict"),
    ("prompts.build_baseline_prompt", "vapu.pipeline", "build_baseline_prompt"),
    ("gateway.complete", "vapu.gateway", "Gateway.complete"),
)


def _count_result(name: str, args, result, counts: dict) -> None:
    """Counts taken at the boundary, from the call's arguments and result."""
    if name == "gateway.complete":
        role = getattr(args[1], "value", str(args[1]))
        counts[f"gateway.complete.calls.{role}"] += 1
        counts[f"gateway.complete.prompt_chars.{role}"] += len(args[2])
        counts["gateway.complete.retries"] += result.retries
    elif name == "prompts.render_template":
        counts["prompts.render_template.chars_out"] += len(result.text)
    elif name == "prompts.extract_code":
        counts["prompts.extract_code.chars_in"] += len(args[0])
    elif name == "prompts.has_unbalanced_fences":
        counts["prompts.has_unbalanced_fences.true"] += bool(result)
    elif name == "pipeline.verify_task":
        counts["pipeline.verify_task.rejects"] += not result.accepted
    elif name == "pipeline.run_update":
        counts["pipeline.tasks"] += len(result.per_task_outcomes)
        counts["pipeline.tasks.unverified"] += sum(
            not o.accepted for o in result.per_task_outcomes)
    elif name == "workspace.persist_transcript":
        counts["workspace.persist_transcript.bytes"] += os.path.getsize(result)
    elif name == "workspace.load_transcript":
        counts["workspace.load_transcript.bytes"] += os.path.getsize(args[0])
    elif name == "workspace.load_codebase":
        counts["workspace.load_codebase.files"] += len(result)
    elif name == "gateway.load_replay_fixtures":
        counts["gateway.load_replay_fixtures.files"] += len(result)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, invocation id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.invocation = 0
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)  # placeholder keeps parents before children
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1,
                                self.invocation)
            _count_result(name, args, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, invocation) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "invocation": invocation,
                }) + "\n")

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus its direct children's; the
        program is single-threaded here, so children never overlap.
        """
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[index]
        return calls, total, own


def layer_metrics(tracer: Tracer, latencies: list[float], scale: float,
                  overhead_share: float) -> dict[str, tuple[float, str]]:
    """The per-layer metric table, per traced invocation.

    ``latencies`` are the host-scaled invocation times; span times are
    multiplied by ``scale``, the median host-speed factor of the traced
    invocations.
    """
    calls, total, own = tracer.totals()
    counts = tracer.counts
    n = max(len(latencies), 1)
    out: dict[str, tuple[float, str]] = {}

    def per(value: float, unit: str) -> tuple[float, str]:
        return (value / n, unit)

    def ms(name: str) -> tuple[float, str]:
        return per(1000.0 * scale * total.get(name, 0.0), "ms/inv")

    def self_ms(name: str) -> tuple[float, str]:
        return per(1000.0 * scale * own.get(name, 0.0), "ms/inv")

    def count(name: str) -> tuple[float, str]:
        return per(calls.get(name, 0), "calls/inv")

    def share(part: float, whole: float) -> tuple[float, str]:
        return (part / whole if whole else 0.0, "ratio")

    out["cli.main.calls"] = count("cli.main")
    out["cli.main.ms"] = ms("cli.main")
    out["cli.main.self_ms"] = self_ms("cli.main")
    out["pipeline.build_gateway.calls"] = count("pipeline.build_gateway")
    out["pipeline.build_gateway.ms"] = ms("pipeline.build_gateway")
    for name in ("run_update", "run_baseline"):
        out[f"pipeline.{name}.calls"] = count(f"pipeline.{name}")
        out[f"pipeline.{name}.ms"] = ms(f"pipeline.{name}")
        out[f"pipeline.{name}.self_ms"] = self_ms(f"pipeline.{name}")
    for name in ("plan_tasks", "make_task_prompt", "execute_task", "verify_task",
                 "finalize_code"):
        out[f"pipeline.{name}.calls"] = count(f"pipeline.{name}")
        out[f"pipeline.{name}.self_ms"] = self_ms(f"pipeline.{name}")
    out["pipeline.verify_task.reject_share"] = share(
        counts["pipeline.verify_task.rejects"], calls.get("pipeline.verify_task", 0))
    out["pipeline.tasks.unverified_share"] = share(
        counts["pipeline.tasks.unverified"], counts["pipeline.tasks"])

    for role in ROLES:
        out[f"gateway.complete.calls.{role}"] = per(
            counts[f"gateway.complete.calls.{role}"], "calls/inv")
        out[f"gateway.complete.prompt_chars.{role}"] = per(
            counts[f"gateway.complete.prompt_chars.{role}"], "chars/inv")
    out["gateway.complete.ms"] = ms("gateway.complete")
    out["gateway.complete.retries"] = per(counts["gateway.complete.retries"], "count/inv")
    out["gateway.complete.truncated_share"] = share(
        counts["prompts.has_unbalanced_fences.true"], calls.get("gateway.complete", 0))
    out["gateway.load_replay_fixtures.files"] = per(
        counts["gateway.load_replay_fixtures.files"], "files/inv")
    out["gateway.load_replay_fixtures.ms"] = ms("gateway.load_replay_fixtures")

    out["prompts.render_template.calls"] = count("prompts.render_template")
    out["prompts.render_template.ms"] = ms("prompts.render_template")
    out["prompts.render_template.chars_out"] = per(
        counts["prompts.render_template.chars_out"], "chars/inv")
    out["prompts.extract_code.calls"] = count("prompts.extract_code")
    out["prompts.extract_code.ms"] = ms("prompts.extract_code")
    out["prompts.extract_code.chars_in"] = per(
        counts["prompts.extract_code.chars_in"], "chars/inv")
    out["prompts.has_unbalanced_fences.calls"] = count("prompts.has_unbalanced_fences")
    out["prompts.has_unbalanced_fences.ms"] = ms("prompts.has_unbalanced_fences")
    for name in ("parse_verdict", "parse_task_list", "build_baseline_prompt"):
        out[f"prompts.{name}.ms"] = ms(f"prompts.{name}")
    # All prompt-layer time; a nested prompt span (the render inside
    # build_baseline_prompt) is counted once, at the outer span.
    out["prompts.all.ms"] = per(1000.0 * scale * _outermost(tracer, "prompts."), "ms/inv")

    for name in ("persist_transcript", "load_transcript"):
        out[f"workspace.{name}.calls"] = count(f"workspace.{name}")
        out[f"workspace.{name}.ms"] = ms(f"workspace.{name}")
    out["workspace.persist_transcript.bytes"] = per(
        counts["workspace.persist_transcript.bytes"], "bytes/inv")
    out["workspace.load_transcript.bytes"] = per(
        counts["workspace.load_transcript.bytes"], "bytes/inv")
    out["workspace.load_codebase.ms"] = ms("workspace.load_codebase")
    out["workspace.load_codebase.files"] = per(
        counts["workspace.load_codebase.files"], "files/inv")

    out["evaluation.score_transcript.calls"] = count("evaluation.score_transcript")
    out["evaluation.score_transcript.self_ms"] = self_ms("evaluation.score_transcript")
    out["evaluation.check_fatal.calls"] = count("evaluation.check_fatal")
    out["evaluation.check_fatal.ms"] = ms("evaluation.check_fatal")
    for name in ("load_annotations", "aggregate_records", "build_comparison_report"):
        out[f"evaluation.{name}.ms"] = ms(f"evaluation.{name}")

    out["trace.invocation_ms"] = per(1000.0 * sum(latencies), "ms/inv")
    out["trace.spans"] = per(len(tracer.spans), "count/inv")
    out["trace.overhead_share"] = (overhead_share, "ratio")
    out["trace.host_scale"] = (scale, "ratio")
    return out


def _outermost(tracer: Tracer, prefix: str) -> float:
    """Seconds in spans named ``prefix*`` whose parent is not one too."""
    spans = tracer.spans
    seconds = 0.0
    for name, start, end, parent, _ in spans:
        if name.startswith(prefix) and (parent < 0 or not spans[parent][0].startswith(prefix)):
            seconds += end - start
    return seconds
