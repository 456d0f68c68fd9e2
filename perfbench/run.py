"""Offline replay benchmark for vapu.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small-batch --seed 1 --seconds 12 --trace 0

It generates inputs from the seed under ``.perfbench-work/``, imports
``vapu`` from the checkout's ``src/``, and drives ``vapu.cli.main`` with
``--backend replay`` from this one process: a closed loop with one
client and ``--parallel 1``, each invocation starting when the previous
one returned.  Between invocations, outside the timed region, it checks
the outputs.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer
metrics (see ``spans.py``), writing the spans to
``.perfbench-work/trace-<workload>.jsonl``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Outputs stay on the checkout's disk.  An untimed first pass creates
them and the timed passes overwrite them in place, so the cost of
creating files is not in the numbers, and real disk behaviour shows
only as the journal and writeback stalls that rewrites run into.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
MIN_PASSES = 3  # a pass invokes every unit of the workload once

# Host speed.  The host this runs on changes speed by up to a half
# within minutes, and for a few invocations at a time (other tenants),
# for the program and for any fixed piece of Python alike.  A fixed
# reference task, run just before and just after each invocation
# outside its timed region, measures that speed; each invocation's time
# is scaled to what it would be on a host where the reference task takes
# REFERENCE_NOMINAL_S.  The raw figures and the median scale are printed
# above the JSON line.
REFERENCE_NOMINAL_S = 0.004
# Sized like a small transcript (~250 KB), so the task also feels what
# other tenants do to the caches, as the program's large writes do.
_REFERENCE_DOC = {f"line{i}": f"$row['Item']['field_{i}'] = {i};\n" * 120 for i in range(80)}
_REFERENCE_TEXT = ("```php\n" + "<?php echo $item['Item']['name']; ?>\n" * 400 + "```\n") * 6
_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def reference_task() -> float:
    """Seconds for a fixed mix of the program's kinds of work."""
    start = time.perf_counter()
    body = json.dumps(_REFERENCE_DOC, sort_keys=True)
    hashlib.sha256(body.encode("utf-8")).hexdigest()
    json.loads(body)
    _FENCE.findall(_REFERENCE_TEXT)
    sum(1 for line in _REFERENCE_TEXT.splitlines() if line.lstrip().startswith("```"))
    total = 0
    for i in range(3000):
        total += len(f"{i}-{total % 97}")
    return time.perf_counter() - start


def measure(workload, units, cli, seconds: float, out: Path, tracer=None):
    """Closed loop over whole passes until ``seconds`` of invocation time.

    Each unit writes into its own output directory, which keeps what the
    previous pass left, so in the timed passes the program overwrites
    its earlier outputs.  Before each invocation, untimed, the mtime of
    every file there is noted; the checks read only files the invocation
    wrote again.  Pass 0 creates the files: it is checked (and replays a
    sample of transcripts) but not timed.

    With a tracer, timed passes alternate between untraced and traced,
    so both see the same host.  Returns the checks' outcome and, per
    mode (False untraced, True traced), the timings.
    """
    from workloads import Outcome, mtimes

    outcome = Outcome()
    modes = {False: {"raw": [], "references": []}}
    if tracer is not None:
        modes[True] = {"raw": [], "references": []}
    runs_per_pass = 0
    passes = 0
    while (passes <= MIN_PASSES * len(modes)
           or sum(sum(m["raw"]) for m in modes.values()) < seconds):
        traced = tracer is not None and passes % 2 == 0
        mode = modes[traced]
        for unit in units:
            target = out / unit.name
            before_mtimes = mtimes(target)
            gc.collect()
            before = reference_task()
            if traced:
                tracer.invocation += 1
                tracer.enabled = passes > 0
            start = time.perf_counter()
            try:
                codes = workload.invoke(unit, target, cli)
                elapsed = time.perf_counter() - start
                tracer_off(tracer)
                after = reference_task()
                checked = workload.check(unit, target, cli, codes, passes == 0,
                                         before_mtimes)
            except Exception as exc:  # a crash fails this invocation, not the run
                elapsed = time.perf_counter() - start
                tracer_off(tracer)
                after = reference_task()
                checked = Outcome(runs=len(unit.runs), failed=len(unit.runs),
                                  problems=[f"{unit.name}: {exc!r}"])
            outcome.add(checked)
            cli.reset()
            if passes > 0:
                mode["raw"].append(elapsed)
                mode["references"].append((before + after) / 2)
        if passes == 0:
            runs_per_pass = outcome.runs
        passes += 1
    shutil.rmtree(out, ignore_errors=True)
    for mode in modes.values():
        # The host's speed at invocation i: the median reference time
        # over invocations i-2..i+2, which follows changes that last a
        # few invocations and ignores a reference that ran fast by
        # chance; or, if slower, the reference around invocation i
        # itself, which catches a burst that hit just this invocation.
        references = mode.pop("references")
        mode["scales"] = [
            REFERENCE_NOMINAL_S / max(reference,
                                      statistics.median(references[max(0, i - 2):i + 3]))
            for i, reference in enumerate(references)]
        mode["latencies"] = [t * k for t, k in zip(mode["raw"], mode["scales"])]
        # Units run in the same order every pass: unit u's times are [u::n].
        mode["unit_seconds"] = [statistics.median(mode["latencies"][u::len(units)])
                                for u in range(len(units))]
        mode["runs_per_pass"] = runs_per_pass
        mode["scale"] = statistics.median(mode["scales"])
    return outcome, modes


def tracer_off(tracer) -> None:
    if tracer is not None:
        tracer.enabled = False


def runs_per_s(result: dict) -> float:
    """Per-file runs in one pass over the sum of each unit's median time.

    A time spike lands in one invocation, so per-unit medians drop it
    where a per-pass or total time would keep it.
    """
    return result["runs_per_pass"] / sum(result["unit_seconds"])


def p90_ms(latencies: list[float]) -> float:
    """The invocation time's 90th percentile.

    Stalls of the host's disk and CPU (journal commits, steal) land in
    this tail, and it moved by up to 30% between ten-run sets of the
    same code, so it is reported from the trace run, without a bound.
    """
    return 1000.0 * statistics.quantiles(latencies, n=10, method="inclusive")[8]


def end_to_end(result: dict, outcome, setup_s: float, corpus, rss_mb: float) -> dict:
    latencies = result["latencies"]
    cost = corpus or outcome
    return {
        "setup_s": (setup_s, "s"),
        "runs_per_s": (runs_per_s(result), "1/s"),
        "invocation_ms_p50": (1000.0 * statistics.median(latencies), "ms"),
        "model_calls_per_run": (cost.calls / cost.transcripts, "calls"),
        "prompt_chars_per_run": (cost.prompt_chars / cost.transcripts, "chars"),
        "prompt_amplification": (cost.prompt_chars / cost.input_chars, "ratio"),
        "transcript_bytes_per_run": (cost.transcript_bytes / cost.transcripts, "bytes"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_share": (outcome.kept / outcome.runs, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["small-batch", "large-files", "evaluate-report"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vapu" / "__init__.py").is_file():
        print(f"error: no vapu package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")  # `vapu replay` scratch stays in the checkout
    # The program's warnings (truncation retries, unverified tasks) are
    # formatted as usual and then dropped; a handler on the root logger
    # makes the CLI's logging.basicConfig a no-op.
    logging.getLogger().addHandler(logging.StreamHandler(_NullStream()))

    sys.path.insert(0, str(SRC))
    import vapu.cli

    from workloads import WORKLOADS, Cli, peak_rss_mb

    workload = WORKLOADS[args.workload]()
    cli = Cli(vapu.cli.main)
    out = work / "out"
    # One set-up: start an interpreter that imports vapu (what starting
    # the CLI costs), generate the inputs, and make one warm-up invocation.
    setups, raw_setups, units = [], [], None
    for k in range(SETUP_REPEATS):
        if units is not None:
            shutil.rmtree(work / f"setup{k - 1}")
        before = reference_task()
        start = time.perf_counter()
        _start_interpreter()
        units = workload.setup(work / f"setup{k}", args.seed, cli)
        workload.invoke(units[0], out / "warm-up", cli)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * 2 * REFERENCE_NOMINAL_S / (before + reference_task()))
        cli.reset()
        shutil.rmtree(out, ignore_errors=True)
    setup_s = statistics.median(setups)

    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        cli.main = tracer.wrap("cli.main", vapu.cli.main)
        try:
            outcome, modes = measure(workload, units, cli, args.seconds, out, tracer)
        finally:
            tracer.uninstall()
            cli.main = vapu.cli.main
        sample = modes[True]
        metrics = layer_metrics(tracer, sample["latencies"], sample["scale"],
                                1.0 - runs_per_s(sample) / runs_per_s(modes[False]))
        metrics["cli.invocation_ms_p90"] = (p90_ms(modes[False]["latencies"]), "ms")
        tracer.write(WORK / f"trace-{args.workload}.jsonl")
    else:
        outcome, modes = measure(workload, units, cli, args.seconds, out)
        sample = modes[False]
        metrics = end_to_end(sample, outcome, setup_s, workload.corpus(), peak_rss_mb())
    shutil.rmtree(work, ignore_errors=True)

    n = len(sample["latencies"])
    print(f"{args.workload} seed={args.seed}: {n} timed invocations in "
          f"{n // len(units)} passes (p90 {p90_ms(sample['latencies']):.6g} ms with "
          f"{n - int(0.9 * n)} beyond it), "
          f"{outcome.runs} per-file runs checked, {outcome.lost} transcripts lost to "
          f"run-id collisions, {outcome.failed} failed checks")
    print(f"  raw: median invocation {1000 * statistics.median(sample['raw']):.6g} ms, "
          f"set-up {statistics.median(raw_setups):.6g} s; "
          f"median host scale {sample['scale']:.4f}")
    for problem in outcome.problems:
        print(f"  check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.runs,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _start_interpreter() -> None:
    """Import ``vapu.cli`` in a child interpreter and wait for it to exit."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import vapu.cli"
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, timeout=60)


class _NullStream:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


if __name__ == "__main__":
    sys.exit(main())
