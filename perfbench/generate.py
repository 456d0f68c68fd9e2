"""Seeded input generator for the three benchmark workloads.

The seed picks identifiers, file names, line content and the order of
tasks; the shapes (files per area, LOC per file, task scripts) are fixed
tables below.  So two seeds give different files of the same size and
structure, and the per-run counts (model calls, prompt characters,
amplification) depend on the seed only through line lengths.

Everything the program sees is written under one directory: project
trees, replay fixture directories, requirement files and, for
``evaluate-report``, annotations built from the transcripts set-up made.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

MODEL = "gpt-4o"
MAX_ITERATIONS = 2  # verifier/finalizer budget passed as --max-iterations

REQUIREMENTS = (
    "Update the code from CakePHP 1.2 conventions to CakePHP 4.x conventions.\n"
    "Replace array-style record access with entity getter calls.\n"
    "Use $this->Html for link generation with array URL syntax.\n"
)

# small-batch: controllers per app area.  Every controller has the four
# CakePHP CRUD views plus one view of its own, so stems repeat across
# controller dirs exactly as in a real app/View tree.
SMALL_AREAS = (3, 4, 5, 3, 4, 5)
CRUD_VIEWS = ("index", "view", "add", "edit")
SMALL_LOC = (15, 40)
SMALL_REPLY_LOC = 28

# large-files: (file LOCs, task scripts) per invocation group.  A script
# is what the verifier does with one task: accept at once, reject once
# then accept, or reject until the budget runs out (task unverified).
ACCEPT, REJECT_ACCEPT, EXHAUST = "accept", "reject-accept", "exhaust"
LARGE_GROUPS = (
    ((860, 780), (ACCEPT, REJECT_ACCEPT, EXHAUST)),
    ((320, 350, 300), (REJECT_ACCEPT, ACCEPT, EXHAUST, ACCEPT)),
    ((540, 610), (ACCEPT, REJECT_ACCEPT, ACCEPT, REJECT_ACCEPT, ACCEPT)),
    ((420, 380, 450), (EXHAUST, ACCEPT, REJECT_ACCEPT, ACCEPT, ACCEPT, REJECT_ACCEPT)),
    ((700, 900), (ACCEPT, ACCEPT, REJECT_ACCEPT)),
    ((480, 520, 330), (REJECT_ACCEPT, ACCEPT, ACCEPT, ACCEPT)),
)

# evaluate-report: (suffix, LOC, pipeline output invalid, baseline output
# invalid) per file.  LOCs cover all four LOC bands of the report; an
# invalid .py output is what check_fatal records as a fatal finding.
EVAL_AREAS = (
    ((".php", 60, False, False), (".py", 150, False, True),
     (".php", 240, False, False), (".py", 330, True, False)),
    ((".py", 80, True, True), (".php", 120, False, False),
     (".py", 260, False, False), (".php", 310, False, False)),
    ((".php", 90, False, False), (".py", 180, False, True),
     (".py", 220, False, False), (".php", 380, False, False)),
    ((".py", 40, False, False), (".php", 170, False, False),
     (".php", 290, False, False), (".py", 360, True, True)),
)
EVAL_REPETITIONS = 2
CC_LETTERS = "ABCDEF"
FINDING_CATEGORIES = ("runtime", "content", "missing_additional")
REQUIREMENT_IDS = ("entity-access", "html-helper-links")

# Nouns all have seven letters, so line lengths (and with them prompt
# sizes) do not depend on which noun a file drew.
_NOUNS = ("invoice", "product", "payment", "article", "comment", "booking",
          "account", "license", "session", "contact", "vehicle", "project",
          "message", "station", "voucher", "segment", "partner", "journal")
_FIELDS = ("id", "title", "status", "created", "modified", "amount", "name",
           "email", "total", "notes", "priority", "due_date", "owner_id")
_ACTIONS = ("dashboard", "search", "export", "archive", "summary", "login",
            "calendar", "history", "approve", "upload", "settings", "print_view")


def _camel(word: str) -> str:
    return "".join(part.capitalize() for part in word.split("_"))


def _plural(word: str) -> str:
    return word + ("es" if word.endswith(("s", "x")) else "s")


# --- code text ----------------------------------------------------------

def ctp_view(rng: random.Random, loc: int, revision: str = "") -> str:
    """A CakePHP 1.2 view template of exactly ``loc`` non-blank lines."""
    noun = rng.choice(_NOUNS)
    model, var = _camel(noun), _plural(noun)
    head = [f"<?php /* {revision or 'legacy'} view for {var} */ ?>",
            f"<h2><?php __('{_camel(var)}'); ?></h2>",
            f"<?php foreach (${var} as ${noun}): ?>", "<tr>"]
    tail = ["</tr>", "<?php endforeach; ?>"]
    body: list[str] = []
    while len(head) + len(body) + len(tail) < loc:
        f = rng.choice(_FIELDS)
        if len(body) % 3 == 1:
            body.append(f"  <td><?php echo $html->link(${noun}['{model}']['{f}'], "
                        f"'/{var}/view/' . ${noun}['{model}']['id']); ?></td>")
        else:
            body.append(f"  <td><?php echo ${noun}['{model}']['{f}']; ?></td>")
    return "\n".join((head + body + tail)[:loc])


def php_class(rng: random.Random, loc: int, revision: str = "") -> str:
    """A CakePHP 1.2 controller of exactly ``loc`` non-blank lines."""
    noun = rng.choice(_NOUNS)
    model, var = _camel(noun), _plural(noun)
    lines = ["<?php", f"// {revision or 'legacy'} controller for {var}",
             f"class {_camel(var)}Controller extends AppController {{",
             f"    var $name = '{_camel(var)}';"]
    method = 0
    while len(lines) < loc - 1:
        method += 1
        action = rng.choice(_ACTIONS)
        block = [f"    function {action}_{method}($id = null) {{",
                 f"        ${noun} = $this->{model}->read(null, $id);"]
        for _ in range(rng.randint(2, 7)):
            f = rng.choice(_FIELDS)
            block.append(f"        $this->set('{f}', ${noun}['{model}']['{f}']);")
        block.append("    }")
        room = loc - 1 - len(lines)
        if len(block) > room:
            block = [f"    var ${rng.choice(_FIELDS)}_{method} = null;"] * room
        lines.extend(block)
    lines.append("}")
    return "\n".join(lines)


def py_module(rng: random.Random, loc: int, revision: str = "",
              invalid: bool = False) -> str:
    """A Python module of exactly ``loc`` non-blank lines.

    ``invalid`` plants one syntax error so the fatal checker fires.
    """
    noun = rng.choice(_NOUNS)
    lines = [f'"""{revision or "legacy"} helpers for {_plural(noun)}."""']
    index = 0
    while len(lines) < loc:
        index += 1
        block = [f"def {rng.choice(_ACTIONS)}_{index}({noun}):",
                 f"    total = {noun}.get('{rng.choice(_FIELDS)}', 0)"]
        for _ in range(rng.randint(1, 5)):
            block.append(f"    total += len(str({noun}.get('{rng.choice(_FIELDS)}')))")
        block.append("    return total")
        room = loc - len(lines)
        if len(block) > room:
            block = [f"{rng.choice(_FIELDS)}_{index} = {rng.randint(0, 999)}"] * room
        lines.extend(block)
    if invalid:
        lines[len(lines) // 2] = f"def broken_{noun}(:"
    return "\n".join(lines)


def fenced(code: str, tag: str) -> str:
    return f"Here is the updated file:\n\n```{tag}\n{code}\n```\n"


def truncated(code: str, tag: str) -> str:
    """A reply cut off inside its code block (opening fence, no closing one)."""
    lines = code.split("\n")
    return f"```{tag}\n" + "\n".join(lines[: len(lines) * 3 // 5]) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _plan(n: int) -> str:
    steps = ("Replace array-style record access with entity getters",
             "Move link generation to the Html helper with array URLs",
             "Rename legacy callbacks to their 4.x names",
             "Replace var property declarations with typed properties",
             "Route flash messages through the Flash component",
             "Replace deprecated find calls with query builder calls")
    return "\n".join(f"{i}. {steps[i - 1]}" for i in range(1, n + 1))


@dataclass
class FixtureScript:
    """Replay fixtures for one pipeline run and what that run must yield."""

    entries: dict[str, str] = field(default_factory=dict)
    final_code: str = ""
    accepted: list[bool] = field(default_factory=list)
    finalizer_iterations: list[int] = field(default_factory=list)
    calls: int = 0
    truncated: bool = False

    def add(self, role: str, text: str) -> None:
        index = sum(1 for key in self.entries if key.rpartition("-")[0] == role)
        self.entries[f"{role}-{index}"] = text
        self.calls += 1

    def write(self, directory: Path) -> None:
        for stem, text in self.entries.items():
            _write(directory / f"{stem}.txt", text)

    def expect(self, path: str, method: str, repetition: int = 1,
               fatal: int = 0) -> "ExpectedRun":
        """The run these fixtures drive over the file at ``path``."""
        return ExpectedRun(
            path=path, method=method, repetition=repetition,
            final_code=self.final_code, calls=self.calls,
            unverified=not all(self.accepted), truncated=self.truncated,
            accepted=tuple(self.accepted),
            finalizer_iterations=tuple(self.finalizer_iterations), fatal=fatal)


def pipeline_script(scripts, make_code, tag: str,
                    truncated_task: int | None = None) -> FixtureScript:
    """Fixtures for a manager plan of len(scripts) tasks.

    ``make_code(revision)`` returns one distinct code version; the
    expected final code is the last version the pipeline carries forward.
    """
    fx = FixtureScript()
    plan = _plan(len(scripts))
    fx.add("manager", plan)
    fx.add("manager", plan)
    revision = 0

    def next_code() -> str:
        nonlocal revision
        revision += 1
        return make_code(f"revision {revision}")

    for task, script in enumerate(scripts, start=1):
        fx.add("prompt_maker", f"Carry out task {task} on the whole file; keep everything else.")
        code = next_code()
        if task == truncated_task:
            fx.add("executor", truncated(code, tag))
            fx.truncated = True
        fx.add("executor", fenced(code, tag))
        iterations = {ACCEPT: 0, REJECT_ACCEPT: 1, EXHAUST: MAX_ITERATIONS}[script]
        for _ in range(iterations):
            fx.add("verifier", reject(task, revision))
            code = next_code()
            fx.add("finalizer", fenced(code, tag))
        fx.add("verifier", reject(task, revision) if script == EXHAUST else "ACCEPT")
        fx.accepted.append(script != EXHAUST)
        fx.finalizer_iterations.append(iterations)
        fx.final_code = code
    return fx


def reject(task: int, revision: int) -> str:
    return f"REJECT:\n- Task {task} is incomplete in revision {revision}."


def baseline_script(code: str, tag: str) -> FixtureScript:
    fx = FixtureScript(final_code=code)
    fx.add("baseline", fenced(code, tag))
    return fx


# --- workloads -----------------------------------------------------------

@dataclass
class ExpectedRun:
    """One per-file run an invocation must produce."""

    path: str  # relative to the project root, as the transcript header records it
    method: str
    repetition: int
    final_code: str
    calls: int
    unverified: bool = False
    truncated: bool = False
    accepted: tuple[bool, ...] = ()
    finalizer_iterations: tuple[int, ...] = ()
    # evaluate-report only: findings the scored record must show
    fatal: int = 0
    annotated: int = 0
    marks: tuple[bool, bool, bool] = (False, False, False)


@dataclass
class Unit:
    """Inputs of one invocation and the runs it must produce."""

    name: str
    project: Path
    requirements: Path
    fixtures: dict[str, Path]  # method -> fixture dir
    runs: list[ExpectedRun]
    extra: dict = field(default_factory=dict)


def small_batch(root: Path, seed: int) -> list[Unit]:
    rng = random.Random(f"small-batch/{seed}")
    units = []
    for a, controllers in enumerate(SMALL_AREAS):
        area = root / f"area{a:02d}"
        names = rng.sample(_NOUNS, controllers)
        actions = rng.sample(_ACTIONS, controllers)
        # One LOC per view name, from a fixed list: every controller's
        # index.ctp has the same size, so the LOC mix is the same whether
        # or not the program keeps one transcript per view name.
        low, high = SMALL_LOC
        locs = [low + (i * 7) % (high - low + 1) for i in range(len(CRUD_VIEWS) + controllers)]
        crud_locs, action_locs = locs[:len(CRUD_VIEWS)], locs[len(CRUD_VIEWS):]
        rng.shuffle(crud_locs)
        rng.shuffle(action_locs)
        view_loc = dict(zip(CRUD_VIEWS, crud_locs)) | dict(zip(actions, action_locs))
        paths = []
        for name, action in zip(names, actions):
            for view in (*CRUD_VIEWS, action):
                paths.append(f"{_plural(name)}/{view}.ctp")
                _write(area / "project" / paths[-1], ctp_view(rng, view_loc[view]))
        update = pipeline_script((REJECT_ACCEPT, ACCEPT),
                                 lambda rev: ctp_view(rng, SMALL_REPLY_LOC, rev), "php")
        update.write(area / "fixtures-vapu")
        baseline = baseline_script(ctp_view(rng, SMALL_REPLY_LOC, "baseline"), "php")
        baseline.write(area / "fixtures-zsl")
        _write(area / "requirements.txt", REQUIREMENTS)
        runs = []
        for rel in sorted(paths):
            runs.append(update.expect(rel, "vapu"))
            runs.append(baseline.expect(rel, "zsl"))
        units.append(Unit(name=area.name, project=area / "project",
                          requirements=area / "requirements.txt",
                          fixtures={"vapu": area / "fixtures-vapu",
                                    "zsl": area / "fixtures-zsl"},
                          runs=runs))
    return units


def _unique_stems(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    stems = []
    while len(stems) < count:
        stem = f"{rng.choice(_NOUNS)}_{rng.choice(_ACTIONS)}_{rng.randrange(1000):03d}"
        if stem not in taken:
            taken.add(stem)
            stems.append(stem)
    return stems


def large_files(root: Path, seed: int) -> list[Unit]:
    rng = random.Random(f"large-files/{seed}")
    taken: set[str] = set()
    units = []
    order = list(range(len(LARGE_GROUPS)))
    rng.shuffle(order)
    for g in order:
        locs, scripts = LARGE_GROUPS[g]
        scripts = list(scripts)
        rng.shuffle(scripts)
        group = root / f"group{g:02d}"
        reply_loc = sum(locs) // len(locs)
        fx = pipeline_script(scripts, lambda rev: php_class(rng, reply_loc, rev), "php",
                             truncated_task=rng.randint(1, len(scripts)))
        fx.write(group / "fixtures-vapu")
        _write(group / "requirements.txt", REQUIREMENTS)
        runs = []
        for stem, loc in zip(_unique_stems(rng, len(locs), taken), locs):
            rel = f"app/Controller/{stem}.php"
            content = php_class(rng, loc)
            _write(group / "project" / rel, content)
            runs.append(fx.expect(rel, "vapu"))
        runs.sort(key=lambda r: r.path)
        units.append(Unit(name=group.name, project=group / "project",
                          requirements=group / "requirements.txt",
                          fixtures={"vapu": group / "fixtures-vapu"}, runs=runs))
    return units


def evaluate_report(root: Path, seed: int) -> list[Unit]:
    """Project trees and per-file fixtures; transcripts are made by set-up.

    Each file gets its own fixture dirs so a .py file can get an invalid
    output while its neighbours do not.  ``extra['files']`` lists, per
    file, the fixture dirs and the annotation facts set-up needs.
    """
    rng = random.Random(f"evaluate-report/{seed}")
    taken: set[str] = set()
    units = []
    for a, shapes in enumerate(EVAL_AREAS):
        area = root / f"area{a:02d}"
        _write(area / "requirements.txt", REQUIREMENTS)
        files, runs = [], []
        for stem, (suffix, loc, bad_vapu, bad_zsl) in zip(
                _unique_stems(rng, len(shapes), taken), shapes):
            tag = "python" if suffix == ".py" else "php"
            rel = f"lib/{stem}{suffix}"

            def code(rev: str, bad: bool = False, suffix=suffix, loc=loc) -> str:
                if suffix == ".py":
                    return py_module(rng, loc, rev, invalid=bad)
                return php_class(rng, loc, rev)

            content = code("")
            _write(area / "project" / rel, content)
            update = pipeline_script((REJECT_ACCEPT, ACCEPT),
                                     lambda rev, bad=bad_vapu: code(rev, bad), tag)
            baseline = baseline_script(code("baseline", bad_zsl), tag)
            fixtures = {"vapu": area / "fixtures" / stem / "vapu",
                        "zsl": area / "fixtures" / stem / "zsl"}
            update.write(fixtures["vapu"])
            baseline.write(fixtures["zsl"])
            files.append({
                "path": rel, "stem": stem, "fixtures": fixtures, "loc": loc,
                "cc_letter": rng.choice(CC_LETTERS), "task_count": 2,
            })
            for method, fx, bad in (("vapu", update, bad_vapu), ("zsl", baseline, bad_zsl)):
                for rep in range(1, EVAL_REPETITIONS + 1):
                    runs.append(fx.expect(rel, method, rep, fatal=int(bad and suffix == ".py")))
        units.append(Unit(name=area.name, project=area / "project",
                          requirements=area / "requirements.txt", fixtures={},
                          runs=runs, extra={"files": files, "root": area}))
    return units


def annotations_for(unit: Unit, run_ids: dict[tuple[str, str, int], str],
                    seed: int) -> dict:
    """Annotations covering every run id the set-up transcripts carry.

    Fills in, on each expected run, the check marks and the number of
    annotated findings the scored record must show.
    """
    rng = random.Random(f"annotations/{seed}/{unit.name}")
    data: dict[str, list] = {"findings": [], "requirements": [], "checkmarks": [], "files": []}
    marks: dict[tuple[str, str], tuple[bool, bool, bool]] = {}
    for f in unit.extra["files"]:
        data["files"].append({"file_id": f["stem"], "loc": f["loc"],
                              "cc_letter": f["cc_letter"], "task_count": f["task_count"]})
        for method in ("vapu", "zsl"):
            flags = (True, rng.random() < 0.7, rng.random() < 0.4)
            marks[(f["path"], method)] = flags
            data["checkmarks"].append({
                "file_id": f["stem"], "model": MODEL, "method": method,
                "updates_present_and_plausible": flags[0],
                "basic_functions_ok": flags[1],
                "all_requirements_correct": flags[2],
            })
    for run in unit.runs:
        run_id = run_ids[(run.path, run.method, run.repetition)]
        for requirement in REQUIREMENT_IDS:
            data["requirements"].append({"run_id": run_id, "requirement_id": requirement,
                                         "value": rng.randint(0, 1)})
        findings = rng.randint(0, 2)
        for k in range(findings):
            data["findings"].append({
                "run_id": run_id, "category": rng.choice(FINDING_CATEGORIES),
                "cause_key": f"observed mistake {k}",
                "description": f"Reviewer note {k} on {run.path}.",
            })
        run.annotated = findings
        run.marks = marks[(run.path, run.method)]
    return data
