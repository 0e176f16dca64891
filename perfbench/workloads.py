"""The benchmark's workloads: the CLI steps each one runs, and their checks.

Every step is an in-process ``wvlab.cli.main(argv)`` call with ``--jobs 1``
and ``--out`` into the run's work directory, except pipeline step 2, which
reads the fitted constant from the sweep CSV as a user would.  The program
only ever sees the generated argv.

The seed moves each grid's start radius up by ``SHIFT_SHARE * u`` of the
grid's first step, ``u`` uniform in [0, 1) from ``random.Random(seed)``;
seed 0 moves nothing and is the seed the reference outputs were recorded at.
The shift is kept small because the scan windows double: a larger shift
moves points across a window size and changes the work by up to 2x.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import traceback
from dataclasses import dataclass, field

SHIFT_SHARE = 0.02
COMMON = ["--tol", "1e-9", "--jobs", "1"]
SULEIMANOV = ["--family", "suleimanov", "--epsilon", "0.5"]
LOGIMP = ["--bound", "logimp", "--n", "2", "--delta", "0.5"]
INT_COLUMNS = ("nu", "holds")
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class GapGrid:
    """A ``--grid-gap r0:q:count`` grid on the unit disk."""

    r0: float
    q: float
    count: int

    @classmethod
    def span(cls, r0: float, r_end: float, count: int, seed: int):
        """Grid from r0 to r_end, its start moved up by the seed's shift."""
        q = ((1.0 - r_end) / (1.0 - r0)) ** (1.0 / (count - 1))
        u = 0.0 if seed == 0 else random.Random(seed).random()
        return cls(r0 + SHIFT_SHARE * u * (1.0 - r0) * (1.0 - q), q, count)

    def refined(self, factor: int) -> "GapGrid":
        return GapGrid(self.r0, self.q ** (1.0 / factor),
                       factor * (self.count - 1) + 1)

    def arg(self) -> list:
        return ["--grid-gap", f"{self.r0!r}:{self.q!r}:{self.count}"]


@dataclass
class Step:
    """One step: what it ran, its exit code, diagnostics and output files."""

    name: str
    kind: str
    code: int
    diag: list
    outputs: list = field(default_factory=list)
    error: str = ""


class Run:
    """Runs one workload's steps in a work directory and keeps their logs."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.steps = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, name: str, kind: str, argv: list, outputs: list) -> None:
        from wvlab import cli

        buf = io.StringIO()
        try:
            with contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            error = ""
        except Exception:  # a crash is a failed step, not a bench error
            code, error = -1, traceback.format_exc()
        diag = [line.replace(self.workdir, "<out>")
                for line in buf.getvalue().splitlines()]
        self.steps.append(Step(name, kind, code, diag, outputs, error))


def boundary(run: Run, seed: int) -> None:
    grid = GapGrid.span(0.9, 1.0 - 2e-4, 24, seed)
    for mode in ("eval", "stats"):
        out = f"{mode}.csv"
        run.cli(mode, mode, [mode, *SULEIMANOV, *grid.arg(), *COMMON,
                             "--out", run.path(out)], [out])


def optimality(run: Run, seed: int) -> None:
    grid = GapGrid.span(0.9, 0.999, 60, seed)
    for name, family in (("kovari1", ["--family", "kovari", "--rho", "1"]),
                         ("suleimanov", SULEIMANOV)):
        out = f"{name}.csv"
        run.cli(name, "optimality", ["optimality", *family, *grid.arg(),
                                     *COMMON, "--out", run.path(out)], [out])


def _read_c_star(path: str, budget: float):
    """First C of the sweep trajectory whose measure fits the budget."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    for c_text, measure in rows:
        if float(measure) <= budget:
            return c_text
    return None


def pipeline(run: Run, seed: int) -> None:
    grid = GapGrid.span(0.9, 0.999, 80, seed)
    run.cli("sweep", "sweep",
            ["sweep", *SULEIMANOV, *grid.arg(), *LOGIMP, "--sweep-h",
             "disklog", "--budget", "1", *COMMON,
             "--out", run.path("sweep.csv")], ["sweep.csv"])
    c_star = None
    if run.steps[-1].code == 0:
        c_star = _read_c_star(run.path("sweep.csv"), 1.0)
    run.steps.append(Step("read_c_star", "c_star", 0 if c_star else 1,
                          [f"C_star = {c_star}"]))
    if c_star is None:
        for name in ("check", "check_x4", "report"):
            run.steps.append(Step(name, "check", 1, [], [], "no C_star"))
        return
    check = [*SULEIMANOV, *LOGIMP, "--C", c_star, "--measure-h",
             "disklog,disk", *COMMON]
    run.cli("check", "check", ["check", *check, *grid.arg(),
                               "--out", run.path("check.csv")], ["check.csv"])
    run.cli("check_x4", "check", ["check", *check, *grid.refined(4).arg(),
                                  "--out", run.path("check_x4.csv")],
            ["check_x4.csv"])
    config = run.path("report.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("[experiment]\nmode = check\nlabel = report\ntol = 1e-9\n\n"
                 "[family]\nid = suleimanov\nepsilon = 0.5\n\n"
                 f"[grid]\nscheme = gap\nr0 = {grid.r0!r}\nq = {grid.q!r}\n"
                 f"count = {grid.count}\n\n"
                 f"[bound]\nid = logimp\nn = 2\ndelta = 0.5\nC = {c_star}\n\n"
                 "[measure]\nh = disklog, disk\n")
    run.cli("report", "report",
            ["report", "--config", config, "--out-dir", run.workdir,
             "--jobs", "1"], ["report.csv", "report.summary.txt"])


def kovari_general(run: Run, seed: int) -> None:
    for name, rho, r_end in (("kovari0.5", "0.5", 0.998),
                             ("kovari2", "2", 0.96)):
        grid = GapGrid.span(0.9, r_end, 30, seed)
        out = f"{name}.csv"
        run.cli(name, "eval", ["eval", "--family", "kovari", "--rho", rho,
                               *grid.arg(), *COMMON, "--out", run.path(out)],
                [out])


WORKLOADS = {
    "boundary": boundary,
    "optimality": optimality,
    "pipeline": pipeline,
    "kovari_general": kovari_general,
}


# ---------------------------------------------------------------------------
# Output checks


def read_csv(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != ["# wvlab-csv v1"]:
        raise ValueError(f"{os.path.basename(path)}: no schema line")
    return lines[1], lines[2:]


def _close(got: float, want: float, tol: float) -> bool:
    if got == want:
        return True
    return abs(got - want) <= tol


def _compare_csv(name: str, got, want) -> list:
    (g_head, g_rows), (w_head, w_rows) = got, want
    if g_head != w_head:
        return [f"{name}: header {g_head} != {w_head}"]
    if len(g_rows) != len(w_rows):
        return [f"{name}: {len(g_rows)} rows, reference has {len(w_rows)}"]
    errors = []
    for i, (g_row, w_row) in enumerate(zip(g_rows, w_rows)):
        for col, g, w in zip(w_head, g_row, w_row):
            if col in INT_COLUMNS:
                ok = g == w
            else:
                gf, wf = float(g), float(w)
                ok = _close(gf, wf, REL_TOL * max(abs(gf), abs(wf)))
            if not ok:
                errors.append(f"{name} row {i} {col}: {g} != reference {w}")
    return errors


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _printed_unit(token: str) -> float:
    """One unit in the last printed digit of a float token; 0 for integers."""
    mant, e_mark, exp = token.lower().partition("e")
    if not (e_mark or "." in mant):
        return 0.0
    decimals = len(mant.partition(".")[2])
    return 10.0 ** (int(exp or 0) - decimals)


def _compare_line(where: str, got: str, want: str) -> list:
    """Text must match exactly; numbers to REL_TOL (at least ABS_TOL), or
    to the last digit printed, whichever is looser; integers exactly."""
    g_parts, w_parts = _NUMBER.split(got), _NUMBER.split(want)
    g_nums, w_nums = _NUMBER.findall(got), _NUMBER.findall(want)
    if g_parts != w_parts or len(g_nums) != len(w_nums):
        return [f"{where}: {got!r} != reference {want!r}"]
    for g, w in zip(g_nums, w_nums):
        gf, wf = float(g), float(w)
        tol = max(REL_TOL * abs(wf), _printed_unit(w))
        if tol > 0:
            tol = max(tol, ABS_TOL)
        if not _close(gf, wf, tol):
            return [f"{where}: {got!r} != reference {want!r}"]
    return []


def _compare_lines(where: str, got: list, want: list) -> list:
    if len(got) != len(want):
        return [f"{where}: {len(got)} lines, reference has {len(want)}"]
    errors = []
    for i, (g, w) in enumerate(zip(got, want)):
        errors += _compare_line(f"{where} line {i}", g, w)
    return errors


def _invariants(step: Step, head: list, rows: list) -> list:
    name = step.name
    errors = []
    for i, row in enumerate(rows):
        for col, v in zip(head, row):
            if not math.isfinite(float(v)):
                errors.append(f"{name} row {i} {col} = {v} is not finite")
    if step.kind == "eval":
        col = {c: k for k, c in enumerate(head)}
        nus = [int(row[col["nu"]]) for row in rows]
        for i, row in enumerate(rows):
            if not float(row[col["log_mu"]]) <= float(row[col["log_M"]]):
                errors.append(f"{name} row {i}: log_mu > log_M")
        if any(b < a for a, b in zip(nus, nus[1:])):
            errors.append(f"{name}: nu decreases along the grid")
    return errors


def check_step(run: Run, step: Step, refdir: str | None) -> list:
    """Reasons the step failed; an empty list means it passed."""
    if step.code != 0:
        return [f"{step.name}: exit code {step.code} {step.error}".strip()]
    errors = []
    for out in step.outputs:
        path = run.path(out)
        try:
            if out.endswith(".csv"):
                table = read_csv(path)
                errors += _invariants(step, *table)
                if refdir is not None:
                    errors += _compare_csv(
                        out, table, read_csv(os.path.join(refdir, out)))
            elif refdir is not None:
                with open(path, encoding="utf-8") as fh:
                    got = fh.read().splitlines()
                with open(os.path.join(refdir, out), encoding="utf-8") as fh:
                    want = fh.read().splitlines()
                errors += _compare_lines(out, got, want)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"{step.name}: {out}: {exc}")
    if refdir is not None:
        errors += _compare_lines(f"{step.name} stderr", step.diag,
                                 reference_diag(refdir).get(step.name, []))
    if step.kind == "report":
        errors += _report_matches_check(run, step)
    return errors


def _report_matches_check(run: Run, step: Step) -> list:
    """The config-driven report of a check must repeat the CLI check."""
    errors = []
    try:
        with open(run.path("report.csv"), "rb") as fh:
            report_csv = fh.read()
        with open(run.path("check.csv"), "rb") as fh:
            check_csv = fh.read()
        with open(run.path("report.summary.txt"), encoding="utf-8") as fh:
            summary = fh.read().splitlines()
    except OSError as exc:
        return [f"{step.name}: {exc}"]
    if report_csv != check_csv:
        errors.append("report.csv differs from the CLI check's CSV")
    check = next(s for s in run.steps if s.name == "check")
    measures = [line for line in check.diag if line.startswith("measure[")]
    if not measures or not set(measures) <= set(summary):
        errors.append("report summary lacks the CLI check's measure lines")
    return errors


def reference_diag(refdir: str) -> dict:
    with open(os.path.join(refdir, "diag.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_run(run: Run, seed: int, reference: str | None) -> list:
    """Per-step failure reasons; reference outputs are compared at seed 0."""
    refdir = None
    if seed == 0 and reference is not None:
        refdir = reference
    return [check_step(run, step, refdir) for step in run.steps]
