"""Benchmark runner for wvlab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: boundary, optimality, pipeline, kovari_general (see
workloads.py and README.md).  Every repetition runs in a fresh worker
process, one at a time, with numeric libraries held to one thread.

``--trace 0`` first starts ``SETUP_PROBES`` workers that only import and
build the parser, then repeats the workload until ``--seconds`` is less
than half a repetition away.  It reports the median ``wall_s``,
``peak_rss_mb`` and ``setup_s``.

``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer figures of the traced one (tracing.py), with the difference of
their wall times as ``trace.overhead_s``.  The traced worker runs under
``python -X importtime``, so each layer's self time includes its imports.
The spans go to ``.bench_out/trace-<workload>-seed<N>.jsonl``.

Every step's outputs are checked (workloads.check_step).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count steps, and ``metrics`` holds the figures.  Exit code 2
means the program is missing or could not be imported.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import import_self_times
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "series.self_s": "s", "series.peak_mb": "MB",
    "series.calls_per_point": "calls/point", "series.terms_scanned": "count",
    "series.nu_max": "index", "series.horizon_max": "count",
    "families.self_s": "s", "families.coeffs_max": "index",
    "logdomain.self_s": "s", "logdomain.terms": "count",
    "rosenbloom.self_s": "s", "bounds.self_s": "s", "bounds.calls": "count",
    "measures.self_s": "s", "measures.calls": "count",
    "experiments.self_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Runner:
    def __init__(self, workload: str, seed: int, reference: str,
                 started: float):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.started = started
        self.root = os.getcwd()
        self.work = os.path.join(self.root, ".bench_work")
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def spawn(self, *extra, flags=()) -> dict:
        """Run one worker to its end and return its JSON result.

        ``flags`` go to the interpreter; the worker's standard error is
        returned under ``"stderr"``.
        """
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        cmd = [sys.executable, *flags, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--reference", self.reference, *extra]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(t0)],
                                  env=self.env, cwd=self.root,
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("a repetition ran past the deadline") from None
        if proc.returncode == 3:
            raise BenchError(proc.stderr.strip())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        result["elapsed"] = time.monotonic() - t0
        result["stderr"] = proc.stderr
        return result

    def repetition(self, *extra, flags=()) -> dict:
        os.makedirs(self.work, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=self.work)
        try:
            return self.spawn("--workdir", workdir, *extra, flags=flags)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def count_steps(reps: list):
    attempted = failed = 0
    for rep in reps:
        for step in rep["steps"]:
            attempted += 1
            if step["errors"]:
                failed += 1
                for err in step["errors"][:5]:
                    print(f"FAIL {step['name']}: {err}", file=sys.stderr)
    return attempted, failed


def measure(runner: Runner, seconds: float) -> tuple:
    t0 = time.monotonic()
    setups = [runner.spawn("--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        reps.append(runner.repetition())
        mean = statistics.fmean(r["elapsed"] for r in reps)
        if time.monotonic() - t0 + mean / 2 > seconds:
            break
    setups += [r["setup_s"] for r in reps]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setups),
    }
    print(f"{runner.workload}: {len(reps)} repetitions, wall_s "
          f"{[round(r['wall_s'], 3) for r in reps]}, {len(setups)} set-ups",
          file=sys.stderr)
    return reps, metrics, END_TO_END


def trace(runner: Runner) -> tuple:
    plain = runner.repetition()
    out_dir = os.path.join(runner.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"trace-{runner.workload}-seed{runner.seed}.jsonl")
    traced = runner.repetition("--trace-out", path,
                               flags=("-X", "importtime"))
    metrics = dict(traced["layers"])
    for layer, seconds in import_self_times(traced["stderr"]).items():
        metrics[f"{layer}.self_s"] += seconds
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"spans written to {os.path.relpath(path, runner.root)}",
          file=sys.stderr)
    return [plain, traced], metrics, PER_LAYER


def main() -> int:
    started = time.monotonic()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running worker before the runner exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description="wvlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=os.path.join(HERE, "reference"),
                    help="reference outputs compared at seed 0")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "wvlab", "cli.py")):
        print("run from the root of a wvlab checkout: src/wvlab is missing",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed,
                    os.path.join(os.path.abspath(args.reference),
                                 args.workload),
                    started)
    try:
        if args.trace:
            reps, metrics, units = trace(runner)
        else:
            reps, metrics, units = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    attempted, failed = count_steps(reps)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
    print(f"{args.workload} fail_ratio = {failed / attempted!r} "
          f"ratio ({failed} of {attempted} steps)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
