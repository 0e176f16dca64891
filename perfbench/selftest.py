"""Self-test of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--workload pipeline]

1. Two traced runs of one workload at seed 0 must report identical counts,
   and neither may fail a step.
2. Corrupting one float and one integer of the reference outputs must make
   exactly the two affected steps fail, so ``fail_ratio`` is not zero.
3. In a directory that holds only ``BENCHMARK.json`` and ``perfbench``, the
   benchmark must exit with a non-zero code without printing a result.

Prints one PASS or FAIL line per check and exits 1 if any check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
# Counts that two traced runs of one workload and seed must repeat exactly.
COUNTS = ("series.terms_scanned", "series.calls_per_point",
          "series.nu_max", "series.horizon_max", "families.coeffs_max",
          "logdomain.terms", "bounds.calls", "measures.calls")


def bench(*args, cwd=None):
    proc = subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def report(ok: bool, what: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {what}: {detail}")
    return ok


def counts_repeat(workload: str) -> bool:
    runs = []
    for _ in range(2):
        code, res = bench("--workload", workload, "--seed", "0",
                          "--seconds", "1", "--trace", "1")
        if code != 0 or res is None:
            return report(False, "traced counts repeat", f"exit {code}")
        runs.append(res)
    a, b = ({k: r["metrics"][k]["value"] for k in COUNTS} for r in runs)
    clean = all(r["failed"] == 0 for r in runs)
    return report(a == b and clean, "traced counts repeat",
                  f"{workload}: {a}" if a == b else f"{a} != {b}")


# (file, column, change) of the kovari_general reference values corrupted:
# log_M of one row by a relative 1e-6, and nu of one row by one.
CORRUPTIONS = (
    ("kovari0.5.csv", 3, lambda v: repr(float(v) * (1 + 1e-6))),
    ("kovari2.csv", 2, lambda v: str(int(v) + 1)),
)


def corrupt(work: str) -> str:
    """Copy the reference outputs and apply CORRUPTIONS to data row 3."""
    ref = os.path.join(work, "reference")
    shutil.rmtree(ref, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "reference"), ref)
    for name, col, change in CORRUPTIONS:
        path = os.path.join(ref, "kovari_general", name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[5].split(",")
        cells[col] = change(cells[col])
        lines[5] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return ref


def corruption_fails(work: str) -> bool:
    code, res = bench("--workload", "kovari_general", "--seed", "0",
                      "--seconds", "1", "--trace", "0",
                      "--reference", corrupt(work))
    ok = (code == 0 and res is not None and not res["correct"]
          and res["failed"] == 2 and res["attempted"] == 2)
    detail = "no result" if res is None else \
        f"{res['failed']} of {res['attempted']} steps failed"
    return report(ok, "corrupted reference is caught", detail)


def bare_directory_fails(work: str) -> bool:
    bare = os.path.join(work, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "boundary",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare)
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    return report(ok, "bare directory exits non-zero",
                  f"exit {proc.returncode}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="pipeline")
    args = ap.parse_args()
    work = os.path.join(os.getcwd(), ".bench_work", "selftest")
    os.makedirs(work, exist_ok=True)
    try:
        results = [counts_repeat(args.workload), corruption_fails(work),
                   bare_directory_fails(work)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
