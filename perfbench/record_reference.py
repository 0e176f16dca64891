"""Record the seed-0 reference outputs that the benchmark compares against.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once at seed 0 and stores its CSV and summary outputs,
plus each step's standard-error lines as ``diag.json``, under
``perfbench/reference/<workload>/``.  Re-record only when a change to the
program is meant to change its outputs, and say so in the change.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import WORKLOADS, Run, check_run  # noqa: E402


def record(name: str) -> None:
    work = os.path.join(os.getcwd(), ".bench_work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=work)
    try:
        run = Run(workdir)
        WORKLOADS[name](run, 0)
        problems = [e for errs in check_run(run, 0, None) for e in errs]
        if problems:
            raise SystemExit(f"{name}: not recorded:\n" + "\n".join(problems))
        dest = os.path.join(HERE, "reference", name)
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        for step in run.steps:
            for out in step.outputs:
                shutil.copyfile(run.path(out), os.path.join(dest, out))
        with open(os.path.join(dest, "diag.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({s.name: s.diag for s in run.steps}, fh, indent=1)
            fh.write("\n")
        print(f"recorded {name} in {os.path.relpath(dest)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        record(name)
