"""The benchmark's seed-0 references: each workload of
``perfbench/workloads.py``, run in process, passes the checks that
``perfbench/run.py`` makes against ``perfbench/reference``."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_its_reference(name, tmp_path):
    run = workloads.Run(str(tmp_path))
    workloads.WORKLOADS[name](run, 0)
    failures = workloads.check_run(
        run, 0, os.path.join(PERFBENCH, "reference", name))
    assert run.steps
    assert failures == [[]] * len(run.steps), [
        (step.name, errors) for step, errors in zip(run.steps, failures)
        if errors]
