"""The benchmark's workloads, run in process: at seed 0 each passes the
checks that ``perfbench/run.py`` makes against ``perfbench/reference``,
and at a nonzero seed, whose shifted grids no reference pins, the
invariants it checks at every seed."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
import tracing  # noqa: E402
import workloads  # noqa: E402

SHIFTED_SEED = 7


def assert_workload_passes(name, seed, tmp_path):
    """Run workload ``name`` at ``seed``: every step must pass
    ``workloads.check_run``, which compares the outputs with
    ``perfbench/reference`` at seed 0 and checks their invariants at every
    seed (finite values, ``log_mu <= log_M`` and ``nu`` non-decreasing in
    each eval CSV, the report CSV equal to the check's)."""
    run = workloads.Run(str(tmp_path))
    workloads.WORKLOADS[name](run, seed)
    failures = workloads.check_run(
        run, seed, os.path.join(PERFBENCH, "reference", name))
    assert run.steps
    assert failures == [[]] * len(run.steps), [
        (step.name, errors) for step, errors in zip(run.steps, failures)
        if errors]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_its_reference(name, tmp_path):
    assert_workload_passes(name, 0, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_keeps_its_invariants_at_a_nonzero_seed(name, tmp_path):
    assert_workload_passes(name, SHIFTED_SEED, tmp_path)


def test_tracer_installs_runs_and_uninstalls(capsys):
    """``tracing.Tracer.install`` looks up every ``LAYERS`` name and
    ``PowerSeries.log_coeffs`` by name, so a rename in wvlab breaks it; an
    ``eval`` runs under it, records spans, and ``uninstall`` puts every
    original back."""
    from wvlab import cli, series

    traced = {(mod, name): getattr(sys.modules[f"wvlab.{mod}"], name)
              for names in tracing.LAYERS.values() for mod, name in names}
    log_coeffs = series.PowerSeries.log_coeffs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert series.log_max_term is not traced["series", "log_max_term"]
        code = cli.main(["eval", "--family", "geometric", "--grid-gap",
                         "0.5:0.5:3"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert {"cli.main", "experiments.evaluate_grid"} <= {
        span[3] for span in tracer.spans}
    assert series.log_max_term is traced["series", "log_max_term"]
    assert series.PowerSeries.log_coeffs is log_coeffs
    for (mod, name), original in traced.items():
        assert getattr(sys.modules[f"wvlab.{mod}"], name) is original, name
