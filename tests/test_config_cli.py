import csv
import math
import os
import subprocess
import sys

import pytest

from wvlab import family, run_experiment, stats
from wvlab.cli import main
from wvlab.config import GRID_Q, parse_config, parse_psi
from wvlab.errors import ValidationError
from wvlab.experiments import SWEEP_C_MAX, SWEEP_C_MIN, SWEEP_STEP
from wvlab.measures import DEFAULT_MEASURE_TOL, DIVERGENCE_THRESHOLD
from wvlab.reports import CSV_VERSION_LINE, DEFAULTS, render_csv
from wvlab.series import DEFAULT_TOL, HARD_CAP, TAIL_RUN


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# --------------------------------------------------------------------------
# config parsing


BASE_CONFIG = """
[experiment]
mode = check
label = demo

[family]
id = suleimanov
epsilon = 0.5

[grid]
scheme = gap
r0 = 0.9
q = 0.9
count = 40

[bound]
id = logimp
n = 2
delta = 0.5
C = 1.0

[measure]
h = disklog, disk
"""


def test_parse_config_roundtrip():
    cfg = parse_config(BASE_CONFIG)
    assert cfg.mode == "check"
    assert cfg.family.family_id == "suleimanov"
    assert cfg.bound.bound_id == "logimp"
    assert tuple(h.h_id for h in cfg.measure_h) == ("disklog", "disk")
    assert cfg.grid.count == 40


def test_parse_config_diagnostics():
    with pytest.raises(ValidationError) as err:
        parse_config(BASE_CONFIG.replace("mode = check", "mode = dance"))
    assert "mode" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_config(BASE_CONFIG.replace("r0 = 0.9", "r0 = soon"))
    assert "[grid]" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_config(BASE_CONFIG + "\n[mystery]\nx = 1\n")
    assert "mystery" in str(err.value)
    with pytest.raises(ValidationError):
        parse_config(BASE_CONFIG.replace("[bound]", "[bound_zzz]"))
    with pytest.raises(ValidationError):  # a grid with no room is rejected
        parse_config(BASE_CONFIG.replace("count = 40", "count = 1"))


@pytest.mark.parametrize("lemma,missing", [
    ("psi = pow:1\nh = unit\n", "missing target"),
    ("target = g\n", "missing psi, h"),
])
def test_parse_config_rejects_partial_budgeted_set(lemma, missing):
    text = BASE_CONFIG.replace("mode = check", "mode = lemma")
    with pytest.raises(ValidationError) as err:
        parse_config(text + "\n[lemma]\n" + lemma)
    assert missing in str(err.value)
    # c alone asks for no budgeted set
    assert parse_config(text + "\n[lemma]\nc = 2\n").lemma_c == 2.0


def test_defaults_block_comes_from_the_constants():
    assert float(DEFAULTS["tol"]) == DEFAULT_TOL
    assert float(DEFAULTS["measure_tol"]) == DEFAULT_MEASURE_TOL
    assert float(DEFAULTS["grid_q"]) == GRID_Q
    no_q = BASE_CONFIG.replace("q = 0.9\n", "")
    assert parse_config(no_q).grid.q == GRID_Q
    lo, rest = DEFAULTS["sweep_range"].split("..")
    hi, step = rest.split(" step 10^(1/")
    assert (float(lo), float(hi)) == (SWEEP_C_MIN, SWEEP_C_MAX)
    assert 10.0 ** (1 / int(step.rstrip(")"))) == SWEEP_STEP
    assert float(DEFAULTS["divergence_threshold"]) == DIVERGENCE_THRESHOLD
    assert int(DEFAULTS["truncation_run"]) == TAIL_RUN
    assert int(DEFAULTS["truncation_cap"]) == HARD_CAP
    # the printed strings, byte for byte
    assert DEFAULTS == {
        "tol": "1e-09",
        "measure_tol": "1e-09",
        "grid_q": "0.9",
        "sweep_range": "1e-03..1e+09 step 10^(1/8)",
        "divergence_threshold": "1e+06",
        "truncation_run": "50",
        "truncation_cap": "100000000",
        "samples": "64",
    }


def test_parse_psi_specs():
    assert parse_psi("pow:0.5").psi_id == "pow"
    assert parse_psi("iter:3:0.5").n == 3
    assert parse_psi("exphalf").psi_id == "exphalf"
    with pytest.raises(ValidationError):
        parse_psi("pow")
    with pytest.raises(ValidationError):
        parse_psi("wild:1")


def test_run_experiment_deterministic(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    out_a = run_experiment(cfg, tmp_path / "a")
    out_b = run_experiment(cfg, tmp_path / "b")
    assert read(out_a["csv"]) == read(out_b["csv"])
    assert read(out_a["summary"]) == read(out_b["summary"])
    assert read(out_a["csv"]).startswith(CSV_VERSION_LINE + "\n")
    assert "empirical evidence" in read(out_a["summary"])


# --------------------------------------------------------------------------
# CLI


def test_cli_eval_exp_log_M_matches_r(tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = main(["eval", "--family", "exp", "--grid-geo", "2:1e4:200",
                 "--out", str(out)])
    assert code == 0
    lines = read(out).splitlines()
    assert lines[0] == CSV_VERSION_LINE
    assert lines[1] == "r,log_mu,nu,log_M"
    assert len(lines) == 202
    for row in lines[2:]:
        r, _, _, log_m = row.split(",")
        assert abs(float(log_m) - float(r)) <= 1e-9 * max(1.0, float(r))


def test_cli_eval_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["eval", "--family", "kovari", "--rho", "1",
            "--grid-gap", "0.5:0.9:40"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b), "--jobs", "4"]) == 0
    assert read(a) == read(b)


def test_cli_eval_keeps_cauchy_at_a_loose_tolerance(capsys):
    # The coefficients are 1 but for a bump of 1e20 near n = 300, which the
    # run rule at tol 1e-2 stops before; log_mu, nu and log_M come from
    # that one window, so Cauchy's mu(r) <= M(r) holds on every row.
    assert main(["eval", "--family", "formula",
                 "--formula=log(1+1e20*exp(-(n-300)**2/10))", "--radius",
                 "1", "--grid-gap", "0.9:0.5:2", "--tol", "1e-2"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
    assert len(rows) == 2
    for row in rows:
        assert float(row["log_M"]) >= float(row["log_mu"])


@pytest.mark.parametrize("mode", ["eval", "stats", "lemma"])
def test_cli_infinite_coefficient_exits_4(mode, capsys):
    # 1/(20-n) passes the formula's probe at n < 8 and is +inf at n = 20
    code = main([mode, "--family", "formula", "--formula=1/(20-n)",
                 "--radius", "1", "--grid-gap", "0.5:0.8:2"])
    assert code == 4
    assert "coefficient formula produced inf at n=20" in \
        capsys.readouterr().err


def test_cli_stats_geometric_x(capsys):
    # one value, and the README's list form: a list that starts with a
    # minus sign needs "=", or argparse takes it for an option
    for x_args, points in ((["--x", "-0.6931"], 1),
                           (["--x=-0.6931,-2,-0.1"], 3)):
        code = main(["stats", "--family", "geometric", *x_args])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == "r,g,g1,g2"
        assert len(rows) == 2 + points
        r, g, g1, g2 = (float(v) for v in rows[2].split(","))
        assert g1 == pytest.approx(1.0, abs=1e-3)
        assert g2 == pytest.approx(2.0, abs=1e-3)
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        assert "--x=-0.6931,-2,-0.1" in fh.read()


def test_cli_stats_decreasing_x_matches_cold_points(capsys):
    # Each x starts its scan from the previous x's window; going down the
    # radii must still give exactly the cold per-point statistics.
    xs = [-0.001, -0.01, -0.05, -0.3, -2.0]
    code = main(["stats", "--family", "suleimanov", "--epsilon", "0.5",
                 "--x=" + ",".join(repr(x) for x in xs)])
    assert code == 0
    series = family("suleimanov", epsilon=0.5)
    cold = []
    for x in xs:
        st = stats(series, x)
        cold.append((math.exp(x), st.g, st.g1, st.g2))
    assert capsys.readouterr().out == render_csv(["r", "g", "g1", "g2"],
                                                 cold)


def test_cli_measure_unit_interval(tmp_path, capsys):
    setfile = tmp_path / "E.txt"
    setfile.write_text("0.6321205588 0.8646647168\n", encoding="utf-8")
    code = main(["measure", "--set", str(setfile), "--h", "disk"])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(1.0, abs=1e-9)


def test_cli_measure_densities(tmp_path, capsys):
    setfile = tmp_path / "E.txt"
    setfile.write_text("0.95 0.975\n", encoding="utf-8")
    code = main(["measure", "--set", str(setfile),
                 "--final-density-at", "0.9"])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.25)


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_cli_measure_rejects_a_bad_tolerance(tol, tmp_path, capsys):
    setfile = tmp_path / "E.txt"
    setfile.write_text("0.5 0.9\n", encoding="utf-8")
    for query in (["--h", "disk"], ["--log-density-at", "0.95"]):
        code = main(["measure", "--set", str(setfile), *query, "--tol", tol])
        assert code == 2
        assert capsys.readouterr().err == (
            "validation error: tolerance must be finite and > 0, "
            f"got {float(tol)!r}\n")


def test_cli_lemma_runs(tmp_path):
    out = tmp_path / "lemma.csv"
    code = main(["lemma", "--family", "exp", "--grid-geo", "2:50:20",
                 "--c", "1.7320508075688772", "--out", str(out)])
    assert code == 0
    lines = read(out).splitlines()
    assert lines[1].startswith("x,r,g,g1,g2")
    assert all(row.endswith(",1") for row in lines[2:])  # holds everywhere


def test_cli_lemma_with_budgeted_set(tmp_path, capsys):
    out = tmp_path / "lemma.csv"
    code = main(["lemma", "--family", "exp", "--grid-geo", "2:50:20",
                 "--psi", "pow:1", "--h", "unit", "--target", "gprime",
                 "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "budget" in err


def test_cli_invariant_violation_maps_to_3(monkeypatch, tmp_path):
    from wvlab import InvariantViolation
    from wvlab import experiments as exp_mod

    def boom(*args, **kwargs):
        raise InvariantViolation("forced for the exit-code contract")

    # lemma mode builds its budgeted set from the chain rows' (g, g1, g2)
    monkeypatch.setattr(exp_mod, "_lemma_set", boom)
    code = main(["lemma", "--family", "exp", "--grid-geo", "2:50:10",
                 "--psi", "pow:1", "--h", "unit", "--target", "gprime",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3


@pytest.mark.parametrize("argv,needle", [
    (["lemma", "--family", "exp", "--grid-geo", "2:50:10", "--psi", "pow:1",
      "--h", "unit"], "missing target"),
    (["lemma", "--family", "exp", "--grid-geo", "2:50:10",
      "--target", "g"], "missing psi, h"),
    (["stats", "--family", "exp", "--x", "1,2", "--grid-gap", "0.5:0.9:5"],
     "not both"),
])
def test_cli_rejects_partly_given_inputs(argv, needle, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,needle", [
    # malformed numbers
    (["eval", "--family", "exp", "--grid-geo", "a:b:3"], "[grid] start"),
    (["eval", "--family", "exp", "--grid-geo", "2:10:3.5"], "[grid] count"),
    (["eval", "--family", "geometric", "--grid-gap", "0.5:0.5:x"],
     "[grid] count"),
    (["stats", "--family", "exp", "--x", "1,abc"], "--x"),
    # a gap grid on an infinite disk has no finite radii
    (["eval", "--family", "exp", "--grid-gap", "0.5:0.5:3"], "R=inf"),
    # tolerances that are not finite and > 0
    (["eval", "--family", "exp", "--grid-geo", "2:10:3", "--tol", "0"],
     "tolerance"),
    (["eval", "--family", "exp", "--grid-geo", "2:10:3", "--tol=-1"],
     "tolerance"),
    (["eval", "--family", "exp", "--grid-geo", "2:10:3", "--tol", "inf"],
     "tolerance"),
    (["lemma", "--family", "exp", "--grid-geo", "2:10:3", "--tol", "nan"],
     "tolerance"),
    # a tolerance whose moment scan tolerance tol*1e-6 underflows to 0
    (["stats", "--family", "exp", "--grid-geo", "2:10:3", "--tol",
      "1e-320"], "got 1e-320"),
    # bound and psi parameters that are not finite
    (["check", "--family", "exp", "--grid-geo", "2:10:3", "--bound", "wv",
      "--delta", "inf"], "delta must be finite"),
    (["check", "--family", "exp", "--grid-geo", "2:10:3", "--bound", "wv",
      "--delta", "0.5", "--C", "inf"], "C must be finite"),
    (["check", "--family", "exp", "--grid-geo", "2:10:3", "--bound", "main",
      "--h", "unit", "--psi1", "pow:inf", "--psi2", "pow:1"],
     "delta must be finite"),
    (["lemma", "--family", "exp", "--grid-geo", "2:10:3", "--psi",
      "logpow:inf", "--h", "unit", "--target", "g"], "delta must be finite"),
    (["sweep", "--family", "exp", "--grid-geo", "2:10:3", "--bound", "wv",
      "--delta", "0.5", "--sweep-h", "unit", "--budget", "nan"],
     "budget must be a number"),
    # the count bound floor(2c*sqrt(g2)) of an infinite c
    (["lemma", "--family", "exp", "--grid-geo", "2:10:3", "--c", "inf"],
     "c must be finite"),
    # the default threshold of iter:5 is an exp tower beyond float range
    (["lemma", "--family", "exp", "--grid-geo", "2:10:3", "--psi",
      "iter:5:0.5", "--h", "unit", "--target", "g"], "float range"),
    # an h weight for a bound that takes none
    (["check", "--family", "exp", "--grid-geo", "2:10:3", "--bound", "wv",
      "--delta", "0.5", "--h", "disk"], "takes no h weight"),
    # tolerances above the tail run of 50: no horizon would ever be accepted
    (["eval", "--family", "kovari", "--rho", "1", "--grid-gap", "0.5:0.5:2",
      "--tol", "100"], "tolerance must be at most 50:"),
    (["stats", "--family", "geometric", "--grid-gap", "0.5:0.5:2", "--tol",
      "1e300"], "tolerance must be at most 50:"),
])
def test_cli_malformed_input_exits_2(argv, needle, tmp_path, capsys,
                                     monkeypatch):
    from wvlab import series as series_mod

    # An unchecked tolerance of inf scans up to HARD_CAP terms; keep the
    # cap small so that a regression fails fast instead of allocating.
    monkeypatch.setattr(series_mod, "HARD_CAP", 1 << 16)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and needle in err
    assert not out.exists()


X_PAST_FLOAT = ("validation error: x = {} is past log of the largest float, "
                "709.782713: r = exp(x) overflows\n")


@pytest.mark.parametrize("argv,code,err", [
    # the window width 2c*sqrt(g2) past the float range: at the count
    # bound, and (at a larger g2) at the window's own edges
    (["lemma", "--family", "exp", "--grid-geo", "2:5:3", "--c", "1e308"], 4,
     "numeric failure: window width 2c*sqrt(g2) overflows the float range "
     "at x=0.693147: c=1e+308, g2=2\n"),
    (["lemma", "--family", "geometric", "--grid-geo", "0.9999:0.99995:2",
      "--c", "1e306"], 4,
     "numeric failure: window width 2c*sqrt(g2) overflows the float range "
     "at x=-0.000100005: c=1e+306, g2=9.999e+07\n"),
    # r = exp(x) past the float range, on any family, before any scan
    (["stats", "--family", "geometric", "--x=710"], 2,
     X_PAST_FLOAT.format(710.0)),
    (["stats", "--family", "exp", "--x=710"], 2, X_PAST_FLOAT.format(710.0)),
    (["stats", "--family", "monomial", "--coeff", "1", "--degree", "3",
      "--x=-1,800"], 2, X_PAST_FLOAT.format(800.0)),
    # n*x past the float range is -inf, the term that vanishes
    (["stats", "--family", "geometric", "--x=-1e308,-1"], 0, ""),
    # a degree whose scan of k + 52 terms would pass the cap
    (["eval", "--family", "monomial", "--coeff", "1", "--degree", "99999990",
      "--grid-geo", "0.5:0.9:2"], 2,
     "validation error: family parameter 'degree' must be an integer degree "
     "0 <= k <= 99999948; got '99999990'\n"),
], ids=["c_1e308", "c_1e306_wide", "x710_geometric", "x710_exp",
        "x800_monomial", "x_minus_1e308", "degree_past_cap"])
def test_cli_extreme_finite_inputs_exit_with_their_codes(argv, code, err,
                                                         capsys):
    """Finite inputs at the float range's edge exit with a documented code
    and one line, no traceback and no warning."""
    assert main(argv) == code
    out, got = capsys.readouterr()
    assert got == err
    if code == 0:
        assert len(out.splitlines()) == 4


def test_monomial_degree_bound_is_the_closed_forms():
    """The largest degree accepted is the largest the closed form covers."""
    top = HARD_CAP - TAIL_RUN - 2
    assert family("monomial", coeff=1, degree=top).monomial_degree == top
    with pytest.raises(ValidationError, match=f"0 <= k <= {top}"):
        family("monomial", coeff=1, degree=top + 1)


def test_lemma_exphalf_threshold_beyond_float_range(capsys):
    # g = log M reaches 3000 on exp: psi(g) = exp(g/2) overflows a float
    # from g > 1419.6, while log(h(r) psi(g)) = g/2 does not.
    assert main(["lemma", "--family", "exp", "--grid-geo", "2:3000:20",
                 "--psi", "exphalf", "--h", "unit", "--target", "g"]) == 0
    out, err = capsys.readouterr()
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert max(float(row["g"]) for row in rows) > 1420
    assert err.startswith("budgeted set measure = 0, budget = 0.7357588")


@pytest.mark.parametrize("old,new,needle", [
    ("count = 40", "count = inf", "[grid] count"),
    ("count = 40", "count = nan", "[grid] count"),
    ("count = 40", "count = 1e400", "[grid] count"),
    ("label = demo", "label = demo\ntol = 0", "tolerance"),
    ("delta = 0.5", "delta = inf", "delta must be finite"),
    ("C = 1.0", "C = inf", "C must be finite"),
    ("C = 1.0", "C = 1.0\nh = disk", "takes no h weight"),
    ("mode = check\nlabel = demo",
     "mode = sweep\nlabel = demo\n[sweep]\nbudget = nan\nh = disk",
     "budget must be a number"),
    ("mode = check\nlabel = demo", "mode = lemma\nlabel = demo\n[lemma]\n"
     "c = inf", "c must be finite"),
    ("mode = check\nlabel = demo", "mode = lemma\nlabel = demo\n[lemma]\n"
     "psi = pow:inf\nh = disk\ntarget = g", "delta must be finite"),
])
def test_report_malformed_input_exits_2(old, new, needle, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE_CONFIG.replace(old, new), encoding="utf-8")
    code = main(["report", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out")])
    assert code == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out" / "demo.csv").exists()


@pytest.mark.parametrize("surface", ["geo", "gap", "config"])
def test_grid_count_above_the_cap_exits_2(surface, tmp_path, capsys,
                                          monkeypatch):
    from wvlab import experiments

    # A small cap, so that a missing check runs a small grid and fails
    # instead of building a huge one.
    monkeypatch.setattr(experiments, "MAX_GRID_POINTS", 10)
    out = tmp_path / "x.csv"
    if surface == "config":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG.replace("count = 40", "count = 11"),
                       encoding="utf-8")
        out = tmp_path / "out" / "demo.csv"
        argv = ["report", "--config", str(cfg), "--out-dir", str(out.parent)]
    else:
        grid = {"geo": ["--family", "exp", "--grid-geo", "2:10:11"],
                "gap": ["--family", "geometric", "--grid-gap", "0.5:0.5:11"]}
        argv = ["eval", *grid[surface], "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "count <= 10, got 11" in err
    assert not out.exists()


def test_python_dash_m_runs_the_cli(src_env):
    for module in ("wvlab", "wvlab.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "eval", "--family", "exp",
             "--grid-geo", "2:4:3"],
            capture_output=True, text=True, env=src_env, timeout=120)
        assert proc.returncode == 0, (module, proc.stderr)
        assert proc.stdout.splitlines()[:2] == [CSV_VERSION_LINE,
                                                "r,log_mu,nu,log_M"]


IMPORT_GUARD = """
import sys
from wvlab import cli, family
cli.build_parser()
assert "scipy.special" not in sys.modules
out = sys.argv[1]
for argv in (
    ["eval", "--family", "kovari", "--rho", "0.5", "--grid-gap", "0.9:0.8:4"],
    ["stats", "--family", "suleimanov", "--epsilon", "0.5",
     "--grid-gap", "0.9:0.8:4"],
    ["optimality", "--family", "kovari", "--rho", "1",
     "--grid-gap", "0.9:0.8:4"],
):
    assert cli.main([*argv, "--out", out]) == 0, argv
    assert "scipy.special" not in sys.modules, argv
family("exp")
assert "scipy.special" in sys.modules
"""


def test_only_the_exp_family_loads_scipy_special(tmp_path, src_env):
    """``import wvlab`` and runs that build no ``exp`` family leave
    ``scipy.special``, the slowest import of all, unloaded."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_check_and_sweep(tmp_path):
    code = main(["check", "--family", "geometric", "--grid-gap",
                 "0.7:0.9:30", "--bound", "kov", "--delta", "0.5",
                 "--measure-h", "disk", "--out", str(tmp_path / "c.csv")])
    assert code == 0
    code = main(["sweep", "--family", "exp", "--grid-geo", "2:100:25",
                 "--bound", "wv", "--delta", "0.5", "--sweep-h", "unit",
                 "--budget", "1.0", "--out", str(tmp_path / "s.csv")])
    assert code == 0


def test_cli_sweep_with_the_bound_undefined_everywhere_exits_4(tmp_path,
                                                               capsys):
    # kov_n at n = 3 needs log_3 of the max term, undefined on this whole
    # grid: no C is tested, so no C_star may be reported
    out = tmp_path / "s.csv"
    code = main(["sweep", "--family", "geometric", "--grid-gap",
                 "0.1:0.7:6", "--bound", "kov_n", "--n", "3", "--delta",
                 "0.5", "--sweep-h", "disk", "--budget", "0",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    assert "numeric failure: bound kov_n undefined on the whole grid" in err
    assert "C_star" not in err
    assert not out.exists()


@pytest.mark.parametrize("surface", ["cli", "config"])
def test_check_with_the_bound_undefined_everywhere_exits_4(surface, tmp_path,
                                                           capsys):
    # the sweep's grid and bound: a check there tests no point, so it may
    # report no violation count, measure or CSV
    if surface == "config":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\nmode = check\nlabel = demo\n\n"
            "[family]\nid = geometric\n\n"
            "[grid]\nscheme = gap\nr0 = 0.1\nq = 0.7\ncount = 6\n\n"
            "[bound]\nid = kov_n\nn = 3\ndelta = 0.5\n\n"
            "[measure]\nh = disk\n", encoding="utf-8")
        out = tmp_path / "out" / "demo.csv"
        argv = ["report", "--config", str(cfg), "--out-dir", str(out.parent)]
    else:
        out = tmp_path / "c.csv"
        argv = ["check", "--family", "geometric", "--grid-gap", "0.1:0.7:6",
                "--bound", "kov_n", "--n", "3", "--delta", "0.5",
                "--measure-h", "disk", "--out", str(out)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(
        "numeric failure: bound kov_n undefined on the whole grid")
    assert "violating" not in err and "measure[" not in err
    assert not out.exists()


def test_cli_optimality(tmp_path):
    code = main(["optimality", "--family", "kovari", "--rho", "1",
                 "--grid-gap", "0.9:0.85:18", "--out",
                 str(tmp_path / "o.csv")])
    assert code == 0


def test_cli_report_subcommand(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE_CONFIG, encoding="utf-8")
    code = main(["report", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out")])
    assert code == 0
    assert os.path.exists(tmp_path / "out" / "demo.csv")
    assert os.path.exists(tmp_path / "out" / "demo.summary.txt")


def test_cli_exit_codes(tmp_path):
    # validation error: bad family
    assert main(["eval", "--family", "exp", "--grid-geo", "bad"]) == 2
    # validation error: unknown family parameter
    assert main(["eval", "--family", "kovari", "--rho", "-1",
                 "--grid-gap", "0.5:0.9:10"]) == 2
    # argparse's own failure also maps to 2
    assert main(["no-such-command"]) == 2
    # numeric domain failure: stats beyond the convergence boundary
    assert main(["stats", "--family", "geometric", "--x", "0.5"]) == 4
    # missing file
    assert main(["measure", "--set", str(tmp_path / "nope.txt"),
                 "--h", "disk"]) == 2


def test_cli_17_digit_output(tmp_path):
    # 17 significant digits: every float field round-trips exactly
    out = tmp_path / "e.csv"
    main(["eval", "--family", "geometric", "--grid-gap", "0.5:0.9:5",
          "--out", str(out)])
    rows = read(out).splitlines()[2:]
    long_fields = 0
    for row in rows:
        for fld in row.split(","):
            assert format(float(fld), ".17g") == fld or "." not in fld
            digits = fld.replace(".", "").replace("-", "").lstrip("0")
            long_fields += len(digits) >= 15
    assert long_fields >= len(rows)  # log_M values carry full precision
