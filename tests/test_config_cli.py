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


def test_cli_stats_geometric_x(capsys):
    code = main(["stats", "--family", "geometric", "--x", "-0.6931"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == "r,g,g1,g2"
    r, g, g1, g2 = (float(v) for v in rows[2].split(","))
    assert g1 == pytest.approx(1.0, abs=1e-3)
    assert g2 == pytest.approx(2.0, abs=1e-3)


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

    monkeypatch.setattr(exp_mod, "standard_lemma_set", boom)
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


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "wvlab", "eval", "--family", "exp",
         "--grid-geo", "2:4:3"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == [CSV_VERSION_LINE,
                                            "r,log_mu,nu,log_M"]


def test_cli_check_and_sweep(tmp_path):
    code = main(["check", "--family", "geometric", "--grid-gap",
                 "0.7:0.9:30", "--bound", "kov", "--delta", "0.5",
                 "--measure-h", "disk", "--out", str(tmp_path / "c.csv")])
    assert code == 0
    code = main(["sweep", "--family", "exp", "--grid-geo", "2:100:25",
                 "--bound", "wv", "--delta", "0.5", "--sweep-h", "unit",
                 "--budget", "1.0", "--out", str(tmp_path / "s.csv")])
    assert code == 0


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
