"""``wvlab <mode>`` and ``wvlab report`` run the same code for each mode.

Each case gives the CLI arguments and the equivalent config file; both
surfaces must write the same CSV bytes.
"""

import weakref

import pytest

from wvlab import series as series_mod
from wvlab.cli import main
from wvlab.families import FAMILY_PARAMS
from wvlab.series import HARD_CAP

CASES = {
    "eval": (
        ["--family", "kovari", "--rho", "1", "--grid-gap", "0.5:0.9:12"],
        "[family]\nid = kovari\nrho = 1\n\n"
        "[grid]\nscheme = gap\nr0 = 0.5\nq = 0.9\ncount = 12\n",
    ),
    # exp(log r) != r at 29 of these 50 radii
    "stats": (
        ["--family", "exp", "--grid-geo", "2:100:50"],
        "[family]\nid = exp\n\n"
        "[grid]\nscheme = geo\nstart = 2\nend = 100\ncount = 50\n",
    ),
    "check": (
        ["--family", "geometric", "--grid-gap", "0.1:0.7:12",
         "--bound", "kov_n", "--n", "3", "--delta", "0.5",
         "--measure-h", "disk,disklog"],
        "[family]\nid = geometric\n\n"
        "[grid]\nscheme = gap\nr0 = 0.1\nq = 0.7\ncount = 12\n\n"
        "[bound]\nid = kov_n\nn = 3\ndelta = 0.5\n\n"
        "[measure]\nh = disk, disklog\n",
    ),
    "lemma": (
        ["--family", "exp", "--grid-geo", "2:50:20", "--psi", "pow:1",
         "--h", "unit", "--target", "gprime"],
        "[family]\nid = exp\n\n"
        "[grid]\nscheme = geo\nstart = 2\nend = 50\ncount = 20\n\n"
        "[lemma]\npsi = pow:1\nh = unit\ntarget = gprime\n",
    ),
    "sweep": (
        ["--family", "suleimanov", "--epsilon", "0.5",
         "--grid-gap", "0.9:0.8:16", "--bound", "logimp", "--n", "2",
         "--delta", "0.5", "--sweep-h", "disklog", "--budget", "0"],
        "[family]\nid = suleimanov\nepsilon = 0.5\n\n"
        "[grid]\nscheme = gap\nr0 = 0.9\nq = 0.8\ncount = 16\n\n"
        "[bound]\nid = logimp\nn = 2\ndelta = 0.5\n\n"
        "[sweep]\nbudget = 0\nh = disklog\n",
    ),
    "optimality": (
        ["--family", "geometric", "--grid-gap", "0.9:0.8:12"],
        "[family]\nid = geometric\n\n"
        "[grid]\nscheme = gap\nr0 = 0.9\nq = 0.8\ncount = 12\n",
    ),
}


def run_both(mode, argv, sections, tmp_path):
    """Exit codes and CSV paths of ``wvlab <mode>`` and of ``wvlab report``
    on a config of that mode with ``sections``."""
    tmp_path.mkdir(exist_ok=True)
    cli_csv = tmp_path / "cli.csv"
    cli_code = main([mode, *argv, "--out", str(cli_csv)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\nmode = {mode}\nlabel = run\n\n{sections}",
                   encoding="utf-8")
    report_code = main(["report", "--config", str(cfg), "--out-dir",
                        str(tmp_path)])
    return cli_code, cli_csv, report_code, tmp_path / "run.csv"


@pytest.fixture
def scan_windows(monkeypatch):
    """A weak reference to each ``series._scan`` term buffer, in call order.

    A walk makes one term buffer for all its radii, and every scan of the
    walk writes into it.  So when a scan ends, every earlier buffer but the
    one it filled must be gone: a walk that made a buffer per radius, or a
    window that outlived its walk, would hold two.
    """
    windows = []
    scan = series_mod._scan

    def counted(series, x, tol, start, terms, buf):
        found = scan(series, x, tol, start, terms, buf)
        current = buf
        assert all(w() is None or w() is current for w in windows), \
            "a window outlived its point"
        windows.append(weakref.ref(current))
        return found

    monkeypatch.setattr(series_mod, "_scan", counted)
    return windows


def grid_points(mode, argv):
    """Distinct radii a mode evaluates: its grid, or for optimality the grid
    refined x2, which holds the base radii."""
    flag = next(a for a in argv if a.startswith("--grid-"))
    count = int(argv[argv.index(flag) + 1].split(":")[2])
    return 2 * count - 1 if mode == "optimality" else count


@pytest.mark.parametrize("mode", sorted(CASES))
def test_report_and_cli_write_the_same_csv(mode, tmp_path, capsys,
                                           scan_windows):
    argv, sections = CASES[mode]
    cli_code, cli_csv, report_code, report_csv = run_both(
        mode, argv, sections, tmp_path)
    assert (cli_code, report_code) == (0, 0)
    assert report_csv.read_bytes() == cli_csv.read_bytes()
    # one scan per radius on each surface (lemma's budgeted set included)
    assert len(scan_windows) == 2 * grid_points(mode, argv)
    if mode == "check":
        cli_err = capsys.readouterr().err.splitlines()
        summary = (tmp_path / "run.summary.txt").read_text(encoding="utf-8")
        measures = [line for line in summary.splitlines()
                    if line.startswith("measure[")]
        assert len(measures) == 2
        assert measures == [line for line in cli_err
                            if line.startswith("measure[")]


FORMULA_FAMILY = ["--family", "formula", "--formula=-n*log(2)", "--radius",
                  "2"]
FORMULA_SECTIONS = ("[family]\nid = formula\nformula = -n*log(2)\n"
                    "radius = 2\n\n"
                    "[grid]\nscheme = gap\nr0 = 0.5\nq = 0.8\ncount = 12\n")


@pytest.mark.parametrize("mode", ["eval", "stats"])
def test_cli_grid_radius_is_the_family_radius(mode, tmp_path):
    # On the command line the grid's R is the family's radius (2 here); a
    # config [grid] says so with radius = 2, and without it a gap grid
    # closes in on R = 1 instead.
    argv = [*FORMULA_FAMILY, "--grid-gap", "0.5:0.8:12"]
    cli_code, cli_csv, report_code, report_csv = run_both(
        mode, argv, FORMULA_SECTIONS + "radius = 2\n", tmp_path / "R2")
    assert (cli_code, report_code) == (0, 0)
    assert report_csv.read_bytes() == cli_csv.read_bytes()
    _, _, report_code, report_csv = run_both(mode, argv, FORMULA_SECTIONS,
                                             tmp_path / "R1")
    assert report_code == 0
    assert report_csv.read_bytes() != cli_csv.read_bytes()


# Per family parameter: a valid value and an out-of-range one.
PARAM_VALUES = {
    ("monomial", "coeff"): ("2", "0"),
    ("monomial", "degree"): ("3", "1.5"),
    ("kovari", "rho"): ("1", "-1"),
    ("suleimanov", "epsilon"): ("0.5", "1"),
    ("formula", "formula"): ("-n*log(2)", "n +"),
    ("formula", "radius"): ("2", "0"),
}
# Further out-of-range values: a degree at the term cap, and one whose
# coefficient array would not fit in memory.
MORE_BAD = {("monomial", "degree"): (str(HARD_CAP), "1e15")}
# A grid inside each family's disk: the CLI flag and the [grid] section.
GEO = (["--grid-geo", "2:10:3"],
       "scheme = geo\nstart = 2\nend = 10\ncount = 3\n")
GAP = (["--grid-gap", "0.5:0.5:3"],
       "scheme = gap\nr0 = 0.5\nq = 0.5\ncount = 3\n")
GRIDS = {"exp": GEO, "geometric": GAP, "monomial": GEO, "kovari": GAP,
         "suleimanov": GAP, "formula": (GAP[0], GAP[1] + "radius = 2\n")}


def family_inputs(fid, params):
    """CLI arguments and config sections of ``eval`` on ``fid``."""
    flags, grid = GRIDS[fid]
    argv = ["--family", fid, *(f"--{k}={v}" for k, v in params.items()),
            *flags]
    keys = "".join(f"{k} = {v}\n" for k, v in params.items())
    return argv, f"[family]\nid = {fid}\n{keys}\n[grid]\n{grid}"


def valid_params(fid):
    return {name: PARAM_VALUES[fid, name][0] for name in FAMILY_PARAMS[fid]}


def bad_param_cases():
    for fid, params in FAMILY_PARAMS.items():
        for name, (check, _) in params.items():
            yield fid, name, "abc"
            yield fid, name, PARAM_VALUES[fid, name][1]
            for value in MORE_BAD.get((fid, name), ()):
                yield fid, name, value
            try:
                check(None)
            except (TypeError, ValueError):  # required: missing is an error
                yield fid, name, None


@pytest.mark.parametrize("fid", sorted(FAMILY_PARAMS))
def test_valid_family_parameters_run_on_both_surfaces(fid, tmp_path):
    cli_code, cli_csv, report_code, report_csv = run_both(
        "eval", *family_inputs(fid, valid_params(fid)), tmp_path)
    assert (cli_code, report_code) == (0, 0)
    assert report_csv.read_bytes() == cli_csv.read_bytes()


@pytest.mark.parametrize("fid,name,value", list(bad_param_cases()))
def test_bad_family_parameter_exits_2_on_both_surfaces(fid, name, value,
                                                       tmp_path, capsys):
    params = valid_params(fid)
    if value is None:
        del params[name]
    else:
        params[name] = value
    cli_code, cli_csv, report_code, report_csv = run_both(
        "eval", *family_inputs(fid, params), tmp_path)
    err = capsys.readouterr().err.splitlines()
    assert (cli_code, report_code) == (2, 2)
    assert len(err) == 2 and all(name in line for line in err)
    assert err[0] == err[1]  # one validator, one message
    assert not cli_csv.exists() and not report_csv.exists()


# A gap grid from r = 0: the first point is the single-term window [a_0].
R0_FAMILIES = {"geometric": ([], ""),
               "suleimanov": (["--epsilon", "0.5"], "epsilon = 0.5\n")}


@pytest.mark.parametrize("mode,fid,code,expect", [
    ("eval", "geometric", 0, "0,0,0,0"),
    ("eval", "suleimanov", 0, "0,-inf,0,-inf"),
    ("stats", "geometric", 0, "0,0,0,0"),
    # F(0) = a_0 = 0 leaves the masses undefined
    ("stats", "suleimanov", 4, "F = 0 at x=-inf"),
    # the point mass at 0 has zero variance
    ("lemma", "geometric", 2, "zero variance at x=-inf"),
    ("lemma", "suleimanov", 4, "F = 0 at x=-inf"),
])
def test_grid_from_r0_on_both_surfaces(mode, fid, code, expect, tmp_path,
                                       capsys):
    # ``expect`` is the first CSV row, or the start of the error message
    flags, keys = R0_FAMILIES[fid]
    argv = ["--family", fid, *flags, "--grid-gap", "0:0.5:4"]
    sections = (f"[family]\nid = {fid}\n{keys}\n"
                "[grid]\nscheme = gap\nr0 = 0\nq = 0.5\ncount = 4\n")
    cli_code, cli_csv, report_code, report_csv = run_both(
        mode, argv, sections, tmp_path)
    err = capsys.readouterr().err.splitlines()
    assert (cli_code, report_code) == (code, code)
    if code == 0:
        assert report_csv.read_bytes() == cli_csv.read_bytes()
        assert cli_csv.read_text(encoding="utf-8").splitlines()[2] == expect
    else:
        kind = {2: "validation error", 4: "numeric failure"}[code]
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith(f"{kind}: {expect}")
        assert not cli_csv.exists() and not report_csv.exists()
