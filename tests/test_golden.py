"""CLI outputs pinned byte for byte.

The ``.csv`` files under ``tests/data`` without a ``.stderr`` partner were
written by the CLI before the horizon scan became one warm-started window
per radius; the pairs of ``.csv`` (standard output) and ``.stderr`` files
were written before the CLI and ``wvlab report`` shared one mode table,
except ``optimality_formula``, written before ``optimality`` walked its
base and refined grids as one, and ``sweep_geometric_not_found.stderr``,
rewritten when ``sweep`` began naming its undefined points.  The pairs
under ``tests/data/bounds`` pin every bound id, every built-in psi in both
slots of ``main`` under every built-in h, ``sk4`` under every h, and the
budgeted lemma set for every psi; they were written before the psi, h and
bound vocabularies became one table each, except ``check_sk4_unit``:
``sk4`` under ``unit`` (``log h = 0``) is undefined at every radius, and
that pair was rewritten, empty standard output and exit code 4, when
``check`` began refusing a bound undefined on the whole grid, as ``sweep``
does.  So each vocabulary case names the exit code it expects.
Refactors must reproduce them exactly.

Eight files pin the moments, and they were rewritten when the moments
became one sweep of each window, merged per block
(``rosenbloom._sweep``): ``stats_suleimanov.csv``, ``lemma_exp.csv``,
``lemma_exp_budgeted.csv`` and the ``lemma_*.csv`` files under
``tests/data/bounds``.  Only ``g1``, ``g2`` and the lemma's
``c_constant`` moved, by at most 2.7e-14 relative; every other column
and every ``.stderr`` kept its bytes.

``optimality_kovari1.csv`` was rewritten when integer-rho ``kovari`` moved
from the alternating recurrence to the nonnegative one run in lockstep
blocks (``families._KovariIntSource``).  The ``log_ratio`` of 55 of its 60
rows moved, by at most 4.6e-12 relative; every ``r`` and the other 5 rows
kept their bytes.  Before it was rewritten, each row's ``log mu`` was held
to a 40-digit ``mpmath`` k-sum for ``log a_nu`` plus ``nu log r``: the new
values are within 1.4e-13 of it (the old ones within 4.4e-11), and no row
is farther from it than before.
"""

import os
import subprocess
import sys

import pytest

from wvlab.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
SULEIMANOV = ["--family", "suleimanov", "--epsilon", "0.5",
              "--grid-gap", "0.9:0.8:24"]
GEOMETRIC_KOV3 = ["--family", "geometric", "--grid-gap", "0.1:0.7:12",
                  "--bound", "kov_n", "--n", "3", "--delta", "0.5"]


EXP = ["--family", "exp", "--grid-geo", "2:200:24", "--measure-h", "unit"]
SUL = ["--family", "suleimanov", "--epsilon", "0.5", "--grid-gap",
       "0.5:0.8:24", "--measure-h", "disk,disklog"]
PSIS = {"pow": "pow:0.5", "logpow": "logpow:1", "iter": "iter:3:0.5",
        "exphalf": "exphalf", "square": "square"}


def _bound_cases():
    """(golden name, argv, exit code): each bound id, then main and sk4 per
    h."""
    cases = [(f"check_{bid}", ["check", *(EXP if bid.startswith("wv")
                                          else SUL), "--bound", bid, *args])
             for bid, args in [
                 ("wv", ["--delta", "0.5"]), ("wvb", ["--delta", "0.5"]),
                 ("wvc", ["--n", "3", "--delta", "0.5"]),
                 ("kov", ["--delta", "0.5"]),
                 ("kov_n", ["--n", "3", "--delta", "0.5"]),
                 ("sul", ["--delta", "0.5"]),
                 ("sul_n", ["--n", "3", "--delta", "0.5"]),
                 ("sk", ["--delta", "0.5"]),
                 ("sk_n", ["--n", "3", "--delta", "0.5"]),
                 ("logimp", ["--n", "3", "--delta", "0.5"])]]
    cases = [(name, argv + ["--C", "2"], 0) for name, argv in cases]
    # ``lower`` is the optimality mode's bound; check refuses it
    cases.append(("optimality_lower", ["optimality", *SUL[:6]], 0))
    for h, grid in (("unit", EXP), ("disk", SUL), ("disklog", SUL)):
        # sk4 needs log h > 0, so under unit it is undefined everywhere
        cases.append((f"check_sk4_{h}", [
            "check", *grid, "--bound", "sk4", "--h", h, "--n", "3",
            "--delta", "0.5", "--C", "2"], 4 if h == "unit" else 0))
        for pid, psi in PSIS.items():
            for slot, other in (("psi1", "psi2"), ("psi2", "psi1")):
                cases.append((f"check_main_{h}_{slot}_{pid}", [
                    "check", *grid, "--bound", "main", "--h", h,
                    f"--{slot}", psi, f"--{other}", "pow:1", "--C", "2"], 0))
    return cases


LEMMA_CASES = [
    ("lemma_pow", ["--family", "geometric", "--grid-gap", "0.1:0.8:24",
                   "--psi", "pow:0.5", "--h", "disk", "--target", "g"]),
    ("lemma_logpow", ["--family", "geometric", "--grid-gap", "0.95:0.8:12",
                      "--psi", "logpow:1", "--h", "disklog",
                      "--target", "gprime"]),
    ("lemma_iter", ["--family", "exp", "--grid-geo", "16:400:24", "--psi",
                    "iter:3:0.5", "--h", "unit", "--target", "gprime"]),
    ("lemma_exphalf", ["--family", "geometric", "--grid-gap", "0.1:0.8:24",
                       "--psi", "exphalf", "--h", "disk", "--target", "g"]),
    ("lemma_square", ["--family", "geometric", "--grid-gap", "0.1:0.8:24",
                      "--psi", "square", "--h", "disk", "--target", "g"]),
]
VOCABULARY_CASES = _bound_cases() + [(name, ["lemma", *argv], 0)
                                     for name, argv in LEMMA_CASES]


def _data(name):
    with open(os.path.join(DATA, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name,argv", [
    ("eval_suleimanov", ["eval", *SULEIMANOV]),
    ("stats_suleimanov", ["stats", *SULEIMANOV]),
    ("lemma_exp", ["lemma", "--family", "exp", "--grid-geo", "2:100:50"]),
    ("optimality_kovari1", ["optimality", "--family", "kovari", "--rho", "1",
                            "--grid-gap", "0.9:0.93:60"]),
])
def test_cli_reproduces_golden_bytes(name, argv, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    with open(os.path.join(DATA, f"{name}.csv"), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


@pytest.mark.parametrize("argv", [
    ["stats", *SULEIMANOV],
    ["lemma", "--family", "exp", "--grid-geo", "2:100:50"],
], ids=["stats_suleimanov", "lemma_exp"])
def test_moment_bytes_do_not_depend_on_blas_threads(argv, src_env):
    """The moment sums call no BLAS, so a multithreaded BLAS cannot move
    their bits: the golden runs write the same bytes on 1 and 2 threads."""
    outs = []
    for threads in ("1", "2"):
        src_env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-m", "wvlab", *argv],
                              capture_output=True, env=src_env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name,argv", [
    # undefined points, two measures
    ("check_geometric", ["check", *GEOMETRIC_KOV3,
                         "--measure-h", "disk,disklog"]),
    ("sweep_suleimanov", ["sweep", "--family", "suleimanov", "--epsilon",
                          "0.5", "--grid-gap", "0.9:0.8:16", "--bound",
                          "logimp", "--n", "2", "--delta", "0.5",
                          "--sweep-h", "disklog", "--budget", "0"]),
    # no C in the sweep range meets a negative budget
    ("sweep_geometric_not_found", ["sweep", *GEOMETRIC_KOV3, "--sweep-h",
                                   "disk", "--budget", "-1"]),
    # the outside-family flag
    ("optimality_geometric", ["optimality", "--family", "geometric",
                              "--grid-gap", "0.9:0.8:12"]),
    ("lemma_exp_budgeted", ["lemma", "--family", "exp", "--grid-geo",
                            "2:50:20", "--psi", "pow:1", "--h", "unit",
                            "--target", "gprime"]),
    # the refined minimum lies between base radii (rel change 0.002548)
    ("optimality_formula", ["optimality", "--family", "formula",
                            "--formula=log(2+(-1)**n)+sqrt(n)", "--radius",
                            "1", "--grid-gap", "0.6:0.8:25"]),
])
def test_cli_reproduces_golden_stdout_and_stderr(name, argv, capsysbinary):
    assert main(argv) == 0
    out, err = capsysbinary.readouterr()
    assert out == _data(f"{name}.csv")
    assert err == _data(f"{name}.stderr")


@pytest.mark.parametrize("name,argv,code", VOCABULARY_CASES,
                         ids=[name for name, _, _ in VOCABULARY_CASES])
def test_bound_vocabulary_reproduces_golden_bytes(name, argv, code,
                                                  capsysbinary):
    assert main(argv) == code
    out, err = capsysbinary.readouterr()
    assert out == _data(os.path.join("bounds", f"{name}.csv"))
    assert err == _data(os.path.join("bounds", f"{name}.stderr"))


ROOT = os.path.dirname(os.path.dirname(__file__))


@pytest.mark.parametrize("script,args,files", [
    ("bound_showdown.py", ["--out", "{dir}/showdown.csv"],
     ["showdown.csv"]),
    ("motivating_example.py", ["--out-dir", "{dir}"],
     ["motivating_example.csv", "motivating_example.summary.txt"]),
], ids=["bound_showdown", "motivating_example"])
def test_sample_outputs_are_what_the_scripts_write(script, args, files,
                                                    src_env, tmp_path):
    """The committed files under ``out/`` are the bytes the scripts write
    now, so a change that moves them must rewrite them."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script),
         *[a.format(dir=tmp_path) for a in args]],
        capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in files:
        with open(os.path.join(ROOT, "out", name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
