"""CLI outputs pinned byte for byte.

The ``.csv`` files under ``tests/data`` without a ``.stderr`` partner were
written by the CLI before the horizon scan became one warm-started window
per radius; the pairs of ``.csv`` (standard output) and ``.stderr`` files
were written before the CLI and ``wvlab report`` shared one mode table.
Refactors must reproduce them exactly.
"""

import os

import pytest

from wvlab.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
SULEIMANOV = ["--family", "suleimanov", "--epsilon", "0.5",
              "--grid-gap", "0.9:0.8:24"]
GEOMETRIC_KOV3 = ["--family", "geometric", "--grid-gap", "0.1:0.7:12",
                  "--bound", "kov_n", "--n", "3", "--delta", "0.5"]


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
])
def test_cli_reproduces_golden_stdout_and_stderr(name, argv, capsysbinary):
    assert main(argv) == 0
    out, err = capsysbinary.readouterr()
    assert out == _data(f"{name}.csv")
    assert err == _data(f"{name}.stderr")
