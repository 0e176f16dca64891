"""CLI outputs pinned byte for byte.

The files under ``tests/data`` were written by the CLI before the horizon
scan became one warm-started window per radius.  Refactors of the numeric
core must reproduce them exactly.
"""

import os

import pytest

from wvlab.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
SULEIMANOV = ["--family", "suleimanov", "--epsilon", "0.5",
              "--grid-gap", "0.9:0.8:24"]


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
