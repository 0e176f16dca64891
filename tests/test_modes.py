"""``wvlab <mode>`` and ``wvlab report`` run the same code for each mode.

Each case gives the CLI arguments and the equivalent config file; both
surfaces must write the same CSV bytes.
"""

import pytest

from wvlab.cli import main

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


@pytest.mark.parametrize("mode", sorted(CASES))
def test_report_and_cli_write_the_same_csv(mode, tmp_path, capsys):
    argv, sections = CASES[mode]
    cli_csv = tmp_path / "cli.csv"
    assert main([mode, *argv, "--out", str(cli_csv)]) == 0
    cli_err = capsys.readouterr().err.splitlines()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\nmode = {mode}\nlabel = run\n\n{sections}",
                   encoding="utf-8")
    assert main(["report", "--config", str(cfg), "--out-dir",
                 str(tmp_path)]) == 0
    assert (tmp_path / "run.csv").read_bytes() == cli_csv.read_bytes()
    if mode == "check":
        summary = (tmp_path / "run.summary.txt").read_text(encoding="utf-8")
        measures = [line for line in summary.splitlines()
                    if line.startswith("measure[")]
        assert len(measures) == 2
        assert measures == [line for line in cli_err
                            if line.startswith("measure[")]
