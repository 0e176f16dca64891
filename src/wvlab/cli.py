"""Command-line surface.

Subcommands: eval, stats, check, lemma, measure, sweep, optimality, report.
A grid mode writes its flags as the config sections a file would hold (a
flag with ``dest="section.key"`` is that key) and runs what ``wvlab report``
runs: ``config.config_from_sections``, then the ``experiments.MODE_TABLE``
entry.  Data goes to files or standard output; diagnostics go to standard
error.  Exit codes: 0 success, 2 validation error, 3 numeric invariant
violation, 4 numeric-domain or truncation failure.  Runs are serial;
``--jobs`` is accepted for compatibility and never read.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .bounds import h_by_id
from .config import config_from_sections, parse_config, parse_float
from .errors import (
    DomainError,
    InvariantViolation,
    TruncationError,
    ValidationError,
)
from .families import FAMILY_IDS, FAMILY_PARAMS, FamilySpec, make_family
from .measures import IntervalSet, final_density, h_log_measure, log_density
from .reports import defaults_block, render_csv, write_csv
from .series import DEFAULT_TOL

# ``--grid-<scheme>`` takes the values of these [grid] keys, colon-separated.
_GRID_FLAGS = {"geo": ("start", "end", "count"), "gap": ("r0", "q", "count")}


def _diag(*parts) -> None:
    print(*parts, file=sys.stderr)


def _add_mode_parser(sub, mode: str, help_text: str):
    """A grid mode's subcommand with the family, grid and common flags."""
    p = sub.add_parser(mode, help=help_text)
    p.add_argument("--family", dest="family.id", required=True,
                   help="|".join(FAMILY_IDS))
    for fid, params in FAMILY_PARAMS.items():
        for name, (_, desc) in params.items():
            p.add_argument(f"--{name}", dest=f"family.{name}",
                           help=f"{fid}: {desc}")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--grid-geo", help="start:end:count (radius grows)")
    grid.add_argument("--grid-gap", help="r0:q:count (gap to R shrinks)")
    p.add_argument("--tol", dest="experiment.tol",
                   help=f"default {DEFAULT_TOL:g}")
    p.add_argument("--jobs", type=int, default=1)  # accepted, never read
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_mode)
    return p


def _add_bound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", dest="bound.id", required=True)
    for key in ("delta", "n", "C"):
        p.add_argument(f"--{key}", dest=f"bound.{key}")
    p.add_argument("--h", dest="bound.h", help="h weight for main/sk4 bounds")
    p.add_argument("--psi1", dest="bound.psi1",
                   help="psi spec, e.g. pow:1 or exphalf")
    p.add_argument("--psi2", dest="bound.psi2")


def _sections_from_args(args) -> dict:
    """The mode's flags as the config sections ``wvlab report`` reads."""
    sections = {"experiment": {"mode": args.command, "label": args.command}}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            sections.setdefault(section, {})[key] = value
    for scheme, keys in _GRID_FLAGS.items():
        text = getattr(args, f"grid_{scheme}")
        if text:
            fields = text.split(":")
            if len(fields) != len(keys):
                raise ValidationError(
                    f"--grid-{scheme} wants {':'.join(keys)}")
            sections["grid"] = {"scheme": scheme, **dict(zip(keys, fields))}
    return sections


def _cmd_mode(args) -> int:
    sections = _sections_from_args(args)
    family = dict(sections["family"])
    series = make_family(FamilySpec(family.pop("id"), family))
    if "grid" in sections:  # the grid's R is the family's radius
        sections["grid"]["radius"] = series.radius
    x = None
    if getattr(args, "x", None):  # stats --x: log radii in place of a grid
        x = tuple(parse_float(v, "--x value") for v in args.x.split(","))
    config = config_from_sections(sections, x)
    header, rows, diag, _ = experiments.MODE_TABLE[config.mode](series, config)
    if args.out:
        write_csv(args.out, header, rows)
        _diag(f"wrote {args.out}")
    else:
        sys.stdout.write(render_csv(header, rows))
    for line in diag:
        _diag(line)
    return 0


def _cmd_measure(args) -> int:
    with open(args.set, "r", encoding="utf-8") as fh:
        text = fh.read()
    E = IntervalSet.from_text(text, radius=args.set_radius)
    printed = False
    if args.h:
        h = h_by_id(args.h)
        outcome = h_log_measure(E, h, tol=args.tol)
        if outcome.divergent:
            print(f"{args.h} DIVERGENT ({outcome.note})")
        else:
            print(format(outcome.value, ".17g"))
        printed = True
    if args.log_density_at is not None:
        print(format(log_density(E, args.log_density_at, args.tol), ".17g"))
        printed = True
    if args.final_density_at is not None:
        print(format(final_density(E, args.final_density_at), ".17g"))
        printed = True
    if not printed:
        raise ValidationError(
            "nothing to do: give --h, --log-density-at or --final-density-at"
        )
    return 0


def _cmd_report(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = parse_config(fh.read())
    paths = experiments.run_experiment(config, args.out_dir)
    _diag(f"wrote {paths['csv']} and {paths['summary']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wvlab",
        description="max-term vs max-modulus growth lab",
        epilog="defaults: " + "; ".join(defaults_block()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_mode_parser(sub, "eval", "CSV of (r, log_mu, nu, log_M)")

    p = _add_mode_parser(sub, "stats", "CSV of (r, g, g1, g2)")
    p.add_argument("--x", help="comma list of x = log r values; write "
                   "--x=-0.69,-2 when the list starts with a minus sign")

    p = _add_mode_parser(sub, "check", "violation-set CSV for a bound")
    _add_bound_flags(p)
    p.add_argument("--measure-h", dest="measure.h",
                   help="comma list of h ids to measure under")

    p = _add_mode_parser(sub, "lemma", "pointwise chain CSV plus budgeted set")
    p.add_argument("--c", dest="lemma.c", help="default sqrt(3)")
    p.add_argument("--psi", dest="lemma.psi",
                   help="psi spec for the budgeted set")
    p.add_argument("--h", dest="lemma.h", help="h weight for the budgeted set")
    p.add_argument("--target", dest="lemma.target", help="g or gprime")

    p = sub.add_parser("measure", help="measure/density of an interval set")
    p.add_argument("--set", required=True, help="interval-set text file")
    p.add_argument("--set-radius", type=float,
                   help="ambient R (default: inferred)")
    p.add_argument("--h", help="h weight id")
    p.add_argument("--log-density-at", type=float)
    p.add_argument("--final-density-at", type=float)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_measure)

    p = _add_mode_parser(sub, "sweep", "constant sweep trajectory CSV")
    _add_bound_flags(p)
    p.add_argument("--sweep-h", dest="sweep.h", required=True)
    p.add_argument("--budget", dest="sweep.budget", required=True)

    _add_mode_parser(sub, "optimality", "lower-bound constant summary")

    p = sub.add_parser("report", help="full experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse reports its own diagnostics
        return int(exc.code or 0)
    except ValidationError as exc:
        _diag(f"validation error: {exc}")
        return 2
    except InvariantViolation as exc:
        _diag(f"invariant violation: {exc}")
        return 3
    except (DomainError, TruncationError) as exc:
        _diag(f"numeric failure: {exc}")
        return 4
    except OSError as exc:
        _diag(f"i/o error: {exc}")
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
