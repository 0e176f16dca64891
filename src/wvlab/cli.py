"""Command-line surface.

Subcommands: eval, stats, check, lemma, measure, sweep, optimality, report.
The six grid modes turn their flags into an ``ExperimentConfig`` and run
the same ``experiments.MODE_TABLE`` entry as ``report``, so ``wvlab <mode>``
and ``wvlab report`` write identical CSVs.  Data goes to files or standard
output; diagnostics go to standard error.  Exit codes: 0 success, 2
validation error, 3 numeric invariant violation, 4 numeric-domain or
truncation failure.  Runs are serial; ``--jobs`` is accepted for
compatibility and never read.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .bounds import h_by_id
from .config import ExperimentConfig, make_bound, parse_config, parse_psi
from .errors import (
    DomainError,
    InvariantViolation,
    TruncationError,
    ValidationError,
)
from .families import FamilySpec, make_family
from .measures import IntervalSet, final_density, h_log_measure, log_density
from .reports import defaults_block, render_csv
from .series import DEFAULT_TOL


def _diag(*parts) -> None:
    print(*parts, file=sys.stderr)


def _family_from_args(args) -> FamilySpec:
    params = {}
    for key in ("rho", "epsilon", "coeff", "degree", "radius"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    if getattr(args, "formula", None) is not None:
        params["formula"] = args.formula
    return FamilySpec(args.family, params)


def _grid_from_args(args, default_R: float) -> experiments.RadialGrid | None:
    if args.grid_geo and args.grid_gap:
        raise ValidationError("give either --grid-geo or --grid-gap, not both")
    if args.grid_geo:
        parts = args.grid_geo.split(":")
        if len(parts) != 3:
            raise ValidationError("--grid-geo wants start:end:count")
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
        return experiments.RadialGrid.geometric(start, end, count,
                                                R=default_R)
    if args.grid_gap:
        parts = args.grid_gap.split(":")
        if len(parts) != 3:
            raise ValidationError("--grid-gap wants r0:q:count")
        r0, q, count = float(parts[0]), float(parts[1]), int(parts[2])
        return experiments.RadialGrid.geometric_in_gap(r0, q, count,
                                                       R=default_R)
    if getattr(args, "x", None):  # stats --x needs no grid
        return None
    raise ValidationError("a grid is required: --grid-geo or --grid-gap")


def _add_mode_parser(sub, mode: str, help_text: str):
    """A grid mode's subcommand with the family, grid and common flags."""
    p = sub.add_parser(mode, help=help_text)
    p.add_argument("--family", required=True,
                   help="exp|geometric|monomial|kovari|suleimanov|formula")
    p.add_argument("--rho", type=float, help="kovari exponent (> 0)")
    p.add_argument("--epsilon", type=float,
                   help="suleimanov exponent (in (0,1))")
    p.add_argument("--coeff", type=float, help="monomial coefficient")
    p.add_argument("--degree", type=float, help="monomial degree")
    p.add_argument("--radius", type=float, help="formula family radius")
    p.add_argument("--formula", help="log-coefficient formula in n")
    p.add_argument("--grid-geo", help="start:end:count (radius grows)")
    p.add_argument("--grid-gap", help="r0:q:count (gap to R shrinks)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--jobs", type=int, default=1)  # accepted, never read
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_mode)
    return p


def _add_bound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--C", type=float)
    p.add_argument("--h", help="h weight for main/sk4 bounds")
    p.add_argument("--psi1", help="psi spec, e.g. pow:1 or exphalf")
    p.add_argument("--psi2")


def _config_from_args(args, family: FamilySpec,
                      radius: float) -> ExperimentConfig:
    """The mode's flags as the config that ``wvlab report`` would read."""
    mode = args.command
    fields = dict(mode=mode, label=mode, family=family,
                  grid=_grid_from_args(args, radius), tol=args.tol)
    if mode in ("check", "sweep"):
        fields["bound"] = make_bound(args.bound, args.delta, args.n, args.C,
                                     args.h, args.psi1, args.psi2)
    if mode == "check" and args.measure_h:
        fields["measure_h"] = tuple(h_by_id(p.strip())
                                    for p in args.measure_h.split(","))
    if mode == "stats" and args.x:
        fields["x"] = tuple(float(p) for p in args.x.split(","))
    if mode == "lemma":
        fields.update(lemma_c=args.c, lemma_target=args.target,
                      lemma_psi=parse_psi(args.psi) if args.psi else None,
                      lemma_h=h_by_id(args.h) if args.h else None)
    if mode == "sweep":
        fields.update(sweep_h=h_by_id(args.sweep_h),
                      sweep_budget=args.budget)
    return ExperimentConfig.given(**fields)


def _cmd_mode(args) -> int:
    family = _family_from_args(args)
    series = make_family(family)
    config = _config_from_args(args, family, series.radius)
    run_mode = experiments.MODE_TABLE[config.mode]
    header, rows, diag, _ = run_mode(series, config)
    text = render_csv(header, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        _diag(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
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
    p.add_argument("--x", help="comma list of x = log r values")

    p = _add_mode_parser(sub, "check", "violation-set CSV for a bound")
    _add_bound_flags(p)
    p.add_argument("--measure-h", help="comma list of h ids to measure under")

    p = _add_mode_parser(sub, "lemma", "pointwise chain CSV plus budgeted set")
    p.add_argument("--c", type=float, help="default sqrt(3)")
    p.add_argument("--psi", help="psi spec for the budgeted set")
    p.add_argument("--h", help="h weight for the budgeted set")
    p.add_argument("--target", choices=("g", "gprime"))

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
    p.add_argument("--sweep-h", required=True)
    p.add_argument("--budget", type=float, required=True)

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
