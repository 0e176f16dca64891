"""Command-line surface.

Subcommands: eval, stats, check, lemma, measure, sweep, optimality, report.
Data goes to files or standard output; diagnostics go to standard error.
Exit codes: 0 success, 2 validation error, 3 numeric invariant violation,
4 numeric-domain or truncation failure.  Runs are serial: each radius
starts its scan from the previous one's window.  ``--jobs`` is accepted for
compatibility and changes nothing.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import experiments
from .bounds import bound_spec, h_by_id
from .config import parse_config, parse_psi
from .errors import (
    DomainError,
    InvariantViolation,
    TruncationError,
    ValidationError,
)
from .families import FamilySpec, make_family
from .measures import IntervalSet, final_density, h_log_measure, log_density
from .reports import defaults_block, render_csv
from .rosenbloom import stats_grid, verify_pointwise_lemma
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


def _grid_from_args(args, default_R: float) -> experiments.RadialGrid:
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
    raise ValidationError("a grid is required: --grid-geo or --grid-gap")


def _emit(args, header, rows) -> None:
    text = render_csv(header, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        _diag(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   help="exp|geometric|monomial|kovari|suleimanov|formula")
    p.add_argument("--rho", type=float, help="kovari exponent (> 0)")
    p.add_argument("--epsilon", type=float,
                   help="suleimanov exponent (in (0,1))")
    p.add_argument("--coeff", type=float, help="monomial coefficient")
    p.add_argument("--degree", type=float, help="monomial degree")
    p.add_argument("--radius", type=float, help="formula family radius")
    p.add_argument("--formula", help="log-coefficient formula in n")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-geo", help="start:end:count (radius grows)")
    p.add_argument("--grid-gap", help="r0:q:count (gap to R shrinks)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="CSV output path (default: stdout)")


def _cmd_eval(args) -> int:
    series = make_family(_family_from_args(args))
    grid = _grid_from_args(args, series.radius)
    evals = experiments.evaluate_grid(series, grid, args.tol, args.jobs)
    _emit(args, ["r", "log_mu", "nu", "log_M"],
          [(e.r, e.log_mu, e.nu, e.log_M) for e in evals])
    return 0


def _cmd_stats(args) -> int:
    series = make_family(_family_from_args(args))
    if args.x:
        xs = [float(p) for p in args.x.split(",")]
    else:
        grid = _grid_from_args(args, series.radius)
        xs = [math.log(r) for r in grid.points]
    rows = [(math.exp(x), st.g, st.g1, st.g2)
            for x, st in zip(xs, stats_grid(series, xs, args.tol))]
    _emit(args, ["r", "g", "g1", "g2"], rows)
    return 0


def _bound_from_args(args):
    return bound_spec(
        args.bound,
        delta=args.delta,
        n=args.n,
        C=args.C,
        h=h_by_id(args.h) if args.h else None,
        psi1=parse_psi(args.psi1) if args.psi1 else None,
        psi2=parse_psi(args.psi2) if args.psi2 else None,
    )


def _cmd_check(args) -> int:
    series = make_family(_family_from_args(args))
    grid = _grid_from_args(args, series.radius)
    bound = _bound_from_args(args)
    measure_h = [h_by_id(p.strip()) for p in args.measure_h.split(",")] \
        if args.measure_h else []
    report = experiments.violation_set(series, bound, grid,
                                       measure_h=measure_h,
                                       tol=args.tol, jobs=args.jobs)
    _emit(args, ["r", "log_M", "log_bound", "slack"],
          [(m.r, m.log_M, m.log_bound, m.slack) for m in report.margins])
    _diag(f"bound {report.bound}: {report.violation_count} violating points,"
          f" {len(report.E_est.intervals)} cells")
    for h_id, outcome in sorted(report.measure_by.items()):
        if outcome.divergent:
            _diag(f"measure[{h_id}] = DIVERGENT ({outcome.note})")
        else:
            _diag(f"measure[{h_id}] = {outcome.value:.12g}")
    for r, msg in report.undefined_points:
        _diag(f"undefined at r={r:.12g}: {msg}")
    return 0


def _cmd_lemma(args) -> int:
    series = make_family(_family_from_args(args))
    grid = _grid_from_args(args, series.radius)
    xs = [math.log(r) for r in grid.points]
    rows = verify_pointwise_lemma(series, xs, args.c, args.tol)
    _emit(args,
          ["x", "r", "g", "g1", "g2", "log_mu", "log_window", "count_bound",
           "margin_chebyshev", "margin_count", "c_constant", "holds"],
          [(p.x, math.exp(p.x), p.g, p.g1, p.g2, p.log_mu, p.log_window,
            p.count_bound, p.margin_chebyshev, p.margin_count, p.c_constant,
            p.holds) for p in rows])
    if args.psi and args.h and args.target:
        res = experiments.standard_lemma_set(
            series, parse_psi(args.psi), h_by_id(args.h), args.target, grid,
            args.tol, args.jobs)
        _diag(f"budgeted set measure = {res.measure.value:.12g}, "
              f"budget = {res.budget:.12g}")
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


def _cmd_sweep(args) -> int:
    series = make_family(_family_from_args(args))
    grid = _grid_from_args(args, series.radius)
    bound = _bound_from_args(args)
    res = experiments.constant_sweep(
        series, bound, grid, h_by_id(args.sweep_h), args.budget,
        args.tol, args.jobs)
    _emit(args, ["C", "measure"], [(C, m) for C, m, _ in res.trajectory])
    if res.c_star is None:
        _diag("C_star not found in sweep range (valid outcome)")
    else:
        _diag(f"C_star = {res.c_star:.12g}")
    return 0


def _cmd_optimality(args) -> int:
    series = make_family(_family_from_args(args))
    grid = _grid_from_args(args, series.radius)
    res = experiments.optimality_check(series, grid, args.tol, args.jobs)
    _emit(args, ["r", "log_ratio"], res.rows)
    _diag(f"C_low = {res.c_low:.12g} (refined {res.c_low_refined:.12g}, "
          f"rel change {res.rel_change:.4g}, argmin r={res.argmin_r:.12g})")
    if res.outside_model_families:
        _diag("flag: family is outside the extremal model families")
    return 0


def _cmd_report(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = parse_config(fh.read())
    paths = experiments.run_experiment(config, args.out_dir, jobs=args.jobs)
    _diag(f"wrote {paths['csv']} and {paths['summary']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wvlab",
        description="max-term vs max-modulus growth lab",
        epilog="defaults: " + "; ".join(defaults_block()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="CSV of (r, log_mu, nu, log_M)")
    _add_family_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="CSV of (r, g, g1, g2)")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--x", help="comma list of x = log r values")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("check", help="violation-set CSV for a bound")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--bound", required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--C", type=float)
    p.add_argument("--h", help="h weight for main/sk4 bounds")
    p.add_argument("--psi1", help="psi spec, e.g. pow:1 or exphalf")
    p.add_argument("--psi2")
    p.add_argument("--measure-h", help="comma list of h ids to measure under")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("lemma", help="pointwise chain CSV plus budgeted set")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--c", type=float, default=math.sqrt(3.0))
    p.add_argument("--psi", help="psi spec for the budgeted set")
    p.add_argument("--h", help="h weight for the budgeted set")
    p.add_argument("--target", choices=("g", "gprime"))
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("measure", help="measure/density of an interval set")
    p.add_argument("--set", required=True, help="interval-set text file")
    p.add_argument("--set-radius", type=float,
                   help="ambient R (default: inferred)")
    p.add_argument("--h", help="h weight id")
    p.add_argument("--log-density-at", type=float)
    p.add_argument("--final-density-at", type=float)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("sweep", help="constant sweep trajectory CSV")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--bound", required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--C", type=float)
    p.add_argument("--h")
    p.add_argument("--psi1")
    p.add_argument("--psi2")
    p.add_argument("--sweep-h", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimality", help="lower-bound constant summary")
    _add_family_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_optimality)

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
