"""End-to-end verification drivers.

These orchestrate the lower layers over radial grids: estimating violation
sets for catalog bounds, constructing budgeted exceptional sets with their
analytic tail budget, fitting constants by sweeping, and measuring the
lower-bound constant for the extremal families.

Violation sets are per-cell grid estimates (sampled at the left endpoint),
reported as estimates; grid-refinement stability is the quality control.

``MODE_TABLE`` maps each grid mode (eval, stats, check, lemma, sweep,
optimality) to the one function that computes its CSV, its CLI diagnostics
and its summary lines; ``wvlab <mode>`` and ``run_experiment`` (``wvlab
report``) both call it, so the two surfaces write identical CSVs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundSpec, HSpec, PsiSpec, bound_spec, eval_bound, \
    psi_log_of_linear, psi_tail
from .errors import DomainError, InvariantViolation, ValidationError
from .families import make_family
from .measures import DEFAULT_MEASURE_TOL, IntervalSet, MeasureOutcome, \
    h_log_measure
from .rosenbloom import stats_grid, verify_pointwise_lemma
from .series import DEFAULT_TOL, PowerSeries, _walk, log_radius

SWEEP_C_MIN = 1e-3
SWEEP_C_MAX = 1e9
SWEEP_STEPS_PER_DECADE = 8
SWEEP_STEP = 10.0 ** (1 / SWEEP_STEPS_PER_DECADE)
# Most points a grid may ask for; each point costs at least one scan, and
# the points are built as one tuple before any runs.
MAX_GRID_POINTS = 10**6


def _check_count(count: int) -> None:
    if not 2 <= count <= MAX_GRID_POINTS:
        raise ValidationError(
            f"need 2 <= count <= {MAX_GRID_POINTS}, got {count}")


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii below R.

    Schemes: ``geometric`` multiplies the radius (for infinite disks),
    ``geometric_in_gap`` shrinks the gap to R geometrically (finite disks),
    which is where the boundary asymptotics live.
    """

    R: float
    points: tuple
    scheme: str
    r0: float
    q: float
    count: int

    def __post_init__(self):
        pts = self.points
        if not all(map(math.isfinite, pts)):
            raise ValidationError(
                f"{self.scheme} grid with R={self.R:g} has non-finite radii")
        if len(pts) < 2:
            raise ValidationError("grid needs at least two points")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValidationError("grid must be strictly increasing")
        if pts[-1] >= self.R:
            raise ValidationError(
                f"grid must stay below R={self.R:g}, reaches {pts[-1]:g}"
            )

    @classmethod
    def geometric(cls, start: float, end: float, count: int,
                  R: float = math.inf) -> "RadialGrid":
        if not (0 < start < end):
            raise ValidationError("need 0 < start < end")
        _check_count(count)
        q = (end / start) ** (1.0 / (count - 1))
        pts = tuple(start * q ** k for k in range(count))
        return cls(R=R, points=pts, scheme="geometric", r0=start, q=q,
                   count=count)

    @classmethod
    def geometric_in_gap(cls, r0: float, q: float, count: int,
                         R: float = 1.0) -> "RadialGrid":
        if not (0 <= r0 < R):
            raise ValidationError("need 0 <= r0 < R")
        if not (0 < q < 1):
            raise ValidationError("need 0 < q < 1")
        _check_count(count)
        gap = R - r0
        pts = tuple(R - gap * q ** k for k in range(count))
        return cls(R=R, points=pts, scheme="geometric_in_gap", r0=r0, q=q,
                   count=count)

    @classmethod
    def gap_span(cls, r0: float, r_end: float, count: int,
                 R: float = 1.0) -> "RadialGrid":
        """Gap-geometric grid with both endpoints prescribed."""
        if not (0 <= r0 < r_end < R):
            raise ValidationError("need 0 <= r0 < r_end < R")
        _check_count(count)
        q = ((R - r_end) / (R - r0)) ** (1.0 / (count - 1))
        return cls.geometric_in_gap(r0, q, count, R=R)

    def refined(self, factor: int = 2) -> "RadialGrid":
        """Same endpoints, ``factor`` times the density.

        Nests the original bit for bit: point ``factor * k`` is
        ``self.points[k]``, so a walk of the refined grid evaluates every
        base radius exactly.  The points in between follow the scheme with
        ratio ``q ** (1 / factor)``.
        """
        if not isinstance(factor, int) or factor < 2:  # bools are < 2
            raise ValidationError(
                f"refinement factor must be an integer >= 2, got {factor!r}")
        q_new = self.q ** (1.0 / factor)
        count_new = factor * (self.count - 1) + 1
        gap = self.R - self.r0

        def point(k):
            if k % factor == 0:
                return self.points[k // factor]
            if self.scheme == "geometric":
                return self.r0 * q_new ** k
            return self.R - gap * q_new ** k

        pts = tuple(map(point, range(count_new)))
        return RadialGrid(R=self.R, points=pts, scheme=self.scheme,
                          r0=self.r0, q=q_new, count=count_new)


def _reject_monomial(series: PowerSeries, what: str) -> None:
    if series.monomial_degree is not None:
        raise ValidationError(
            f"{what} refuses monomials: max term equals the function and "
            "every bound holds trivially"
        )
    if series._known_finite_support:
        raise ValidationError(
            f"{what} needs an unbounded function; finite coefficient "
            "support stays bounded on every disk"
        )


@dataclass(frozen=True)
class PointEval:
    r: float
    log_mu: float
    nu: int
    log_M: float


def evaluate_grid(series: PowerSeries, grid: RadialGrid,
                  tol: float = DEFAULT_TOL) -> list:
    """Per-point max term and positive value, in grid order.

    One walk (``series._walk``) at ``tol``: one scan per radius, each
    starting from the previous radius's final window, and a row's
    ``log_mu``, ``nu`` and ``log_M`` come from that one window, so
    ``log_mu <= log_M``; a grid may start at ``r = 0``, where the single
    term ``a_0`` is both.
    """
    rows = _walk(series, map(log_radius, grid.points), tol,
                 lambda w: (w.log_mu, w.nu, w.log_F))
    return [PointEval(r, *row) for r, row in zip(grid.points, rows)]


def _log_bounds(series: PowerSeries, bound: BoundSpec, grid: RadialGrid,
                tol: float) -> tuple:
    """The grid's evaluations, the log bound at each point (None where the
    bound is undefined) and the undefined points with their reasons."""
    evals = evaluate_grid(series, grid, tol)
    log_bounds, undefined = [], []
    for ev in evals:
        try:
            log_bounds.append(eval_bound(bound, log_mu=ev.log_mu,
                                         log_M=ev.log_M, r=ev.r))
        except DomainError as exc:
            log_bounds.append(None)
            undefined.append((ev.r, str(exc)))
    return evals, log_bounds, undefined


def _defined_bounds(series: PowerSeries, bound: BoundSpec, grid: RadialGrid,
                    tol: float) -> tuple:
    """:func:`_log_bounds`, refusing a bound undefined at every point."""
    evals, log_bounds, undefined = _log_bounds(series, bound, grid, tol)
    if len(undefined) == len(evals):
        raise DomainError(
            f"bound {bound.bound_id} undefined on the whole grid "
            f"(at r={undefined[0][0]:.12g}: {undefined[0][1]}); "
            "start the grid at larger radii")
    return evals, log_bounds, undefined


@dataclass(frozen=True)
class PointMargin:
    r: float
    log_M: float
    log_bound: float
    slack: float  # log_bound - log_M; negative means violation


@dataclass(frozen=True)
class ViolationReport:
    """Grid estimate of where a bound fails, with its measures.

    ``E_est`` covers exactly the grid cells whose left sample violates; it is
    an estimate, not a certified set.
    """

    bound: BoundSpec
    E_est: IntervalSet
    measure_by: dict
    margins: list
    undefined_points: list

    @property
    def violation_count(self) -> int:
        return sum(1 for m in self.margins if m.slack < 0)


def _cells_from_mask(grid: RadialGrid, mask) -> IntervalSet:
    pts = grid.points
    pairs = [(pts[k], pts[k + 1])
             for k in range(len(pts) - 1) if mask[k]]
    return IntervalSet.from_pairs(pairs, grid.R)


def violation_set(
    series: PowerSeries,
    bound: BoundSpec,
    grid: RadialGrid,
    measure_h: list | None = None,
    tol: float = DEFAULT_TOL,
) -> ViolationReport:
    """Estimate the set where log M exceeds the bound, cell by cell.

    Grid points where the bound expression is undefined are excluded and
    reported, never silently dropped; a bound undefined at every grid point
    is a DomainError.
    """
    if bound.bound_id == "lower":
        raise ValidationError(
            "lower bounds go through optimality_check, not violation_set"
        )
    _reject_monomial(series, "violation_set")
    evals, log_bounds, undefined = _defined_bounds(series, bound, grid, tol)
    margins = [PointMargin(r=ev.r, log_M=ev.log_M, log_bound=b,
                           slack=b - ev.log_M)
               for ev, b in zip(evals, log_bounds) if b is not None]
    E = _cells_from_mask(grid, [b is not None and b - ev.log_M < 0
                                for ev, b in zip(evals[:-1], log_bounds)])
    measures = {}
    for h in (measure_h or []):
        measures[h.h_id] = h_log_measure(E, h, tol=DEFAULT_MEASURE_TOL)
    return ViolationReport(bound=bound, E_est=E, measure_by=measures,
                           margins=margins, undefined_points=undefined)


# ---------------------------------------------------------------------------
# Budgeted exceptional set


@dataclass(frozen=True)
class LemmaSetResult:
    E: IntervalSet
    measure: MeasureOutcome
    budget: float
    target: str


def standard_lemma_set(
    series: PowerSeries,
    psi: PsiSpec,
    h: HSpec,
    target: str,
    grid: RadialGrid,
    tol: float = DEFAULT_TOL,
) -> LemmaSetResult:
    """Grid estimate of the set where a derivative beats h * psi(value).

    ``target='g'`` tests g' against h(r) psi(g); ``target='gprime'`` tests
    g'' against h(r) psi(g').  The derivatives come from the coefficient
    distribution (exact, not finite-differenced).  The measured set must stay
    within the analytic tail budget of 1/psi from the grid-start value; the
    substitution argument applies cell-wise with exact derivatives, so a
    failure is reported as an invariant violation, not shrugged off.
    """
    if target not in ("g", "gprime"):
        raise ValidationError("target must be 'g' or 'gprime'")
    _reject_monomial(series, "standard_lemma_set")
    sts = stats_grid(series, [log_radius(r) for r in grid.points], tol)
    return _lemma_set(series, psi, h, target, grid, sts, tol)


def _lemma_set(series: PowerSeries, psi: PsiSpec, h: HSpec, target: str,
               grid: RadialGrid, sts, tol: float) -> LemmaSetResult:
    """:func:`standard_lemma_set` from ``sts``, the ``(g, g1, g2)`` of each
    grid point in order (any objects with those attributes)."""
    if target == "g":
        v = [s.g for s in sts]
        d = [s.g1 for s in sts]
    else:
        v = [s.g1 for s in sts]
        d = [s.g2 for s in sts]
    if any(b < a for a, b in zip(v, v[1:])) or not v[-1] > v[0]:
        raise ValidationError(
            f"hypothesis violated: target value for {target!r} is not "
            "increasing along the grid"
        )
    if v[0] < psi.a:
        raise DomainError(
            f"psi {psi} undefined at the grid start value {v[0]:g}; "
            "start the grid later"
        )
    # log(h(r) * psi(v)) at every point, so h and psi check every radius
    thr = [h.log_value(r) + psi_log_of_linear(psi, v[k])
           for k, r in enumerate(grid.points)]
    # a cell violates when its left point does
    E = _cells_from_mask(grid, [d[k] > 0 and math.log(d[k]) >= thr[k]
                                for k in range(len(thr) - 1)])
    measure = h_log_measure(E, h, tol=DEFAULT_MEASURE_TOL)
    budget = psi_tail(psi, v[0])
    value = measure.require_value()
    if value > budget * (1.0 + 1e-6) + max(tol, 1e-9):
        raise InvariantViolation(
            f"budgeted set measure {value:.6g} exceeds the analytic budget "
            f"{budget:.6g} for {series.label!r}, psi {psi}, h {h}, "
            f"target {target!r}"
        )
    return LemmaSetResult(E=E, measure=measure, budget=budget, target=target)


# ---------------------------------------------------------------------------
# Constant sweep


@dataclass(frozen=True)
class SweepResult:
    c_star: float | None
    trajectory: list  # (C, violation measure)
    budget: float
    h_id: str
    undefined_points: list


def constant_sweep(
    series: PowerSeries,
    bound: BoundSpec,
    grid: RadialGrid,
    h: HSpec,
    measure_budget: float,
    tol: float = DEFAULT_TOL,
) -> SweepResult:
    """Smallest C on a log-spaced sweep whose violation measure fits a budget.

    The per-point deficits log M - log(bound at C=1) do not depend on C, so
    the sweep thresholds precomputed deficits; the per-cell measures are also
    precomputed and summed per mask (violation cells are exact unions of grid
    cells).  A sweep with no admissible C is a valid not-found outcome; a
    bound undefined at every grid point tests no C and is a DomainError.
    """
    if bound.bound_id == "lower":
        raise ValidationError("cannot sweep a lower bound")
    if math.isnan(measure_budget):
        raise ValidationError("the sweep budget must be a number, got nan")
    bound = replace(bound, C=1.0)
    _reject_monomial(series, "constant_sweep")
    evals, log_bounds, undefined = _defined_bounds(series, bound, grid, tol)
    deficits = [None if b is None else ev.log_M - b
                for ev, b in zip(evals, log_bounds)]
    pts = grid.points
    cell_measure = np.zeros(len(pts) - 1)
    for k in range(len(pts) - 1):
        single = IntervalSet.from_pairs([(pts[k], pts[k + 1])], grid.R)
        cell_measure[k] = h_log_measure(single, h).require_value()
    n_c = int(round(math.log10(SWEEP_C_MAX / SWEEP_C_MIN)
                    * SWEEP_STEPS_PER_DECADE)) + 1
    trajectory = []
    c_star = None
    for i in range(n_c):
        C = SWEEP_C_MIN * SWEEP_STEP ** i
        logC = math.log(C)
        total = 0.0
        for k in range(len(pts) - 1):
            dk = deficits[k]
            if dk is not None and dk > logC:
                total += cell_measure[k]
        trajectory.append((C, total))
        if c_star is None and total <= measure_budget:
            c_star = C
    return SweepResult(c_star=c_star, trajectory=trajectory,
                       budget=measure_budget, h_id=h.h_id,
                       undefined_points=undefined)


# ---------------------------------------------------------------------------
# Lower-bound constant


@dataclass(frozen=True)
class OptimalityResult:
    c_low: float
    c_low_refined: float
    rel_change: float
    argmin_r: float
    skipped_points: int
    outside_model_families: bool
    rows: list  # (r, log_ratio) on the base grid


def optimality_check(
    series: PowerSeries,
    grid: RadialGrid,
    tol: float = DEFAULT_TOL,
) -> OptimalityResult:
    """Fit the largest constant under M >= C * mu/(1-r) * sqrt(log(mu/(1-r))).

    ``c_low`` is the grid minimum of the ratio in log domain; its value on
    the grid refined x2 is part of the result.  One walk covers both: the
    refined grid holds the base radii bit for bit at its even indices, and
    the CSV rows are those base points.  Points where the expression is
    undefined (the log factor not yet positive) are skipped, and the base
    ones counted.
    """
    if grid.R != 1.0:
        raise ValidationError("the lower-bound ratio lives on the unit disk")
    _reject_monomial(series, "optimality_check")
    evals, log_bounds, _ = _log_bounds(series, bound_spec("lower"),
                                       grid.refined(2), tol)
    ratios = [None if b is None else (ev.r, ev.log_M - b)
              for ev, b in zip(evals, log_bounds)]
    base = [t for t in ratios[::2] if t is not None]
    if not base:
        raise DomainError(
            "lower-bound expression undefined on the whole grid; "
            "start the grid at larger radii"
        )
    min_r, min_log = min(base, key=lambda t: t[1])
    fine_log = min(t[1] for t in ratios if t is not None)
    c_low = math.exp(min_log)
    c_fine = math.exp(fine_log)
    rel_change = abs(c_fine - c_low) / c_low if c_low > 0 else math.inf
    if not c_low > 0:
        raise InvariantViolation("lower-bound constant is not positive")
    return OptimalityResult(
        c_low=c_low, c_low_refined=c_fine, rel_change=rel_change,
        argmin_r=min_r, skipped_points=len(grid.points) - len(base),
        outside_model_families=series.family_id not in ("kovari",
                                                        "suleimanov"),
        rows=base,
    )


# ---------------------------------------------------------------------------
# The mode table, shared by ``wvlab <mode>`` and ``wvlab report``.  Each
# entry takes the series and a validated ``ExperimentConfig`` and returns
# (CSV header, CSV rows, CLI stderr lines, summary lines).


def _mode_eval(series: PowerSeries, config) -> tuple:
    evals = evaluate_grid(series, config.grid, config.tol)
    return (["r", "log_mu", "nu", "log_M"],
            [(e.r, e.log_mu, e.nu, e.log_M) for e in evals],
            [], [f"points = {len(evals)}"])


def _mode_stats(series: PowerSeries, config) -> tuple:
    if config.x is None:
        rs = config.grid.points
        xs = [log_radius(r) for r in rs]
    else:
        xs = config.x
        rs = [math.exp(x) for x in xs]
    rows = [(r, st.g, st.g1, st.g2)
            for r, st in zip(rs, stats_grid(series, xs, config.tol))]
    return ["r", "g", "g1", "g2"], rows, [], [f"points = {len(rows)}"]


def _undefined_lines(points: list) -> tuple:
    """CLI lines naming each grid point where the bound is undefined, and
    the summary lines counting them (none when every point is defined)."""
    diag = [f"undefined at r={r:.12g}: {msg}" for r, msg in points]
    return diag, [f"undefined at {len(points)} grid points"] if points else []


def _mode_check(series: PowerSeries, config) -> tuple:
    report = violation_set(series, config.bound, config.grid,
                           measure_h=config.measure_h, tol=config.tol)
    cells = len(report.E_est.intervals)
    measures = []
    for h_id, outcome in sorted(report.measure_by.items()):
        if outcome.divergent:
            measures.append(f"measure[{h_id}] = DIVERGENT ({outcome.note})")
        else:
            measures.append(f"measure[{h_id}] = {outcome.value:.12g}")
    undefined, counted = _undefined_lines(report.undefined_points)
    diag = [f"bound {report.bound}: {report.violation_count} violating "
            f"points, {cells} cells", *measures, *undefined]
    summary = [f"bound = {report.bound}",
               f"violating_points = {report.violation_count}",
               f"violation_cells = {cells}", *measures, *counted]
    return (["r", "log_M", "log_bound", "slack"],
            [(m.r, m.log_M, m.log_bound, m.slack) for m in report.margins],
            diag, summary)


def _mode_lemma(series: PowerSeries, config) -> tuple:
    points = verify_pointwise_lemma(
        series, [log_radius(r) for r in config.grid.points], config.lemma_c,
        config.tol)
    header = ["x", "r", "g", "g1", "g2", "log_mu", "log_window",
              "count_bound", "margin_chebyshev", "margin_count",
              "c_constant", "holds"]
    rows = [(p.x, math.exp(p.x), p.g, p.g1, p.g2, p.log_mu, p.log_window,
             p.count_bound, p.margin_chebyshev, p.margin_count, p.c_constant,
             p.holds) for p in points]
    diag = []
    summary = [f"c = {config.lemma_c:.12g}",
               f"chain_holds_everywhere = {all(p.holds for p in points)}"]
    if config.lemma_psi is not None:  # psi, h and target come together
        # the chain rows carry each point's (g, g1, g2): no second walk
        res = _lemma_set(series, config.lemma_psi, config.lemma_h,
                         config.lemma_target, config.grid, points, config.tol)
        diag.append(f"budgeted set measure = {res.measure.value:.12g}, "
                    f"budget = {res.budget:.12g}")
        summary.append(f"budgeted set: target={res.target} "
                       f"measure={res.measure.value:.12g} "
                       f"budget={res.budget:.12g}")
    return header, rows, diag, summary


def _mode_sweep(series: PowerSeries, config) -> tuple:
    res = constant_sweep(series, config.bound, config.grid, config.sweep_h,
                         config.sweep_budget, config.tol)
    if res.c_star is None:
        c_star = "not found in sweep range"
        diag = ["C_star not found in sweep range (valid outcome)"]
    else:
        c_star = f"{res.c_star:.12g}"
        diag = [f"C_star = {c_star}"]
    undefined, counted = _undefined_lines(res.undefined_points)
    return (["C", "measure"], res.trajectory, diag + undefined,
            [f"budget = {res.budget:.12g} under h={res.h_id}",
             f"C_star = {c_star}", *counted])


def _mode_optimality(series: PowerSeries, config) -> tuple:
    res = optimality_check(series, config.grid, config.tol)
    diag = [f"C_low = {res.c_low:.12g} (refined {res.c_low_refined:.12g}, "
            f"rel change {res.rel_change:.4g}, argmin r={res.argmin_r:.12g})"]
    summary = [f"C_low = {res.c_low:.12g}",
               f"C_low_refined = {res.c_low_refined:.12g}",
               f"rel_change = {res.rel_change:.12g}"]
    if res.outside_model_families:
        flag = "flag: family is outside the extremal model families"
        diag.append(flag)
        summary.append(flag)
    return ["r", "log_ratio"], res.rows, diag, summary


MODE_TABLE = {
    "eval": _mode_eval,
    "stats": _mode_stats,
    "check": _mode_check,
    "lemma": _mode_lemma,
    "sweep": _mode_sweep,
    "optimality": _mode_optimality,
}


def run_experiment(config, out_dir) -> dict:
    """Execute the configured mode; write CSV plus summary, return paths.

    Output is deterministic: identical configs produce byte-identical files.
    """
    # Imported here: reports reads this module's sweep constants.
    from .reports import render_summary, write_csv

    os.makedirs(out_dir, exist_ok=True)
    series = make_family(config.family)
    header, rows, _, summary = MODE_TABLE[config.mode](series, config)
    csv_path = os.path.join(out_dir, f"{config.label}.csv")
    summary_path = os.path.join(out_dir, f"{config.label}.summary.txt")
    write_csv(csv_path, header, rows)
    grid = config.grid
    lines = [f"mode = {config.mode}", f"family = {series.label}",
             f"grid = {grid.scheme} r0={grid.r0:.12g} q={grid.q:.12g} "
             f"count={grid.count}", *summary]
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(render_summary(f"wvlab {config.mode}: {config.label}",
                                lines))
    return {"csv": csv_path, "summary": summary_path}
