"""Experiment configuration files.

Line-oriented UTF-8 ``key = value`` pairs grouped under ``[section]``
headers; lists are comma-separated.  Example::

    [experiment]
    mode = check
    label = logimp-on-suleimanov

    [family]
    id = suleimanov
    epsilon = 0.5

    [grid]
    scheme = gap
    r0 = 0.9
    q = 0.9
    count = 200

    [bound]
    id = logimp
    n = 2
    delta = 0.5
    C = 1.0

    [measure]
    h = disklog, disk
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .bounds import BoundSpec, HSpec, PsiSpec, bound_spec, h_by_id, \
    psi_exphalf, psi_iter, psi_logpow, psi_pow, psi_square
from .errors import ValidationError
from .experiments import MODE_TABLE, RadialGrid
from .families import FamilySpec
from .series import DEFAULT_TOL

MODES = tuple(MODE_TABLE)
GRID_Q = 0.9  # [grid] q of a gap grid when the config gives none


def parse_psi(text: str) -> PsiSpec:
    """Parse ``pow:0.5``, ``logpow:1``, ``iter:3:0.5``, ``exphalf``,
    ``square``."""
    parts = [p.strip() for p in text.split(":")]
    name = parts[0]
    try:
        if name == "pow" and len(parts) == 2:
            return psi_pow(float(parts[1]))
        if name == "logpow" and len(parts) == 2:
            return psi_logpow(float(parts[1]))
        if name == "iter" and len(parts) == 3:
            return psi_iter(int(parts[1]), float(parts[2]))
        if name == "exphalf" and len(parts) == 1:
            return psi_exphalf()
        if name == "square" and len(parts) == 1:
            return psi_square()
    except ValueError:
        raise ValidationError(f"bad psi parameters in {text!r}") from None
    raise ValidationError(
        f"cannot parse psi spec {text!r}; use pow:D, logpow:D, iter:N:D, "
        "exphalf, square"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated inputs for one experiment run.

    Both ``wvlab <mode>`` and ``wvlab report`` build one through
    ``given``.  ``x`` (log radii in any order) replaces the grid; only
    ``wvlab stats --x`` sets it.
    """

    mode: str
    label: str
    family: FamilySpec
    grid: RadialGrid | None = None
    bound: BoundSpec | None = None
    measure_h: tuple = ()
    lemma_c: float = math.sqrt(3.0)
    lemma_psi: PsiSpec | None = None
    lemma_h: HSpec | None = None
    lemma_target: str | None = None
    sweep_budget: float | None = None
    sweep_h: HSpec | None = None
    tol: float = DEFAULT_TOL
    x: tuple | None = None

    def __post_init__(self):
        budgeted = {"psi": self.lemma_psi, "h": self.lemma_h,
                    "target": self.lemma_target}
        missing = [k for k, v in budgeted.items() if v is None]
        if 0 < len(missing) < len(budgeted):
            raise ValidationError(
                "the budgeted lemma set needs psi, h and target; missing "
                + ", ".join(missing)
            )
        if self.x is not None and self.grid is not None:
            raise ValidationError(
                "give either x = log r values or a grid, not both")

    @classmethod
    def given(cls, **fields) -> "ExperimentConfig":
        """The config of the inputs given; a None field takes its default."""
        return cls(**{k: v for k, v in fields.items() if v is not None})


class _Section:
    """Typed access to one config section with field-level diagnostics."""

    def __init__(self, name: str, mapping):
        self.name = name
        self._map = dict(mapping)

    def take(self, key: str, required: bool = False, default=None):
        if key in self._map:
            return self._map.pop(key)
        if required:
            raise ValidationError(
                f"config section [{self.name}] is missing key {key!r}"
            )
        return default

    def take_float(self, key: str, required: bool = False, default=None):
        raw = self.take(key, required, None)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ValidationError(
                f"config [{self.name}] {key} = {raw!r} is not a number"
            ) from None

    def take_int(self, key: str, required: bool = False, default=None):
        v = self.take_float(key, required, None)
        if v is None:
            return default
        if v != int(v):
            raise ValidationError(
                f"config [{self.name}] {key} must be an integer"
            )
        return int(v)

    def finish(self):
        if self._map:
            raise ValidationError(
                f"config section [{self.name}] has unknown keys "
                f"{sorted(self._map)}"
            )


def _parse_family(sec: _Section) -> FamilySpec:
    fid = sec.take("id", required=True)
    params = {}
    for key in ("rho", "epsilon", "coeff", "degree", "radius"):
        v = sec.take_float(key)
        if v is not None:
            params[key] = v
    formula = sec.take("formula")
    if formula is not None:
        params["formula"] = formula
    sec.finish()
    return FamilySpec(fid, params)


def _parse_grid(sec: _Section) -> RadialGrid:
    scheme = sec.take("scheme", required=True)
    if scheme == "geo":
        start = sec.take_float("start", required=True)
        end = sec.take_float("end", required=True)
        count = sec.take_int("count", required=True)
        radius = sec.take_float("radius", default=math.inf)
        sec.finish()
        return RadialGrid.geometric(start, end, count, R=radius)
    if scheme == "gap":
        r0 = sec.take_float("r0", required=True)
        q = sec.take_float("q", default=GRID_Q)
        count = sec.take_int("count", required=True)
        radius = sec.take_float("radius", default=1.0)
        sec.finish()
        return RadialGrid.geometric_in_gap(r0, q, count, R=radius)
    raise ValidationError(f"config [grid] scheme must be geo or gap, got "
                          f"{scheme!r}")


def _parse_bound(sec: _Section) -> BoundSpec:
    bid = sec.take("id", required=True)
    delta = sec.take_float("delta")
    n = sec.take_int("n")
    C = sec.take_float("C")
    h = sec.take("h")
    psi1 = sec.take("psi1")
    psi2 = sec.take("psi2")
    sec.finish()
    return make_bound(bid, delta, n, C, h, psi1, psi2)


def make_bound(bid: str, delta=None, n=None, C=None, h=None, psi1=None,
               psi2=None) -> BoundSpec:
    """``bound_spec`` with the weight ``h`` and the psi specs as text."""
    return bound_spec(
        bid, delta=delta, n=n, C=C,
        h=h_by_id(h) if h else None,
        psi1=parse_psi(psi1) if psi1 else None,
        psi2=parse_psi(psi2) if psi2 else None,
    )


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (C vs c)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from None
    sections = {name: _Section(name, parser[name])
                for name in parser.sections()}

    def need(name: str) -> _Section:
        if name not in sections:
            raise ValidationError(f"config is missing section [{name}]")
        return sections[name]

    exp = need("experiment")
    mode = exp.take("mode", required=True)
    if mode not in MODES:
        raise ValidationError(
            f"config [experiment] mode must be one of {MODES}, got {mode!r}"
        )
    label = exp.take("label", default=mode)
    tol = exp.take_float("tol", default=DEFAULT_TOL)
    exp.finish()

    fields = dict(mode=mode, label=label, tol=tol,
                  family=_parse_family(need("family")),
                  grid=_parse_grid(need("grid")))
    if "bound" in sections:
        fields["bound"] = _parse_bound(sections["bound"])
    if "measure" in sections:
        sec = sections["measure"]
        raw = sec.take("h", required=True)
        fields["measure_h"] = tuple(h_by_id(p.strip())
                                    for p in raw.split(","))
        sec.finish()
    if "lemma" in sections:
        sec = sections["lemma"]
        fields["lemma_c"] = sec.take_float("c")
        psi_raw = sec.take("psi")
        fields["lemma_psi"] = parse_psi(psi_raw) if psi_raw else None
        h_raw = sec.take("h")
        fields["lemma_h"] = h_by_id(h_raw) if h_raw else None
        fields["lemma_target"] = sec.take("target")
        if fields["lemma_target"] not in (None, "g", "gprime"):
            raise ValidationError("config [lemma] target must be g or gprime")
        sec.finish()
    if "sweep" in sections:
        sec = sections["sweep"]
        fields["sweep_budget"] = sec.take_float("budget", required=True)
        fields["sweep_h"] = h_by_id(sec.take("h", required=True))
        sec.finish()

    known = {"experiment", "family", "grid", "bound", "measure", "lemma",
             "sweep"}
    extra = set(sections) - known
    if extra:
        raise ValidationError(f"config has unknown sections {sorted(extra)}")

    if mode in ("check", "sweep") and "bound" not in fields:
        raise ValidationError(f"mode {mode!r} needs a [bound] section")
    if mode == "sweep" and "sweep_budget" not in fields:
        raise ValidationError("mode 'sweep' needs a [sweep] section")
    return ExperimentConfig.given(**fields)
