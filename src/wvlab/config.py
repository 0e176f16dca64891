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

``config_from_sections`` validates the sections of a file and the flags of
``wvlab <mode>``, which the CLI writes as the same sections.  The psi, h
and bound ids and their parameters are those of the ``bounds`` tables.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass

from .bounds import PSI_TABLE, BoundSpec, HSpec, PsiSpec, bound_spec, \
    h_by_id, psi_spec
from .errors import ValidationError
from .experiments import MODE_TABLE, RadialGrid
from .families import FamilySpec
from .series import DEFAULT_TOL

MODES = tuple(MODE_TABLE)
GRID_Q = 0.9  # [grid] q of a gap grid when the config gives none


def parse_psi(text: str) -> PsiSpec:
    """Parse ``id:param:...``: the id of a ``bounds.PSI_TABLE`` row, then
    its parameters in the row's order."""
    name, *values = [p.strip() for p in text.split(":")]
    row = PSI_TABLE.get(name)
    if row is None or len(values) != len(row.params):
        raise ValidationError(
            f"cannot parse psi spec {text!r}; use " + ", ".join(
                ":".join([pid, *(key[0].upper() for key, _ in r.params)])
                for pid, r in PSI_TABLE.items()))
    try:
        values = [parse(v) for (_, parse), v in zip(row.params, values)]
    except ValueError:
        raise ValidationError(f"bad psi parameters in {text!r}") from None
    return psi_spec(name, *values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated inputs for one experiment run, built by
    ``config_from_sections``.

    ``x`` (log radii in any order) replaces the grid; only
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


def parse_float(raw, what: str) -> float:
    """``float(raw)``; a ValidationError names ``what`` if it is no number."""
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"{what} = {raw!r} is not a number") from None


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
        return parse_float(raw, f"config [{self.name}] {key}")

    def take_int(self, key: str, required: bool = False, default=None):
        v = self.take_float(key, required, None)
        if v is None:
            return default
        if not v.is_integer():  # also rejects inf and nan
            raise ValidationError(
                f"config [{self.name}] {key} must be an integer"
            )
        return int(v)

    def take_rest(self) -> dict:
        rest, self._map = self._map, {}
        return rest

    def finish(self):
        if self._map:
            raise ValidationError(
                f"config section [{self.name}] has unknown keys "
                f"{sorted(self._map)}"
            )


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
    return bound_spec(
        bid, delta=delta, n=n, C=C,
        h=h_by_id(h) if h else None,
        psi1=parse_psi(psi1) if psi1 else None,
        psi2=parse_psi(psi2) if psi2 else None,
    )


def parse_config(text: str) -> ExperimentConfig:
    """The experiment of a config file's text."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (C vs c)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from None
    return config_from_sections({name: parser[name]
                                 for name in parser.sections()})


def config_from_sections(sections, x=None) -> ExperimentConfig:
    """The experiment of ``sections``: name -> {key: value}, each value
    text as in a file, or a number.

    ``x`` (log radii, from ``wvlab stats --x`` only) replaces ``[grid]``.
    """
    extra = set(sections) - {"experiment", "family", "grid", "bound",
                             "measure", "lemma", "sweep"}
    if extra:
        raise ValidationError(f"config has unknown sections {sorted(extra)}")
    sections = {name: _Section(name, pairs)
                for name, pairs in sections.items()}

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
    fields = dict(mode=mode, label=exp.take("label", default=mode),
                  tol=exp.take_float("tol"), x=x)
    exp.finish()
    family = need("family")  # the id, then the parameters FamilySpec checks
    fields["family"] = FamilySpec(family.take("id", required=True),
                                  family.take_rest())
    if x is None:
        fields["grid"] = _parse_grid(need("grid"))
    elif "grid" in sections:
        raise ValidationError(
            "give either x = log r values or a grid, not both")
    else:
        log_max = math.log(sys.float_info.max)  # r = exp(x) is a float
        for v in x:
            if v > log_max:
                raise ValidationError(
                    f"x = {v!r} is past log of the largest float, "
                    f"{log_max:.6f}: r = exp(x) overflows")
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
        budgeted = ("psi", "h", "target")
        missing = [k for k in budgeted if fields[f"lemma_{k}"] is None]
        if 0 < len(missing) < len(budgeted):
            raise ValidationError(
                "the budgeted lemma set needs psi, h and target; missing "
                + ", ".join(missing)
            )
    if "sweep" in sections:
        sec = sections["sweep"]
        fields["sweep_budget"] = sec.take_float("budget", required=True)
        fields["sweep_h"] = h_by_id(sec.take("h", required=True))
        sec.finish()

    if mode in ("check", "sweep") and "bound" not in fields:
        raise ValidationError(f"mode {mode!r} needs a [bound] section")
    if mode == "sweep" and "sweep_budget" not in fields:
        raise ValidationError("mode 'sweep' needs a [sweep] section")
    return ExperimentConfig(**{k: v for k, v in fields.items()
                               if v is not None})
