"""Outside-in per-layer trace of wvlab.

The tracer replaces the public names that wvlab modules call, in every
module namespace that holds them, with wrappers that record a span (id,
parent id, layer, name, start, end) and a few counters.  Nothing inside the
program changes.  Spans stay in memory and are written as JSON lines when
the run ends.  A layer's self time is the time of its spans minus the time
of their child spans.  The self time reported for a layer adds the self
time of importing the layer's modules (``import_self_times``), a cost every
CLI process pays, so a layer that a workload never calls still shows it.

``series.peak_mb`` is the most that an outermost ``series`` span raised the
process's peak resident memory above its resident memory at span entry
(``ru_maxrss`` after the span minus ``/proc/self/statm`` before it), over
the spans that raised the peak.  ``tracemalloc`` would give each span's own
peak, but it traces every Python allocation: it slows the ``kovari(1)``
recurrence 22x (3.4 s to 75 s for 2M coefficients on a 2-core Xeon VM) and
``math.fsum`` over an array 15x, which puts a traced ``optimality`` run near
two minutes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import resource
import sys
import time

# (module, name) of each wrapped function, by layer.  The ``cli`` layer
# groups argument parsing (cli), config parsing (config) and output
# (reports).
LAYERS = {
    "cli": [("cli", "main"), ("config", "parse_config"),
            ("reports", "render_csv"), ("reports", "write_csv"),
            ("reports", "render_summary")],
    "experiments": [("experiments", n) for n in (
        "evaluate_grid", "violation_set", "standard_lemma_set",
        "constant_sweep", "optimality_check", "run_experiment")],
    "series": [("series", n) for n in (
        "log_max_term", "log_positive_value", "truncation_horizon",
        "max_modulus_sampled")],
    "rosenbloom": [("rosenbloom", n) for n in (
        "stats", "distribution", "window_sum", "verify_pointwise_lemma")],
    "families": [("families", "make_family")],
    "logdomain": [("logdomain", "log_sum_exp")],
    "bounds": [("bounds", "eval_bound")],
    "measures": [("measures", n) for n in (
        "h_log_measure", "log_density", "final_density")],
}
MODULE_LAYER = {f"wvlab.{mod}": layer
                for layer, names in LAYERS.items() for mod, _ in names}
_IMPORT_TIME = re.compile(r"^import time:\s*(\d+) \|\s*\d+ \|\s*(\S+)\s*$",
                          re.MULTILINE)


def import_self_times(importtime_log: str) -> dict:
    """Seconds spent importing each layer's own modules.

    Reads the log that ``python -X importtime`` writes to standard error;
    its self column excludes nested imports, like a span's self time.
    """
    out = {layer: 0.0 for layer in LAYERS}
    for micros, module in _IMPORT_TIME.findall(importtime_log):
        if module in MODULE_LAYER:
            out[MODULE_LAYER[module]] += int(micros) * 1e-6
    return out


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss() -> int:
    """Current resident memory of this process, in bytes."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _peak_rss() -> int:
    """Peak resident memory of this process so far, in bytes (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """Records spans and counters around calls into wvlab's layers."""

    def __init__(self):
        self.spans = []      # [id, parent, layer, name, start, end]
        self._stack = []
        self._restore = []   # (owner, name, original)
        self.scan_calls = 0
        self.points = set()  # (series label, log r) of scan-bearing calls
        self.terms_scanned = 0
        self.coeffs_max = 0
        self.lse_terms = 0
        self.nu_max = 0
        self.series_peak = 0  # bytes
        self._series_depth = 0
        self._largest = {}   # id(series) -> (series, r, tol) of its largest r

    def _wrap(self, layer: str, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = [len(spans), stack[-1] if stack else -1, layer, name,
                   0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            outermost = layer == "series" and self._series_depth == 0
            if outermost:
                rss0, peak0 = _rss(), _peak_rss()
            self._series_depth += layer == "series"
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._series_depth -= layer == "series"
                stack.pop()
            if outermost:
                peak1 = _peak_rss()
                if peak1 > peak0:
                    self.series_peak = max(self.series_peak, peak1 - rss0)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _on_log_coeffs(self, series, stop):
        self.terms_scanned += int(stop)
        self.coeffs_max = max(self.coeffs_max, int(stop) - 1)

    def _on_radius(self, series, r, *args, **kwargs):
        self.scan_calls += 1
        if r > 0:
            self.points.add((series.label, math.log(r)))

    def _on_value(self, series, r, tol=None, *args, **kwargs):
        self._on_radius(series, r)
        if tol is None:
            tol = self._default_tol
        prev = self._largest.get(id(series))
        if prev is None or r > prev[1]:
            self._largest[id(series)] = (series, r, tol)

    def _on_max_term(self, result, *args, **kwargs):
        self.nu_max = max(self.nu_max, result.central_index)

    def _on_x(self, series, x, *args, **kwargs):
        self.scan_calls += 1
        self.points.add((series.label, float(x)))

    def _on_x_grid(self, series, x_grid, *args, **kwargs):
        xs = [float(x) for x in x_grid]
        self.scan_calls += len(xs)
        self.points.update((series.label, x) for x in xs)

    def _on_lse(self, values, *args, **kwargs):
        size = getattr(values, "size", None)
        self.lse_terms += int(len(values) if size is None else size)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name in every wvlab module that holds it."""
        import wvlab
        from wvlab import series as series_mod

        self._default_tol = series_mod.DEFAULT_TOL
        self._horizon = series_mod.truncation_horizon
        mods = [wvlab] + [sys.modules[m] for m in MODULE_LAYER]
        hooks = {
            "log_max_term": (self._on_radius, self._on_max_term),
            "log_positive_value": (self._on_value, None),
            "truncation_horizon": (self._on_radius, None),
            "max_modulus_sampled": (self._on_radius, None),
            "stats": (self._on_x, None),
            "distribution": (self._on_x, None),
            "window_sum": (self._on_x, None),
            "verify_pointwise_lemma": (self._on_x_grid, None),
            "log_sum_exp": (self._on_lse, None),
        }
        for layer, names in LAYERS.items():
            for mod_name, name in names:
                original = getattr(sys.modules[f"wvlab.{mod_name}"], name)
                before, after = hooks.get(name, (None, None))
                wrapped = self._wrap(layer, f"{mod_name}.{name}", original,
                                     before, after)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._restore.append((mod, attr, val))
                            setattr(mod, attr, wrapped)
        cls = series_mod.PowerSeries
        self._restore.append((cls, "log_coeffs", cls.log_coeffs))
        cls.log_coeffs = self._wrap("families", "PowerSeries.log_coeffs",
                                    cls.log_coeffs, self._on_log_coeffs)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def horizon_max(self) -> int:
        """Largest summation horizon, at each series' largest radius.

        Call after the timed spans end and the tracer is uninstalled, so the
        extra scans are neither timed nor counted.
        """
        best = 0
        for series, r, tol in self._largest.values():
            best = max(best, self._horizon(series, r, tol))
        self._largest.clear()
        return best

    def self_times(self) -> dict:
        total = {layer: 0.0 for layer in LAYERS}
        child = [0.0] * len(self.spans)
        for sid, parent, layer, _, start, end in self.spans:
            total[layer] += end - start
            if parent >= 0:
                child[parent] += end - start
        for sid, _, layer, _, _, _ in self.spans:
            total[layer] -= child[sid]
        return total

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s[2] == layer)

    def metrics(self) -> dict:
        """Per-layer figures, without import times and trace overhead."""
        out = {f"{layer}.self_s": t for layer, t in self.self_times().items()}
        out.update({
            "series.peak_mb": self.series_peak / 2.0 ** 20,
            "series.calls_per_point": self.scan_calls / max(1,
                                                            len(self.points)),
            "series.terms_scanned": self.terms_scanned,
            "series.nu_max": self.nu_max,
            "series.horizon_max": self.horizon_max(),
            "families.coeffs_max": self.coeffs_max,
            "logdomain.terms": self.lse_terms,
            "bounds.calls": self.calls("bounds"),
            "measures.calls": self.calls("measures"),
        })
        return out

    def write(self, path: str) -> None:
        keys = ("id", "parent", "layer", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
