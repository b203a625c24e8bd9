"""Per-module tracing from outside the library.

``Tracer.install`` replaces every public function of the traced momentkit
modules by a timing wrapper, in every module namespace that bound it by
name (``from .hamburger import verdict_1d`` copies the function into
``cli``, ``gaps`` and ``curves`` at import time, so patching ``hamburger``
alone would miss those calls).  ``Tracer.restore`` puts the originals back.

Each wrapper keeps a span stack.  A layer's self time is the inclusive time
of its calls minus the inclusive time of the wrapped calls they made; the
time the wrappers spend reading counters is charged to nobody and reported
as ``bookkeeping``.  ``Tracer.root`` opens the outermost span around one job,
so the self times of all layers plus ``harness`` add up to the traced wall
time less the bookkeeping.

Counters are read from arguments and returned objects: LP shape and
iterations, recurrence pivots, working precision, rational bit lengths,
grid sizes and report bytes.  They depend only on the inputs, so they repeat
exactly between runs of the same seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from fractions import Fraction

#: modules whose public functions are wrapped; polynomials and scalars are
#: per-coefficient helpers whose time stays with their callers
MODULES = ("hamburger", "simplex", "gaps", "moments", "curves", "envelopes",
           "serialization", "verdicts", "cli")

#: layer of each function; any other public function of a module goes to
#: "<module>.other"
LAYERS = {
    "hamburger.admissibility": ("hamburger", ("admissibility_check", "hankel")),
    "hamburger.recurrence": ("hamburger", ("recurrence_from_moments", "reconstruct_moments")),
    "hamburger.ortho": ("hamburger", ("ortho_eval", "christoffel", "christoffel_direct",
                                      "weyl_disk")),
    "hamburger.carleman": ("hamburger", ("carleman",)),
    "hamburger.convergents": ("hamburger", ("stieltjes_convergents",)),
    "hamburger.verdict": ("hamburger", ("verdict_1d",)),
    "simplex": ("simplex", ("maximize", "minimize")),
    "gaps.grid_lp": ("gaps", ("grid_gap_lp", "default_grid", "describe_grid")),
    "gaps.hyperplane": ("gaps", ("hyperplane_gap",)),
    "gaps.phi": ("gaps", ("evaluate_separating",)),
    "gaps.kappa": ("gaps", ("poisson_kappa_1d", "poisson_kappa_estimate",
                            "sphere_average_kappa")),
    "gaps.scan": ("gaps", ("direction_scan", "direction_set")),
    "moments.generate": ("moments", ("generate_moments",)),
    "moments.pushforward": ("moments", ("pushforward_direction", "marginal", "convolve",
                                        "affine_map")),
    "moments.weight": ("moments", ("apply_polynomial_weight",)),
    "curves.pushforward": ("curves", ("pushforward_to_curve", "projection_bridge")),
    "curves.lift": ("curves", ("lift_and_test", "christoffel_on_curve")),
    "envelopes": ("envelopes", None),
    "serialization.format": ("serialization", ("format_value",)),
    "verdicts": ("verdicts", None),
    "cli.load": ("cli", ("load_input",)),
    "cli.report": ("cli", ("_finish_report", "_write_error_report")),
    "cli.main": ("cli", None),
}

#: counted calls: metric name -> (module, function)
CALLS = {
    "hamburger.admissibility.calls": ("hamburger", "admissibility_check"),
    "hamburger.recurrence.calls": ("hamburger", "recurrence_from_moments"),
    "simplex.calls": ("simplex", "maximize"),
    "serialization.format.calls": ("serialization", "format_value"),
}

COUNTERS = ("hamburger.recurrence.pivot_range_bits", "hamburger.precision_bits_max",
            "hamburger.fraction_bits_max", "simplex.iterations", "simplex.rows_max",
            "simplex.vars_max", "gaps.grid_points_max", "cli.report_bytes")


def layer_names() -> list:
    """Every layer a traced run reports, in a fixed order."""
    names = list(LAYERS)
    for module in MODULES:
        if not any(m == module and fns is None for m, fns in LAYERS.values()):
            names.append(f"{module}.other")
    return names + ["harness"]


def _listed(module: str, name: str) -> bool:
    return any(m == module and fns and name in fns for m, fns in LAYERS.values())


def _layer_of(module: str, name: str) -> str:
    catch_all = None
    for layer, (m, fns) in LAYERS.items():
        if m != module:
            continue
        if fns is None:
            catch_all = layer
        elif name in fns:
            return layer
    return catch_all or f"{module}.other"


def _fraction_bits(values) -> int:
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length() + v.denominator.bit_length())
        elif isinstance(v, int):
            best = max(best, v.bit_length())
    return best


class Tracer:
    package = "momentkit"

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.bookkeeping_s = 0.0
        self._stack = []
        self._patched = []      # (namespace, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"{self.package}.{m}") for m in MODULES}
        wrappers = {}
        for mname, mod in modules.items():
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                if name.startswith("_") and not _listed(mname, name):
                    continue  # private helpers stay with their callers
                wrappers[fn] = self._wrap(fn, mname, name)
        namespaces = [sys.modules[self.package]] + [
            m for n, m in sorted(sys.modules.items())
            if n.startswith(self.package + ".") and m is not None]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- spans ---------------------------------------------------------------

    def root(self, fn, *args, **kwargs):
        """Run fn as the outermost span; its self time is ``harness``."""
        return self._span("harness", None, fn, args, kwargs)

    def _wrap(self, fn, module: str, name: str):
        layer = _layer_of(module, name)
        counter = getattr(self, f"_count_{module}_{name}", None)
        call_key = next((k for k, v in CALLS.items() if v == (module, name)), None)
        tracer = self

        def wrapper(*args, **kwargs):
            if call_key is not None:
                tracer.calls[call_key] += 1
            return tracer._span(layer, counter, fn, args, kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _span(self, layer, counter, fn, args, kwargs):
        clock = time.perf_counter
        frame = [0.0]
        self._stack.append(frame)
        result = None
        start = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = clock()
            self._stack.pop()
            self.self_s[layer] += (end - start) - frame[0]
            if counter is not None:
                counter(args, kwargs, result)
            done = clock()
            self.bookkeeping_s += done - end
            if self._stack:
                self._stack[-1][0] += done - start

    # -- counters (args, kwargs, result; result is None after an exception) --

    def _max(self, key: str, value) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    def _precision(self, mode) -> None:
        self._max("hamburger.precision_bits_max", getattr(mode, "precision_bits", 0))

    def _count_hamburger_recurrence_from_moments(self, args, kwargs, rec):
        self._precision(args[0].mode)
        if rec is None:
            return
        pivots = [abs(p) for p in rec.pivot_log if p and math.isfinite(p)]
        if pivots:
            self._max("hamburger.recurrence.pivot_range_bits",
                      math.log2(max(pivots)) - math.log2(min(pivots)))
        self._max("hamburger.fraction_bits_max", _fraction_bits(rec.alpha + rec.beta))

    def _count_hamburger_admissibility_check(self, args, kwargs, adm):
        self._precision(args[0].mode)

    def _count_hamburger_verdict_1d(self, args, kwargs, verdict):
        self._precision(args[0].mode)

    def _moment_bits(self, args, kwargs, seq):
        """Moment sequences returned by generators and transforms."""
        seq = getattr(seq, "curve_moments", seq)
        if seq is not None:
            self._max("hamburger.fraction_bits_max", _fraction_bits(seq.entries.values()))

    _count_moments_generate_moments = _moment_bits
    _count_moments_pushforward_direction = _moment_bits
    _count_moments_apply_polynomial_weight = _moment_bits
    _count_curves_pushforward_to_curve = _moment_bits

    def _count_simplex_maximize(self, args, kwargs, res):
        c, a_ub = args[1], args[2]
        self._max("simplex.rows_max", len(a_ub))
        self._max("simplex.vars_max", len(c))
        if res is not None:
            self.counters["simplex.iterations"] += res.iterations

    def _count_gaps_grid_gap_lp(self, args, kwargs, est):
        if est is not None:
            self._max("gaps.grid_points_max", est.grid["size"])

    def _count_gaps_hyperplane_gap(self, args, kwargs, res):
        if res is not None:
            self._max("gaps.grid_points_max", res["grid"]["size"])

    def _count_cli__finish_report(self, args, kwargs, _):
        path = args[1]
        if os.path.exists(path):
            self.counters["cli.report_bytes"] += os.path.getsize(path)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """name -> value for every per-layer metric except the overhead."""
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in layer_names()}
        out.update({k: self.calls.get(k, 0) for k in CALLS})
        out.update(self.counters)
        out["trace.bookkeeping_s"] = self.bookkeeping_s
        return out
