"""Per-layer tracing for the benchmark, installed from outside the library.

Each layer is a module of ``hyperforms``.  :func:`install` wraps the
public functions listed in :data:`LAYERS`, rebinding every module attribute
that refers to the original, so names bound with ``from ... import`` are
traced too.  Spans nest on a stack; a span's self time is its duration
minus the time of the spans it encloses.  Only aggregates are kept (calls,
self time and total time per span name), so memory stays constant however
long the run is.  The process is single-threaded, so nothing waits in a
queue and there is no wait-time metric.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from fractions import Fraction

# module -> public functions; "Class.method" names patch the class.
LAYERS = {
    "scalars": ["Cyclotomic.mul", "scalar_pow"],
    "poly": ["MultiPoly.mul", "MultiPoly.add", "MultiPoly.exact_div",
             "MultiPoly.with_vars", "MultiPoly.truediv"],
    "tensor": ["Tensor.contract_axis", "Tensor.apply_gl", "Tensor.transpose",
               "Tensor.from_json"],
    "hyperdet": ["hyperdet", "det_rows", "binary_form_disc",
                 "ternary_quadratic_disc", "cayley_hyperdet_222"],
    "classical": ["sylvester_resultant", "hankel_quartic", "apolar_quartic",
                  "wronskian3"],
    "polarisation": ["polarize", "jacobi_form", "hyperhessian", "hyperresultant"],
    "gramm": ["project_k", "gramm_tensor", "gramm_form", "skew_gramm",
              "projector_trace"],
    "parser": ["parse_poly"],
}

# Operators are patched in pairs: x*y and y*x reach the same code.
_DUNDERS = {"mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__"),
            "truediv": ("__truediv__",)}

VERIFY_SUITES = ("prop21", "wronskian", "prop11", "prop12", "prop24", "prop41",
                 "hankel22", "skew", "glscale", "dependent", "oracle", "parser")

DISC_DEGREES = (2, 3, 4)

# Counters normalised per pass, with their units; calls and self_s of every
# function in LAYERS come first.
EXTRA_PER_PASS = {
    "poly.MultiPoly.mul.term_pairs": "count",
    "hyperdet.det_rows.bareiss_calls": "count",
    "parser.parse_poly.chars": "count",
}
GAUGES = {"poly.max_terms": "count", "poly.max_coeff_bits": "bit",
          "poly.int_coeff_share": "share"}
CLI_METRICS = {"cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.run_command_ms": "ms"}
OVERHEAD = {"trace.overhead_pass_s": "s", "trace.overhead_ops_per_s": "1/s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, names in LAYERS.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
    units.update(EXTRA_PER_PASS)
    units["gramm.OrbitTable.builds"] = "count"
    for d in DISC_DEGREES:
        units[f"hyperdet.binary_form_disc.d{d}.self_s"] = "s"
        units[f"hyperdet.binary_form_disc.d{d}.total_s"] = "s"
    units.update(GAUGES)
    for module in list(LAYERS) + ["verify"]:
        units[f"{module}.errors"] = "count"
    for suite in VERIFY_SUITES:
        units[f"verify.{suite}.wall_s"] = "s"
    units.update(CLI_METRICS)
    units.update(OVERHEAD)
    return units


def _is_int(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator == 1)


def _coeff_bits(c) -> int:
    if isinstance(c, (int, Fraction)):
        c = Fraction(c)
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return max((_coeff_bits(x) for x in c.coeffs), default=0)  # Cyclotomic


class Recorder:
    """Aggregated nested spans plus the counters taken at layer boundaries."""

    def __init__(self):
        self.stack: list[list] = []         # open spans: [child seconds, module]
        self.spans: dict[str, list] = {}    # name -> [calls, self s, total s]
        self.counts: Counter = Counter()
        self.gauges = {"poly.max_terms": 0, "poly.max_coeff_bits": 0}
        self.active = [True]
        self._undo: list[tuple] = []

    # -- span wrappers ---------------------------------------------------------

    def wrap(self, name: str, module: str, fn, before=None, after=None, split=None):
        """A traced stand-in for ``fn``.  ``split(args, kwargs)`` names a second
        span that the same call is also booked under."""
        stack, spans, counts, active = self.stack, self.spans, self.counts, self.active
        clock = time.perf_counter
        rec = spans.setdefault(name, [0, 0.0, 0.0])
        errors = f"{module}.errors"

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            sub = None
            if before is not None or split is not None:
                h = clock()
                if before is not None:
                    before(args, kwargs)
                if split is not None:
                    sub = spans.setdefault(split(args, kwargs), [0, 0.0, 0.0])
                if stack:
                    stack[-1][0] += clock() - h  # hook time is nobody's self time
            frame = [0.0, module]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[0]
                rec[0] += 1
                rec[1] += own
                rec[2] += dur
                if sub is not None:
                    sub[0] += 1
                    sub[1] += own
                    sub[2] += dur
                if not ok and (not stack or stack[-1][1] != module):
                    counts[errors] += 1
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                h = clock()
                after(result)
                if stack:
                    stack[-1][0] += clock() - h
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks -------------------------------------------------------------------

    def _term_pairs(self, args, kwargs):
        a, b = args[0], args[1]
        self.counts["poly.MultiPoly.mul.term_pairs"] += len(a.terms) * len(getattr(b, "terms", (1,)))

    def _coeff_share(self, result):
        terms = getattr(result, "terms", None)
        if terms is not None:
            self.counts["poly.coeffs"] += len(terms)
            self.counts["poly.int_coeffs"] += sum(1 for c in terms.values() if _is_int(c))

    def _swell(self, result):
        terms = getattr(result, "terms", None)
        if terms is None:
            return
        g = self.gauges
        g["poly.max_terms"] = max(g["poly.max_terms"], len(terms))
        bits = max((_coeff_bits(c) for c in terms.values()), default=0)
        g["poly.max_coeff_bits"] = max(g["poly.max_coeff_bits"], bits)

    def _bareiss(self, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        if len(rows) >= 4:
            self.counts["hyperdet.det_rows.bareiss_calls"] += 1

    def _chars(self, args, kwargs):
        self.counts["parser.parse_poly.chars"] += len(args[0] if args else kwargs["text"])

    @staticmethod
    def _disc_degree(args, kwargs):
        f = args[0]
        xy = args[1] if len(args) > 1 else kwargs.get("xy", ("x", "y"))
        degree = args[2] if len(args) > 2 else kwargs.get("degree")
        if degree is None:
            idx = [f.vars.index(v) for v in xy if v in f.vars]
            degree = max((sum(e[i] for i in idx) for e in f.terms), default=-1)
        return f"hyperdet.binary_form_disc.d{degree}"

    @staticmethod
    def _suite(args, kwargs):
        return f"verify.{args[0] if args else kwargs['name']}"

    # -- installation ------------------------------------------------------------

    def install(self) -> "Recorder":
        modules = {m: importlib.import_module(f"hyperforms.{m}")
                   for m in list(LAYERS) + ["verify"]}
        for module, names in LAYERS.items():
            mod = modules[module]
            for name in names:
                key = f"{module}.{name}"
                hooks = self._hooks(module, key)
                if "." in name:
                    cls_name, meth = name.split(".")
                    self._patch_method(getattr(mod, cls_name), _DUNDERS.get(meth, (meth,)),
                                       key, module, hooks)
                else:
                    self._rebind(getattr(mod, name), self.wrap(key, module, getattr(mod, name), **hooks))
        table = modules["gramm"].OrbitTable
        self._patch_method(table, ("__init__",), "gramm.OrbitTable", "gramm", {})
        run_suite = modules["verify"].run_suite
        self._rebind(run_suite, self.wrap("verify.run_suite", "verify", run_suite,
                                          split=self._suite))
        return self

    def _hooks(self, module: str, key: str) -> dict:
        hooks = {}
        if key == "poly.MultiPoly.mul":
            hooks["before"] = self._term_pairs
        if module == "poly" and key != "poly.MultiPoly.with_vars":
            hooks["after"] = self._coeff_share
        if module == "hyperdet":
            hooks["after"] = self._swell
        if key == "hyperdet.det_rows":
            hooks["before"] = self._bareiss
        if key == "hyperdet.binary_form_disc":
            hooks["split"] = self._disc_degree
        if key == "parser.parse_poly":
            hooks["before"] = self._chars
        return hooks

    def _patch_method(self, cls, attrs, key, module, hooks):
        done = {}
        for attr in attrs:
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if id(fn) not in done:
                traced = self.wrap(key, module, fn, **hooks)
                done[id(fn)] = classmethod(traced) if isinstance(raw, classmethod) else traced
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, done[id(fn)])

    def _rebind(self, original, traced):
        for modname, mod in list(sys.modules.items()):
            if modname != "hyperforms" and not modname.startswith("hyperforms."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, traced)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- export --------------------------------------------------------------------

    def export(self) -> dict:
        """Raw totals, summable across processes."""
        return {"spans": self.spans, "counts": dict(self.counts), "gauges": dict(self.gauges)}


def merge(parts) -> dict:
    total = {"spans": {}, "counts": Counter(), "gauges": {}}
    for part in parts:
        for name, (calls, own, dur) in part["spans"].items():
            rec = total["spans"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += own
            rec[2] += dur
        total["counts"].update(part["counts"])
        for name, value in part["gauges"].items():
            total["gauges"][name] = max(total["gauges"].get(name, 0), value)
    return total


def layer_metrics(raw: dict, passes: int) -> dict[str, float]:
    """Per-layer metric values: counts and times per pass of the workload's
    mix, gauges over the whole traced run."""
    spans, counts, gauges = raw["spans"], raw["counts"], raw["gauges"]
    values = {}
    for module, names in LAYERS.items():
        for name in names:
            calls, own, _ = spans.get(f"{module}.{name}", (0, 0.0, 0.0))
            values[f"{module}.{name}.calls"] = calls / passes
            values[f"{module}.{name}.self_s"] = own / passes
    for name in EXTRA_PER_PASS:
        values[name] = counts.get(name, 0) / passes
    values["gramm.OrbitTable.builds"] = spans.get("gramm.OrbitTable", (0,))[0] / passes
    for d in DISC_DEGREES:
        _, own, dur = spans.get(f"hyperdet.binary_form_disc.d{d}", (0, 0.0, 0.0))
        values[f"hyperdet.binary_form_disc.d{d}.self_s"] = own / passes
        values[f"hyperdet.binary_form_disc.d{d}.total_s"] = dur / passes
    values["poly.max_terms"] = gauges.get("poly.max_terms", 0)
    values["poly.max_coeff_bits"] = gauges.get("poly.max_coeff_bits", 0)
    coeffs = counts.get("poly.coeffs", 0)
    values["poly.int_coeff_share"] = counts.get("poly.int_coeffs", 0) / coeffs if coeffs else 0.0
    for module in list(LAYERS) + ["verify"]:
        values[f"{module}.errors"] = counts.get(f"{module}.errors", 0) / passes
    for suite in VERIFY_SUITES:
        values[f"verify.{suite}.wall_s"] = spans.get(f"verify.{suite}", (0, 0.0, 0.0))[2] / passes
    return values
