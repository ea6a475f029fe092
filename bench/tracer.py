"""Spans around the public functions of the toricdeg layers, recorded from
outside the library.

Modules import functions by name (``from .groebner import buchberger``), so a
wrapper on the defining module alone would miss most calls.  ``install``
therefore rebinds every module attribute that holds a traced function, in
every loaded ``toricdeg`` module and in the given extra modules, and
``binding_check`` compares the wrappers' call counts with an independent count
of calls to each function's code object taken with ``sys.setprofile``.

Spans stay in memory: one list per span, ``[name, start, end, parent, job,
attrs]``, where ``parent`` is the index of the enclosing span (or None) and
``job`` the id of the benchmark job that was running.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter
from math import comb

from toricdeg.polycore import BlockOrder, DegRevLex

# "module.function" of every traced public function, by defining module
TRACED = (
    "groebner.buchberger",
    "groebner.reduced_basis",
    "groebner.eliminate",
    "groebner.saturate",
    "groebner.saturate_by_variables",
    "groebner.graded_dimension",
    "intlat.hermite_normal_form",
    "intlat.kernel_lattice",
    "intlat.weight_from_matrix",
    "toric.toric_ideal",
    "toric.point_in_polytope",
    "toric.hull_vertices",
    "toric.is_vertex",
    "degeneration.family_ideal",
    "degeneration.fiber",
    "degeneration.hilbert_witness",
    "degeneration.projection_limit",
    "degeneration.valuation_pipeline",
    "degeneration.embed_value_semigroup",
    "momentmap.sample_moment_image",
    "momentmap.image_vs_polytope",
    "ioformats.parse_ideal_text",
    "ioformats.ideal_to_text",
    "polycore.parse_polynomial",
    "polycore.format_polynomial",
)

JOB = "job"


def _order_key(order):
    """Hashable description of a term order by value, not identity."""
    if order is None or not hasattr(order, "__dict__"):
        return order
    return (type(order).__name__,
            tuple((k, _order_key(v)) for k, v in sorted(vars(order).items())))


def _monomials_in_degree(weights, degree: int) -> int:
    """Exponent vectors of the given weighted degree: what graded_dimension
    enumerates."""
    if degree < 0:
        return 0
    if all(w == 1 for w in weights):
        return comb(degree + len(weights) - 1, len(weights) - 1)
    ways = [1] + [0] * degree
    for w in weights:
        for d in range(w, degree + 1):
            ways[d] += ways[d - w]
    return ways[degree]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.job = None
        self._seen_inputs: set = set()
        self._bindings: list = []  # (module, attribute, original)
        self.originals: dict = {}  # span name -> original function
        self.attr_s = 0.0  # time spent computing span attributes

    # -- recording ---------------------------------------------------------

    def begin_job(self, job_id):
        """Start a job: its span is the root of the job's spans, and repeats
        of Groebner inputs are counted within the job."""
        self.job = job_id
        self._seen_inputs = set()
        return self.open(JOB)

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, None])
        self._stack.append(idx)
        return idx

    def close(self, idx, attrs=None):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = attrs
        self._stack.pop()

    def _wrap(self, name, fn):
        before, after = _ATTRS.get(name, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            pre = None
            if before is not None:
                t = time.perf_counter()
                pre = before(tracer, args, kwargs)
                tracer.attr_s += time.perf_counter() - t
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = None
                if after is not None:
                    t = time.perf_counter()
                    attrs = after(pre, result)
                    tracer.attr_s += time.perf_counter() - t
                tracer.close(idx, attrs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- binding -----------------------------------------------------------

    def install(self, extra_modules=()):
        """Rebind every attribute that holds a traced function."""
        wrappers = {}
        for name in TRACED:
            mod, attr = name.split(".")
            fn = getattr(importlib.import_module(f"toricdeg.{mod}"), attr)
            self.originals[name] = fn
            wrappers[id(fn)] = self._wrap(name, fn)
        modules = [m for k, m in list(sys.modules.items())
                   if k == "toricdeg" or k.startswith("toricdeg.")]
        for m in modules + list(extra_modules):
            for k, v in list(vars(m).items()):
                w = wrappers.get(id(v))
                if w is not None and w.__wrapped__ is v:
                    self._bindings.append((m, k, v))
                    setattr(m, k, w)
        return self

    def uninstall(self):
        for m, k, v in reversed(self._bindings):
            setattr(m, k, v)
        self._bindings.clear()

    def binding_check(self, run):
        """Run `run()` once and compare, per traced function, the wrapper's
        call count with the number of calls to the function's code object
        seen by a profile hook.  Returns {name: (wrapped, profiled)}."""
        codes = {fn.__code__: name for name, fn in self.originals.items()}
        profiled = Counter()

        def hook(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    profiled[name] += 1

        start = len(self.spans)
        sys.setprofile(hook)
        try:
            run()
        finally:
            sys.setprofile(None)
        wrapped = Counter(s[0] for s in self.spans[start:])
        return {name: (wrapped[name], profiled[name]) for name in TRACED}

    def calibrate(self, n: int = 20000) -> float:
        """Seconds a traced call costs beyond a bare call, per span."""
        def bare():
            return None

        traced = self._wrap("calibration", bare)
        spans, stack = self.spans, self._stack
        self.spans, self._stack = [], []
        try:
            diffs = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(n):
                    bare()
                t1 = time.perf_counter()
                for _ in range(n):
                    traced()
                t2 = time.perf_counter()
                self.spans.clear()
                diffs.append(((t2 - t1) - (t1 - t0)) / n)
        finally:
            self.spans, self._stack = spans, stack
        return max(statistics.median(diffs), 0.0)

    # -- aggregation -------------------------------------------------------

    def per_layer(self) -> dict:
        """calls, total_s and self_s for each traced function, plus the
        Groebner counters and ratios."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[3] is not None:
                child_s[s[3]] += s[2] - s[1]
        out = {}
        agg = {name: [0, 0.0, 0.0] for name in TRACED}
        kinds = {"block": 0.0, "graded": 0.0}
        basis_elems = repeats = 0
        repeat_self = 0.0
        rb_hits = 0
        monomials = 0
        for i, s in enumerate(spans):
            name = s[0]
            a = agg.get(name)
            if a is None:
                continue
            dur = s[2] - s[1]
            self_s = dur - child_s[i]
            a[0] += 1
            if not self._nested_in_same(i):
                a[1] += dur
            a[2] += self_s
            attrs = s[5] or {}
            if name == "groebner.buchberger":
                kinds["block" if attrs.get("order") == "BlockOrder" else "graded"] += self_s
                basis_elems += attrs.get("basis", 0)
                if attrs.get("repeat"):
                    repeats += 1
                    repeat_self += self_s
            elif name == "groebner.reduced_basis":
                rb_hits += bool(attrs.get("hit"))
            elif name == "groebner.graded_dimension":
                monomials += attrs.get("monomials", 0)
        for name, (calls, total, self_s) in agg.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        bb_calls = agg["groebner.buchberger"][0]
        out["groebner.buchberger.block.self_s"] = (kinds["block"], "s")
        out["groebner.buchberger.graded.self_s"] = (kinds["graded"], "s")
        out["groebner.buchberger.basis_elems"] = (basis_elems, "count")
        out["groebner.buchberger.repeat_ratio"] = (repeats / bb_calls if bb_calls else 0.0, "ratio")
        out["groebner.buchberger.repeat.self_s"] = (repeat_self, "s")
        rb_calls = agg["groebner.reduced_basis"][0]
        out["groebner.reduced_basis.hit_ratio"] = (rb_hits / rb_calls if rb_calls else 0.0, "ratio")
        out["groebner.graded_dimension.monomials"] = (monomials, "count")
        return out

    def _nested_in_same(self, i) -> bool:
        name = self.spans[i][0]
        p = self.spans[i][3]
        while p is not None:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False


# ---------------------------------------------------------------------------
# span attributes: before(tracer, args, kwargs) -> pre; after(pre, result) -> attrs


def _bb_before(tracer, args, kwargs):
    I = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order")
    if order is None:
        order = DegRevLex(len(I.vars))
    key = (I.vars, tuple(tuple(sorted(g.terms.items())) for g in I.gens), _order_key(order))
    repeat = key in tracer._seen_inputs
    tracer._seen_inputs.add(key)
    return {"order": "BlockOrder" if isinstance(order, BlockOrder) else type(order).__name__,
            "vars": len(I.vars), "gens": len(I.gens), "repeat": repeat}


def _bb_after(pre, result):
    if result is not None:
        pre["basis"] = len(result)
    return pre


def _rb_before(tracer, args, kwargs):
    return {"hit": args[0]._rgb_cache is not None}


def _gd_before(tracer, args, kwargs):
    I, degree = args[0], args[1]
    weights = I.grading.weights if I.grading is not None else (1,) * len(I.vars)
    return {"monomials": _monomials_in_degree(weights, degree)}


def _keep(pre, result):
    return pre


_ATTRS = {
    "groebner.buchberger": (_bb_before, _bb_after),
    "groebner.reduced_basis": (_rb_before, _keep),
    "groebner.graded_dimension": (_gd_before, _keep),
}
