"""Spans around the public entry points of each krtorus layer.

The tracer patches functions and methods from outside the package: the
kernel through ``krtorus.field.kernel`` (the module object that
``field.poly`` and ``field.rational`` call), everything else on its
defining module or class and on every ``krtorus`` module that imported it
by name.  Each call made while the tracer is active becomes a span with a
name, start, end and parent; spans are kept in compact arrays and written
out once, when the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

import json
import sys
import time
from array import array

# Metric names of the traced run, in report order.  Each span name X
# yields X.calls and X.self_s; the observers add the extra counters.
SPANS = (
    "kernel.mul",
    "kernel.add",
    "kernel.div_linear",
    "kernel.div_exact",
    "poly.integral_primitive",
    "rational.build",
    "rational.from_root_factors",
    "rational.add",
    "rational.mul",
    "rational.eq",
    "torusmap.kr_value",
    "torusmap.closed_form",
    "cluster.mutate",
    "cluster.initial_seed",
    "cuspidal.recursion",
    "cuspidal.flag_minors",
    "qcartan.coeff",
    "cartan.build_frame",
    "suites.run_suite",
    "cli.main",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = []

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name, fn, observe=None):
        nid = SPANS.index(name)
        stack, perf = self._stack, time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        return traced

    def counter(self, key, fn):
        """Count calls of ``fn`` without opening a span."""

        def counted(*args, **kwargs):
            if self.active:
                self.count(key)
            return fn(*args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------

    def self_times(self):
        """(per-name self-time totals, per-name call counts, root-span total)."""
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        selfs = [0.0] * len(SPANS)
        calls = [0] * len(SPANS)
        roots = 0.0
        for k in range(n):
            nid = self.name[k]
            selfs[nid] += dur[k] - child[k]
            calls[nid] += 1
            if self.parent[k] < 0:
                roots += dur[k]
        return selfs, calls, roots

    def write(self, stem):
        """Spans as a JSON header plus one binary file of four arrays."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "names": list(SPANS),
            "spans": len(self.start),
            "layout": "name int32[], parent int32[], start float64[], end float64[]",
            "byteorder": sys.byteorder,
        }
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh)


def _replace_everywhere(orig, new):
    """Rebind every krtorus module attribute that holds ``orig``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "krtorus" or modname.startswith("krtorus."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


def _patch_function(tracer, module, attr, name, observe=None):
    orig = getattr(module, attr)
    new = tracer.wrap(name, orig, observe)
    setattr(module, attr, new)
    _replace_everywhere(orig, new)


def _patch_method(tracer, cls, attr, name, observe=None):
    orig = cls.__dict__[attr]
    new = tracer.wrap(name, orig, observe)
    for key, val in list(vars(cls).items()):
        if val is orig:  # operator aliases such as __radd__ = __add__
            setattr(cls, key, new)


def install(tracer, kr):
    """Wrap the layer entry points of the loaded package ``kr``."""
    t = tracer
    kernel = kr.field.kernel

    def terms_out(out):
        t.count("kernel.mul.terms_out", len(out))

    def failed(key):
        def observe(out):
            if out is None:
                t.count(key)
        return observe

    def residual(out):
        if isinstance(out, kr.field.RootRational):
            t.peak("rational.residual_terms.max", max(len(out.num), len(out.den)))

    _patch_function(t, kernel, "poly_mul", "kernel.mul", terms_out)
    _patch_function(t, kernel, "poly_add", "kernel.add")
    _patch_function(t, kernel, "poly_div_linear", "kernel.div_linear",
                    failed("kernel.div_linear.failed"))
    _patch_function(t, kernel, "poly_div_exact", "kernel.div_exact",
                    failed("kernel.div_exact.failed"))
    _patch_function(t, kr.field.poly, "integral_primitive", "poly.integral_primitive")

    ctx, val = kr.field.RootContext, kr.field.RootRational
    _patch_method(t, ctx, "build", "rational.build", residual)
    _patch_method(t, ctx, "from_root_factors", "rational.from_root_factors")
    _patch_method(t, val, "__add__", "rational.add", residual)
    _patch_method(t, val, "__mul__", "rational.mul", residual)
    _patch_method(t, val, "__eq__", "rational.eq")

    calc = kr.torusmap.TorusMorphism
    _patch_method(t, calc, "kr_value", "torusmap.kr_value")
    calc.y_value = t.counter("torusmap.y_value.calls", calc.__dict__["y_value"])
    _patch_function(t, kr.torusmap, "closed_form_type_a", "torusmap.closed_form")
    _patch_function(t, kr.torusmap, "closed_form_type_d", "torusmap.closed_form")

    _patch_function(t, kr.cluster, "mutate", "cluster.mutate")
    _patch_function(t, kr.cluster, "initial_seed", "cluster.initial_seed")
    _patch_method(t, kr.cuspidal.CuspidalRecursion, "value", "cuspidal.recursion")
    _patch_function(t, kr.cuspidal, "standard_seed_minors", "cuspidal.flag_minors")
    _patch_method(t, kr.qcartan.QuantumCartanInverse, "coeff", "qcartan.coeff")
    _patch_function(t, kr.cartan, "build_frame", "cartan.build_frame")
    _patch_function(t, kr.suites, "run_suite", "suites.run_suite")
    _patch_function(t, kr.cli, "main", "cli.main")


def layer_metrics(tracer, rounds, wall):
    """Per-round layer metrics from the spans of ``rounds`` traced rounds
    whose operations took ``wall`` seconds in all."""
    selfs, calls, roots = tracer.self_times()
    out = {}
    for nid, name in enumerate(SPANS):
        out[name + ".calls"] = (calls[nid] / rounds, "count")
        out[name + ".self_s"] = (selfs[nid] / rounds, "s")
    for key in ("kernel.mul.terms_out", "kernel.div_linear.failed",
                "kernel.div_exact.failed", "torusmap.y_value.calls"):
        out[key] = (tracer.counters.get(key, 0) / rounds, "count")
    out["rational.residual_terms.max"] = (
        tracer.counters.get("rational.residual_terms.max", 0), "count")
    out["trace.wall_s"] = (wall / rounds, "s")
    out["trace.unattributed_s"] = ((wall - roots) / rounds, "s")
    return out
