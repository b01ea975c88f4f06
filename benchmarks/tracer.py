"""Span tracer installed around sympkit from outside the package.

`install` wraps the public functions of each sympkit module (and two public
methods) so that every call records a span: name, start, end, parent span,
whether an exception escaped, and optional counts taken from the arguments
and result.  The wrapped function replaces the module attribute and every
name that another sympkit module bound to it with `from ... import`, so
calls inside the package are traced too.  Each thread keeps its own span
stack; a task submitted to finite_census's thread pool starts with the
submitting thread's current span as its parent.

Spans stay in memory until `dump` writes them out.  `self_times` turns a
span list into self times: a span's duration minus the part of its interval
that its child spans cover.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# sympkit module -> layer name used in metric names (a metric name must
# start with a letter or digit, so `_mat` is reported as `mat`)
LAYERS = {
    "sympkit.finite_census": "finite_census",
    "sympkit.artin_gallery": "artin_gallery",
    "sympkit._mat": "mat",
    "sympkit.gsp4_core": "gsp4_core",
    "sympkit.hecke_l": "hecke_l",
    "sympkit.exact_arith": "exact_arith",
    "sympkit.cli": "cli",
}

# public methods traced besides the module-level functions:
# (module, class, attribute) -> span name
METHODS = {
    ("sympkit.finite_census", "GroupSet", "nu_values"): "finite_census.nu_values",
    ("sympkit.exact_arith", "UPoly", "from_roots"): "exact_arith.upoly_from_roots",
}


def _distinct_gens(gens, ell):
    import numpy as np
    arr = np.asarray(gens, dtype=np.int64).reshape(-1, 16) % ell
    return int(np.unique(arr, axis=0).shape[0])


def _closure_counts(elements, gens):
    # new elements = those found as products, i.e. everything but the
    # identity and the generators; the products formed are counted from the
    # product spans nested under the closure (see layers.PRODUCTS)
    return {"elements": elements, "new": max(0, elements - 1 - gens)}


def _count_mulclose(args, kwargs, result):
    ell = args[1] if len(args) > 1 else kwargs["ell"]
    return _closure_counts(int(result.size), _distinct_gens(args[0], ell))


def _count_group_closure(args, kwargs, result):
    gens = {tuple(map(tuple, g)) for g in args[0]}
    return _closure_counts(result.order, len(gens))


def _count_order(args, kwargs, result):
    return {"elements": result.order}


def _count_census(args, kwargs, result):
    return {"elements": result.total}


def _count_len(args, kwargs, result):
    return {"elements": len(result)}


def _count_rows(args, kwargs, result):
    return {"rows": int(result.size)}


# span name -> counts taken at the call boundary
COUNTERS = {
    "finite_census.mulclose": _count_mulclose,
    "finite_census.build_family": _count_order,
    "finite_census.charpoly_census": _count_census,
    "finite_census.pack_matrices": _count_rows,
    "artin_gallery.group_closure": _count_group_closure,
    "hecke_l.rou_charpolys": _count_len,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.error = False
        self.counts = None


class Tracer:
    """Records spans in memory; one span stack per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        span.start = time.monotonic()
        return span

    def finish(self, span, error=False):
        span.end = time.monotonic()
        span.error = error
        self._stack().pop()

    def adopt(self, parent, fn):
        "fn wrapped so that, run in another thread, its spans nest under parent."
        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return run if parent is not None else fn

    def wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.finish(span, error=True)
                raise
            tracer.finish(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def executor_class(self):
        "A ThreadPoolExecutor whose tasks inherit the submitter's span."
        tracer = self

        class SpanPropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(tracer.current(), fn),
                                      *args, **kwargs)

        return SpanPropagatingExecutor

    def records(self):
        "Spans as plain lists [name, start, end, parent_index, error, counts]."
        index = {id(s): k for k, s in enumerate(self.spans)}
        return [[s.name, s.start, s.end,
                 None if s.parent is None else index[id(s.parent)],
                 s.error, s.counts] for s in self.spans]

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.records()), fh)


def install(tracer):
    "Wrap the public functions of every sympkit layer with `tracer` spans."
    wrapped = {}
    for modname, layer in LAYERS.items():
        mod = importlib.import_module(modname)
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != modname
                    or inspect.isgeneratorfunction(obj)):
                continue
            span = "%s.%s" % (layer, name)
            wrapped[obj] = tracer.wrap(obj, span, COUNTERS.get(span))
    for (modname, clsname, attr), span in METHODS.items():
        cls = getattr(importlib.import_module(modname), clsname)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, span)))
        else:
            setattr(cls, attr, tracer.wrap(raw, span))
    # rebind the module attributes and every `from ... import` alias
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sympkit"
                               or modname.startswith("sympkit.")):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    census = sys.modules["sympkit.finite_census"]
    census.ThreadPoolExecutor = tracer.executor_class()


def covered(intervals, lo=float("-inf"), hi=float("inf")):
    "Length of the union of intervals, clipped to [lo, hi]."
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(records):
    """Self time of each span record: duration minus the union of its
    children's intervals (children may overlap when they run in threads)."""
    children = [[] for _ in records]
    for rec in records:
        if rec[3] is not None:
            children[rec[3]].append((rec[1], rec[2]))
    return [max(0.0, (rec[2] - rec[1])
                - covered(children[k], rec[1], rec[2]))
            for k, rec in enumerate(records)]
