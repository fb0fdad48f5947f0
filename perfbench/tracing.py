"""Spans at the layer boundaries of harbourne, for the traced pass only.

``install()`` wraps every public function of every harbourne module and
rebinds the wrapper in each module that imported the function (for
example ``validate`` in profiles, geometry, cremona and cli).  It also
patches ``FieldElement``'s +, -, * and inverse and
``ConfigurationProfile.__post_init__`` on the classes, the public
methods of ``covers.FormalExpr``, and sympy's ``resultant``,
``factor_list``, ``gcd`` and ``expand`` as called from exactfield.

A span is (name, start, end, parent), kept in flat arrays in memory and
written out by ``finish``.  Functions named in ``NAMES`` are layer
boundaries and always open a span; any other public function opens one
only when called from another module, so a module's own helpers count
in its callers' self time.  A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "exactfield", "geometry", "profiles", "hconst", "constraints",
    "search", "cremona", "covers", "documents", "cli",
)

# Span names of the boundary functions; the rest are "<module>.<function>".
NAMES = {
    "geometry.extract_profile": "geometry.extract_profile",
    "profiles.validate": "profiles.validate",
    "profiles.moments": "profiles.moments",
    "hconst.local_h": "hconst.local_h",
    "constraints.positivity_quadratic": "constraints.filter",
    "constraints.holds_over_integers": "constraints.filter",
    "constraints.hirzebruch_one_one": "constraints.filter",
    "constraints.classify_conic_case": "constraints.classify_conic_case",
    "search.minimize_h": "search.minimize_h",
    "cremona.cremona_profile": "cremona.cremona_profile",
    "documents.profile_from_document": "documents.parse",
    "documents.geometry_from_document": "documents.parse",
    "documents.parse_rational": "documents.parse",
    "documents.profile_to_document": "documents.emit",
    "documents.class_to_document": "documents.emit",
    "documents.format_rational": "documents.emit",
}
WHOLE_MODULE = {"covers": "covers", "cli": "cli.main"}
FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__")
SYMPY_CALLS = ("resultant", "factor_list", "gcd", "expand")

# The per-layer metrics a traced run reports (trace.overhead_ratio is
# added by the runner), with their units.
METRICS = {
    "exactfield.roots_in_field.q.calls": "count",
    "exactfield.roots_in_field.q.self_s": "s",
    "exactfield.roots_in_field.nf.calls": "count",
    "exactfield.roots_in_field.nf.self_s": "s",
    "exactfield.sympy.calls": "count",
    "exactfield.sympy.s": "s",
    "exactfield.norm_shifts_per_call": "ratio",
    "exactfield.field_ops.calls": "count",
    "exactfield.field_ops.self_s": "s",
    "exactfield.inverse.calls": "count",
    "geometry.intersect.line_line.calls": "count",
    "geometry.intersect.line_line.self_s": "s",
    "geometry.intersect.line_conic.calls": "count",
    "geometry.intersect.line_conic.self_s": "s",
    "geometry.intersect.conic_conic.calls": "count",
    "geometry.intersect.conic_conic.self_s": "s",
    "geometry.extract_profile.self_s": "s",
    "profiles.validate.calls": "count",
    "profiles.validate.self_s": "s",
    "profiles.moments.calls": "count",
    "profiles.moments.self_s": "s",
    "profiles.profile_new.calls": "count",
    "hconst.local_h.calls": "count",
    "hconst.local_h.self_s": "s",
    "constraints.filter.calls": "count",
    "constraints.filter.self_s": "s",
    "constraints.classify_conic_case.self_s": "s",
    "search.enumerate_profiles.yielded": "count",
    "search.minimize_h.self_s": "s",
    "search.filter_pass_ratio": "ratio",
    "cremona.cremona_profile.self_s": "s",
    "covers.self_s": "s",
    "documents.parse.self_s": "s",
    "documents.emit.self_s": "s",
    "cli.main.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.modules: list = []  # module of each name id
        self.ids: dict = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = [-1]
        self.counters: dict = {}

    def intern(self, name: str, module: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.modules.append(module)
        return self.ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def reset(self) -> None:
        for arr in (self.name, self.start, self.end, self.parent):
            del arr[:]
        self.counters.clear()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, nid, module: str, always: bool, name_of=None):
        """Wrapper that records a span named ``nid`` (or ``name_of(args)``)."""
        name_a, start_a, end_a, parent_a, stack = (
            self.name, self.start, self.end, self.parent, self.stack)
        modules = self.modules
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if not always and top >= 0 and modules[name_a[top]] == module:
                return fn(*args, **kwargs)
            i = len(start_a)
            name_a.append(nid if name_of is None else name_of(args))
            parent_a.append(top)
            end_a.append(0)
            stack.append(i)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()

        return wrapper

    def wrap_generator(self, fn, nid, counter: str):
        """Each resumption of the generator is a span; yielded items are counted."""
        span = self.wrap(next, nid, "", True)
        counters = self.counters

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = span(it)
                except StopIteration:
                    return
                counters[counter] = counters.get(counter, 0) + 1
                yield item

        return wrapper

    # -- output --------------------------------------------------------------

    def finish(self, path: str) -> dict:
        """Write the spans out and return the per-layer metrics."""
        n = len(self.start)
        with open(path, "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({
                "spans": n,
                "arrays": ["name:H", "start_ns:q", "end_ns:q", "parent:l"],
                "names": self.names,
                "counters": self.counters,
            }, fh)

        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            d = end[i] - start[i]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - child[i]

        def get(name, table):
            nid = self.ids.get(name)
            return 0 if nid is None else table[nid]

        out = {}
        for metric in METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = get(base, calls)
            elif kind == "self_s":
                out[metric] = get(base, own) / 1e9
        nf_roots = get("exactfield.roots_in_field.nf", calls)
        enumerated = self.counters.get("search.enumerated", 0)
        out.update({
            "exactfield.sympy.s": get("exactfield.sympy", total) / 1e9,
            "exactfield.norm_shifts_per_call":
                self.counters.get("sympy.resultant", 0) / nf_roots if nf_roots else 0.0,
            "search.enumerate_profiles.yielded": self.counters.get("search.yielded", 0),
            "search.filter_pass_ratio":
                self.counters.get("search.filtered", 0) / enumerated if enumerated else 0.0,
        })
        return out


def install() -> Tracer:
    """Import harbourne and sympy, patch them, and return the tracer."""
    import sympy

    tracer = Tracer()
    mods = {name: importlib.import_module(f"harbourne.{name}") for name in LAYERS}
    package = sys.modules["harbourne"]
    replaced = {}

    for name, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            replaced[id(fn)] = _wrapper_for(tracer, name, attr, fn, mods)
    for mod in [package, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])

    ef = mods["exactfield"]
    ops = tracer.intern("exactfield.field_ops", "exactfield")
    for attr in FIELD_OPS:
        setattr(ef.FieldElement, attr,
                tracer.wrap(getattr(ef.FieldElement, attr), ops, "exactfield", True))
    ef.FieldElement.inverse = tracer.wrap(
        ef.FieldElement.inverse, tracer.intern("exactfield.inverse", "exactfield"),
        "exactfield", True)
    prof = mods["profiles"].ConfigurationProfile
    prof.__post_init__ = tracer.wrap(
        prof.__post_init__, tracer.intern("profiles.profile_new", "profiles"), "profiles", True)
    expr = mods["covers"].FormalExpr
    covers_id = tracer.intern("covers", "covers")
    for attr, fn in list(vars(expr).items()):
        if not attr.startswith("_") and inspect.isfunction(fn):
            setattr(expr, attr, tracer.wrap(fn, covers_id, "covers", False))

    sympy_id = tracer.intern("exactfield.sympy", "sympy")
    for attr in SYMPY_CALLS:
        setattr(sympy, attr, _sympy_wrapper(tracer, getattr(sympy, attr), sympy_id, attr))
    return tracer


def _wrapper_for(tracer: Tracer, module: str, attr: str, fn, mods):
    qual = f"{module}.{attr}"
    if qual == "search.enumerate_profiles":
        return tracer.wrap_generator(fn, tracer.intern(qual, module), "search.yielded")
    if qual == "search.minimize_h":
        inner = tracer.wrap(fn, tracer.intern(qual, module), module, True)

        def minimize_h(query):
            result = inner(query)
            tracer.count("search.enumerated", result.enumerated_count)
            tracer.count("search.filtered", result.filtered_count)
            return result

        return minimize_h
    if qual == "exactfield.roots_in_field":
        ids = {kind: tracer.intern(f"{qual}.{kind}", module) for kind in ("q", "nf")}
        return tracer.wrap(fn, None, module, True,
                           lambda args: ids["q" if args[1].is_rational else "nf"])
    if qual == "geometry.intersect":
        line = mods["geometry"].CurveForm.LINE
        ids = {n: tracer.intern(f"{qual}.{n}", module)
               for n in ("line_line", "line_conic", "conic_conic")}

        def kind(args):
            lines = (args[0].form is line) + (args[1].form is line)
            return ids[("conic_conic", "line_conic", "line_line")[lines]]

        return tracer.wrap(fn, None, module, True, kind)
    if qual in NAMES or module in WHOLE_MODULE:
        name = NAMES.get(qual) or WHOLE_MODULE[module]
        return tracer.wrap(fn, tracer.intern(name, module), module, True)
    return tracer.wrap(fn, tracer.intern(qual, module), module, False)


def _sympy_wrapper(tracer: Tracer, fn, nid: int, attr: str):
    traced = tracer.wrap(fn, nid, "sympy", True)

    def wrapper(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") != "harbourne.exactfield":
            return fn(*args, **kwargs)
        tracer.count(f"sympy.{attr}")
        return traced(*args, **kwargs)

    return wrapper
