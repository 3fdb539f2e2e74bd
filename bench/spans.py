"""Span recording around the library's layer boundaries, from outside.

``Tracer.install`` wraps the functions each ``subnormforge`` module exports
in every module namespace that bound them, plus the methods named in
``METHODS`` and the public methods of ``Interval``/``IntervalSet``; nothing
under ``src/`` changes and ``uninstall`` restores the originals.

Each call of a wrapped function records one span: name, unit id, parent
span and start/end in nanoseconds.  Spans are kept in flat arrays in
memory and written out by ``write`` when the run ends.  A span's self time
is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# Module-level functions wrapped per layer.  Names in a module's own
# namespace and in every other module that imported them are replaced.
FUNCTIONS = {
    "fnformat": ("parse_fn",),
    "pwfn": ("eval_fn", "side_limit", "pseudo_inverse", "pseudo_inverse_at",
             "first_arg_above", "range_of", "plateau_set", "decompose"),
    "tnorms": ("t_eval", "t_image", "t_power", "t_solve_x", "t_preimage"),
    "generated": ("f_eval", "make_op"),
    "classify": ("classify", "check_degenerate", "check_inclusion_conditions",
                 "check_prop_sufficient", "l_set_check", "check_cancellative",
                 "check_continuity", "check_archimedean", "arg_with_value",
                 "_assoc_search", "_neutral_search"),
    "oracle": ("consistency_harness", "check_property", "default_extra", "grid"),
}

# (layer, class, method, span name)
METHODS = (
    ("generated", "GeneratedOp", "f_at", "generated.f_at"),
    ("generated", "GeneratedOp", "finv_at", "generated.finv_at"),
    ("oracle", "_Memo", "__call__", "oracle.memo"),
)

INTERVAL_CLASSES = ("Interval", "IntervalSet")

HEADER_FIELDS = (("name", "i"), ("unit", "i"), ("parent", "i"),
                 ("start", "q"), ("end", "q"))


def _law_name(args):
    """check_property(op, prop, pts, ...) is always called with prop
    positional."""
    return f"oracle.law.{args[1]}"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.unit = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self.unit_id = -1
        self._stack = [-1]
        self._patches = []

    def __len__(self):
        return len(self.start)

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name, name_of=None, before=None, after=None):
        """``fn`` recording one span per call.  ``name_of(args)`` names the
        span per call; ``before(args)`` and ``after(args,
        result)`` update counters outside the span's own timing."""
        nid = self._id(name)
        ids, stack, tracer = self._id, self._stack, self
        name_a, unit_a, parent_a = self.name.append, self.unit.append, self.parent.append
        start_a, end_a, end = self.start.append, self.end.append, self.end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(end)
            name_a(nid if name_of is None else ids(name_of(args)))
            unit_a(tracer.unit_id)
            parent_a(stack[-1])
            end_a(0)
            stack.append(idx)
            start_a(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installing and removing wrappers -----------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_function(self, modules, layer, fname, **hooks):
        orig = getattr(modules[layer], fname)
        new = self.wrap(orig, f"{layer}.{fname.lstrip('_')}", **hooks)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, new)

    def _wrap_method(self, cls, attr, name, **hooks):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, **hooks))
        elif isinstance(raw, property):
            new = property(self.wrap(raw.fget, name, **hooks))
        else:
            new = self.wrap(raw, name, **hooks)
        self._patch(cls, attr, new)

    def install(self):
        import subnormforge
        from subnormforge.tnorms import Approx

        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if name.startswith("subnormforge.")}
        modules["subnormforge"] = subnormforge
        c = self.counts

        def count_approx(args, result):
            c["tnorms.t_eval.approx"] += isinstance(result, Approx)

        def count_verdicts(args, report):
            c["classify.calls"] += 1
            for prop, v in report.properties.items():
                c[f"classify.verdict.{v.status}"] += 1
                c[f"classify.decided.{prop}"] += v.status != "unknown"

        def count_checked(args, result):
            c["oracle.checked"] += result.checked

        hooks = {
            ("tnorms", "t_eval"): {"after": count_approx},
            ("classify", "classify"): {"after": count_verdicts},
            ("oracle", "check_property"): {"name_of": _law_name,
                                           "after": count_checked},
        }
        for layer, fnames in FUNCTIONS.items():
            for fname in fnames:
                self._wrap_function(modules, layer, fname,
                                    **hooks.get((layer, fname), {}))

        def f_hit(args):
            c["generated.f_cache.hits"] += args[1] in args[0]._f_cache

        def finv_hit(args):
            c["generated.finv_cache.hits"] += args[1] in args[0]._finv_cache

        def memo_hit(args):
            c["oracle.memo.hits"] += (args[1], args[2]) in args[0].cache

        method_hooks = {"f_at": f_hit, "finv_at": finv_hit, "__call__": memo_hit}
        for layer, cname, attr, name in METHODS:
            self._wrap_method(getattr(modules[layer], cname), attr, name,
                              before=method_hooks[attr])
        for cname in INTERVAL_CLASSES:
            cls = getattr(modules["intervals"], cname)
            for attr, raw in list(vars(cls).items()):
                if not attr.startswith("_") and (
                        callable(raw) or isinstance(raw, (staticmethod, property))):
                    self._wrap_method(cls, attr, f"intervals.{cname}.{attr}")

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Two dicts ``{name: (calls, self_ns)}``: over the spans inside
        units, and over the spans outside any unit."""
        n = len(self.start)
        start, end, parent, name, unit = (self.start, self.end, self.parent,
                                          self.name, self.unit)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(self.names)
        calls, self_ns = [0] * (2 * k), [0] * (2 * k)
        for i in range(n):
            j = name[i] + (k if unit[i] < 0 else 0)
            calls[j] += 1
            self_ns[j] += end[i] - start[i] - child[i]
        return tuple({self.names[j]: (calls[off + j], self_ns[off + j])
                      for j in range(k) if calls[off + j]} for off in (0, k))

    def write(self, path):
        """One JSON header line (span names, count, array layout), then the
        raw arrays in header order."""
        header = {"names": self.names, "count": len(self),
                  "arrays": [f"{f}:{t}" for f, t in HEADER_FIELDS],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in HEADER_FIELDS:
                getattr(self, field).tofile(fh)


# layers whose share of self time inside units is reported; fnformat only
# runs during set-up and is reported by parse_fn.self_s instead
LAYERS = ("intervals", "pwfn", "tnorms", "generated", "classify", "oracle")
CLASSIFY_CHECKS = ("check_degenerate", "check_inclusion_conditions",
                   "check_prop_sufficient", "l_set_check", "check_cancellative",
                   "check_continuity", "check_archimedean", "assoc_search",
                   "neutral_search")


def layer_metrics(tracer: Tracer, n: int) -> dict:
    """``{metric: (value, unit)}`` per unit over the ``n`` traced units;
    ``parse_fn`` is the total over the spans outside any unit (set-up)."""
    from subnormforge.classify import PROPERTIES
    from subnormforge.oracle import PROPERTY_NAMES

    times, setup_times = tracer.self_times()
    c = tracer.counts

    def calls(*names):
        return sum(times.get(nm, (0, 0))[0] for nm in names)

    def self_s(*names):
        return sum(times.get(nm, (0, 0))[1] for nm in names) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"fnformat.parse_fn.self_s":
         (setup_times.get("fnformat.parse_fn", (0, 0))[1] / 1e9, "s")}
    m["pwfn.eval_fn.calls"] = (calls("pwfn.eval_fn") / n, "calls/unit")
    for fname in ("eval_fn", "pseudo_inverse", "decompose", "plateau_set"):
        m[f"pwfn.{fname}.self_s"] = (self_s(f"pwfn.{fname}") / n, "s/unit")
    interval_names = [nm for nm in times if nm.startswith("intervals.")]
    m["intervals.calls"] = (calls(*interval_names) / n, "calls/unit")
    m["intervals.self_s"] = (self_s(*interval_names) / n, "s/unit")
    m["tnorms.t_eval.calls"] = (calls("tnorms.t_eval") / n, "calls/unit")
    m["tnorms.t_eval.self_s"] = (self_s("tnorms.t_eval") / n, "s/unit")
    m["tnorms.t_eval.approx_share"] = (
        ratio(c["tnorms.t_eval.approx"], calls("tnorms.t_eval")), "share")
    m["tnorms.t_image.self_s"] = (self_s("tnorms.t_image") / n, "s/unit")
    m["generated.f_eval.calls"] = (calls("generated.f_eval") / n, "calls/unit")
    m["generated.f_eval.self_s"] = (self_s("generated.f_eval") / n, "s/unit")
    m["generated.f_cache.hit_ratio"] = (
        ratio(c["generated.f_cache.hits"], calls("generated.f_at")), "share")
    m["generated.finv_cache.hit_ratio"] = (
        ratio(c["generated.finv_cache.hits"], calls("generated.finv_at")), "share")
    m["classify.classify.self_s"] = (self_s("classify.classify") / n, "s/unit")
    for check in CLASSIFY_CHECKS:
        m[f"classify.{check}.self_s"] = (self_s(f"classify.{check}") / n, "s/unit")
    n_verdicts = sum(c[f"classify.verdict.{s}"] for s in ("yes", "no", "unknown"))
    for status in ("yes", "no", "unknown"):
        m[f"classify.verdict.{status}"] = (
            ratio(c[f"classify.verdict.{status}"], n_verdicts), "share")
    for prop in PROPERTIES:
        m[f"classify.decided.{prop}"] = (
            ratio(c[f"classify.decided.{prop}"], c["classify.calls"]), "share")
    m["oracle.consistency_harness.self_s"] = (
        self_s("oracle.consistency_harness") / n, "s/unit")
    for law in PROPERTY_NAMES:
        m[f"oracle.law.{law}.self_s"] = (self_s(f"oracle.law.{law}") / n, "s/unit")
    m["oracle.memo.calls"] = (calls("oracle.memo") / n, "calls/unit")
    m["oracle.memo.hit_ratio"] = (ratio(c["oracle.memo.hits"], calls("oracle.memo")),
                                  "share")
    m["oracle.checked"] = (c["oracle.checked"] / n, "checks/unit")
    total = self_s(*times)
    for layer in LAYERS:
        mine = self_s(*[nm for nm in times if nm.startswith(layer + ".")])
        m[f"{layer}.self_share"] = (ratio(mine, total), "share")
    return m
