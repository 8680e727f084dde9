"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps the public functions and methods of each lieext
module from the outside: methods are replaced on their class, and a module
function is replaced in every ``lieext.*`` namespace that holds it, since
the modules bind names with ``from .linalg import kernel``.  Scalar and
vector helpers called millions of times are only counted; every other
wrapped call records a span (name, start, end, parent span, job id) in
flat arrays, written out once when the run ends.  Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("fields", "linalg", "algebra", "extremal", "sl2", "classify",
          "freepoly", "certscript", "cli")

# Scalar ops, vector helpers and per-term table lookups run millions of
# times per cycle: they are counted without a span, so their time stays in
# the caller's self time.
COUNT_ONLY_PREFIXES = ("fields.Field.", "linalg.vec_", "linalg.zero_vec", "linalg.unit_vec",
                       "algebra.LieAlgebra.basis_terms", "algebra.LieAlgebra.basis_vector")

# Span columns and their array type codes: clock in ns, then indices.
SPAN_FIELDS = {"start": "q", "end": "q", "name": "i", "parent": "i", "job": "i"}


def _insert_accepted(args, result):
    return 1, int(bool(result))


def _element_hit(args, result):
    return 1, int(result.kind != "not_extremal")


def _irreducible_words(args, result):
    algebra, _, degree = args[:3]
    letters = len(algebra.alphabet)
    return sum(letters**k for k in range(degree + 1)), len(result)


# name -> (ratio metric, fn(args, result) -> (attempts, useful outcomes))
OBSERVERS = {
    "linalg.GrowingSpan.insert": ("accept_ratio", _insert_accepted),
    "extremal.classify_element": ("hit_ratio", _element_hit),
    "freepoly.span_closure": ("irreducible_ratio", _irreducible_words),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.counts = []            # per name: calls of count-only callables
        self.observed = {}          # name id -> [attempts, useful]
        self.spans = {f: array(code) for f, code in SPAN_FIELDS.items()}
        self.stack = [-1]
        self.job = -1

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public callable of the layer modules."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lieext.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if name == "lieext" or name.startswith("lieext."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped and inspect.isfunction(obj):
                        setattr(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                kind = type(obj)
                setattr(cls, attr, kind(self._wrap(obj.__func__, f"{prefix}.{attr}")))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, f"{prefix}.{attr}"))

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        self.counts.append(0)
        if name.startswith(COUNT_ONLY_PREFIXES):
            counts = self.counts

            def counted(*args, **kwargs):
                counts[nid] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)

        s = self.spans
        start, end, names, parent, job = (s[f] for f in SPAN_FIELDS)
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self
        observe = None
        if name in OBSERVERS:
            stats = self.observed.setdefault(nid, [0, 0])
            measure = OBSERVERS[name][1]

            def observe(args, result):
                attempts, useful = measure(args, result)
                stats[0] += attempts
                stats[1] += useful

        def traced(*args, **kwargs):
            i = len(start)
            start.append(clock())
            end.append(0)
            names.append(nid)
            parent.append(stack[-1])
            job.append(tracer.job)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- output --------------------------------------------------------------

    def dump(self, base):
        """Write the spans to ``base``.bin and the rest to ``base``.json."""
        n = len(self.spans["start"])
        with open(base + ".bin", "wb") as fh:
            for f in SPAN_FIELDS:
                self.spans[f].tofile(fh)
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": n, "names": self.names, "counts": self.counts,
                       "observed": {self.names[k]: v for k, v in self.observed.items()}}, fh)


def load(base):
    """Per-callable ``calls`` and ``self_s``, plus the observed ratios."""
    with open(base + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    cols = {}
    with open(base + ".bin", "rb") as fh:
        for f, code in SPAN_FIELDS.items():
            cols[f] = array(code)
            cols[f].fromfile(fh, n)
    start, end, name, parent = cols["start"], cols["end"], cols["name"], cols["parent"]
    names = meta["names"]
    calls = list(meta["counts"])
    self_ns = [0] * len(names)
    covered = [0] * n       # time of a span covered by its children
    # Children come after their parent, so walking backwards completes a
    # span's covered time before the span itself is reached.
    for i in range(n - 1, -1, -1):
        dur = end[i] - start[i]
        calls[name[i]] += 1
        self_ns[name[i]] += dur - covered[i]
        if parent[i] >= 0:
            covered[parent[i]] += dur
    out = {}
    for nid, nm in enumerate(names):
        out[f"{nm}.calls"] = calls[nid]
        if not nm.startswith(COUNT_ONLY_PREFIXES):
            out[f"{nm}.self_s"] = self_ns[nid] / 1e9
    for nm, (attempts, useful) in meta["observed"].items():
        out[f"{nm}.{OBSERVERS[nm][0]}"] = useful / attempts if attempts else 0.0
    return out, n
