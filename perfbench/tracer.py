"""In-memory span tracer that instruments a package from the outside.

The tracer replaces functions and methods of an already imported package
with thin wrappers and puts the originals back afterwards.  A function is
replaced under every name that is bound to it: the defining module, every
module that imported it with ``from .x import f``, and every alias in a
class body (``__radd__ = __add__``).  Modules named in ``skip`` keep their
own bindings, so calls made inside a leaf module (the kernels calling
their helpers) stay inside the leaf's span.

Spans are tuples ``(name, start, end, parent, op)`` held in a list in
memory; ``parent`` is the index of the enclosing span in the same op, or
-1.  Calls too short for a span of their own are only counted.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import NamedTuple

__all__ = ["Target", "Tracer", "self_times"]


class Target(NamedTuple):
    """One function to instrument.

    kind is one of:
      span       time every call as a span named ``name``;
      count      only count calls, under ``name``;
      distinct   count calls and the distinct values of the first
                 argument after ``self`` (cache key), under ``name``;
      keys       span, and add ``len(result.data)`` to ``<name>.keys``;
      evaluator  span, and wrap the returned callable in a span named
                 ``<name>.eval`` that counts its broadcast points.
    """

    module: str
    qualname: str
    name: str
    kind: str = "span"


def _resolve(module: str, qualname: str):
    owner = sys.modules[module]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self, package: str, skip=()):
        self.package = package
        self.skip = tuple(skip)
        self.spans = []
        self.stack = [-1]
        self.op = -1
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.patches = []

    # -- install / uninstall ---------------------------------------------

    def _modules(self):
        out = []
        for name, mod in list(sys.modules.items()):
            if mod is None or name.startswith(self.skip):
                continue
            if name == self.package or name.startswith(self.package + "."):
                out.append(mod)
        return out

    def install(self, targets):
        modules = self._modules()
        for target in targets:
            owner, attr = _resolve(target.module, target.qualname)
            if isinstance(owner, type):
                original = vars(owner)[attr]
                holders = [owner]
            else:
                original = getattr(owner, attr)
                holders = modules
            wrapper = self._wrap(original, target)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self.patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self.patches:
            holder, key, original = self.patches.pop()
            setattr(holder, key, original)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, target):
        name, kind = target.name, target.kind
        if kind == "count":
            return self._counter(fn, name)
        if kind == "distinct":
            return self._distinct_counter(fn, name)
        if kind == "keys":
            counts = self.counts
            key = name + ".keys"

            def on_keys(result):
                counts[key] += len(result.data)
                return result

            return self._span(fn, name, on_keys)
        if kind == "evaluator":
            return self._span(fn, name, lambda f: self._evaluator(f, name + ".eval"))
        if kind == "span":
            return self._span(fn, name)
        raise ValueError(f"unknown target kind {kind!r}")

    def _span(self, fn, name, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            return result if post is None else post(result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _distinct_counter(self, fn, name):
        counts, seen = self.counts, self.distinct[name]

        def wrapper(self_, key, *args, **kwargs):
            counts[name] += 1
            seen.add(key)
            return fn(self_, key, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _evaluator(self, fn, name):
        counts = self.counts
        points_key = name + ".points"

        def counted(*points):
            size = 1
            for p in points:
                size = max(size, getattr(p, "size", 1))
            counts[points_key] += size
            return fn(*points)

        return self._span(counted, name)

    # -- ops -------------------------------------------------------------

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) as op number ``op`` under a root span named "op"."""
        self.op = op
        try:
            return self._span(fn, "op")(*args)
        finally:
            self.op = -1

    def take(self):
        """Remove and return (spans, counts, distinct sizes) gathered so far."""
        spans = list(self.spans)
        self.spans.clear()
        counts = dict(self.counts)
        self.counts.clear()
        distinct = {k: len(v) for k, v in self.distinct.items()}
        for v in self.distinct.values():
            v.clear()
        return spans, counts, distinct


def self_times(spans):
    """Self time of every span: its duration minus the union of the parts
    of its children's intervals that lie inside it."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        lo = hi = None
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, start), min(c1, end)
            if c1 <= c0:
                continue
            if hi is None or c0 > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c0, c1
            else:
                hi = max(hi, c1)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out
