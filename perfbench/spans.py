"""Span tracing for the benchmark's traced run.

The traced run measures each zonokit layer (one package module) without
editing the package: :func:`traced` wraps the public functions of every
layer module, plus a few foreign calls the layers make (scipy's
``linprog`` inside ``numerics`` and ``oracle``, Qhull's ``ConvexHull``
inside ``oracle``, and ``LpBuilder.build``), and rebinds every
``zonokit.*`` module attribute that refers to a wrapped object, because
``from .x import f`` import sites hold their own references.  Leaving
the context restores every original object.

A span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span or -1.  Spans stay in memory and are aggregated or
written out once the run ends.
"""

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("sets", "numerics", "halfspaces", "reduction", "containment",
          "hull", "invariance", "pontryagin", "reach", "oracle", "io")

# Foreign or class-level callables wrapped in addition to the layers'
# public functions: (module, attribute path, span name).
EXTRA_TARGETS = (
    ("numerics", "linprog", "numerics.linprog"),
    ("numerics", "LpBuilder.build", "numerics.LpBuilder.build"),
    ("oracle", "linprog", "oracle.linprog"),
    ("oracle", "ConvexHull", "oracle.ConvexHull"),
)


class Tracer:
    """Collects spans and per-function outcome counters from the
    wrappers it makes."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._hooks = {}

    def on_call(self, name, hook):
        """Run ``hook(counts, args, kwargs, result)`` after each traced
        call of ``name``; ``counts`` is the tracer's counter dict."""
        self._hooks[name] = hook

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced_call(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            hook = self._hooks.get(name)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced_call.__wrapped__ = fn
        traced_call.__name__ = getattr(fn, "__name__", name)
        return traced_call


def _layer_functions(package):
    """(function, span name) for each public function defined in a layer
    module."""
    found = []
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                found.append((value, f"{layer}.{attr}"))
    return found


@contextmanager
def traced(tracer, package="zonokit"):
    """Install the tracer's wrappers for the duration of the block.

    Yields the list of ``(owner, attribute, original)`` rebinds, which
    are undone in reverse order on exit.
    """
    __import__(package)
    for layer in LAYERS:
        __import__(f"{package}.{layer}")
    wrappers = {}
    for fn, name in _layer_functions(package):
        wrappers[id(fn)] = (fn, tracer.wrap(name, fn))

    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package
                                     or key.startswith(package + "."))]
    rebinds = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    rebinds.append((module, attr, value))
        for layer, path, name in EXTRA_TARGETS:
            owner = sys.modules[f"{package}.{layer}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(name, original))
            rebinds.append((owner, attr, original))
        yield rebinds
    finally:
        for owner, attr, original in reversed(rebinds):
            setattr(owner, attr, original)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - union_length(children[i])
            for i, (name, start, end, parent) in enumerate(spans)]


def summarize(spans, wall):
    """Per-name ``calls``, ``busy_s`` and ``self_s`` plus per-layer self
    time and ``other.self_s``, over spans recorded during ``wall`` seconds
    of traced passes.

    ``busy_s`` is the union of a name's spans, so a function nested in
    itself is not counted twice.  ``other.self_s`` is the wall time no
    span covers; it and the per-layer self times add up to ``wall``.
    """
    out = defaultdict(float)
    by_name = defaultdict(list)
    selfs = self_times(spans)
    for (name, start, end, parent), own in zip(spans, selfs):
        by_name[name].append((start, end))
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[f"{name.split('.', 1)[0]}.self_s"] += own
    for name, intervals in by_name.items():
        out[f"{name}.busy_s"] = union_length(intervals)
    top = [(start, end) for name, start, end, parent in spans if parent < 0]
    out["other.self_s"] = wall - union_length(top)
    return out
