"""Spans and counters recorded from outside the library.

A `Tracer` keeps every span in memory: name, start, end, parent, the op it
belongs to, and the time covered by its children.  Two kinds of wrapper feed
it:

* `patch_modules` rebinds the public functions of every entrogeo layer
  module (and the names other modules imported from them) to span-recording
  wrappers for the duration of a `with` block, so calls made inside the
  library (for example `cli` calling `geometry.div_connections`) are seen.
* `instrument` rebuilds `EntropyFunctional`, `DivergenceFunctional` and
  `StatModel` objects with counting `fn` / `gradient` / `prob_fn` /
  `in_domain`.  These hot leaf calls are aggregated (calls, seconds, rows)
  per op instead of stored one by one, and their time counts as child time
  of the enclosing span.

Self time of a span is its duration minus `child_s`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

PACKAGE = "entrogeo"
LAYERS = (
    "probability",
    "formal_group",
    "hf_entropy",
    "composition",
    "divergence",
    "geometry",
    "maxent",
    "cli",
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    attrs: dict
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._in_leaf = 0
        # leaf name -> op span index -> [calls, seconds, rows]
        self.leaves: dict[str, dict[int, list]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0])
        )

    # -- spans ---------------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, /, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        is_op = name == "op"
        span = Span(name, 0.0, parent, index if is_op else self._op, attrs)
        self.spans.append(span)
        self._stack.append(index)
        saved_op = self._op
        if is_op:
            self._op = index
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = saved_op
            if parent >= 0:
                self.spans[parent].child_s += span.duration

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_leaf:  # calls inside a leaf are part of the leaf's time
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def leaf(self, fn: Callable, name: str) -> Callable:
        """Count calls, seconds and weight rows of a hot leaf function."""

        def counted(*args, **kwargs):
            self._in_leaf += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._in_leaf -= 1
                cell = self.leaves[name][self._op]
                cell[0] += 1
                cell[1] += dt
                if args:
                    shape = np.shape(args[0])
                    cell[2] += int(np.prod(shape[:-1])) if len(shape) > 1 else 1
                if self._stack:
                    self.spans[self._stack[-1]].child_s += dt

        return counted

    # -- queries -------------------------------------------------------------------

    def ops(self) -> list[Span]:
        return [s for s in self.spans if s.name == "op"]

    def children(self) -> dict[int, list[Span]]:
        """Spans grouped by parent index."""
        out: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            out[s.parent].append(s)
        return out

    def leaf_totals(self, name: str, ops: list[Span]) -> tuple[int, float, int]:
        """(calls, seconds, rows) of a leaf summed over the given op spans."""
        table = self.leaves.get(name, {})
        calls = seconds = rows = 0
        for op in ops:
            cell = table.get(op.op)
            if cell:
                calls += cell[0]
                seconds += cell[1]
                rows += cell[2]
        return calls, seconds, rows

    def dump(self, path) -> None:
        """Write every span and leaf aggregate as JSON."""
        doc = {
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                    "self_s": s.self_s,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ],
            "leaves": {
                name: {str(op): cell for op, cell in table.items()}
                for name, table in self.leaves.items()
            },
        }
        path.write_text(json.dumps(doc, default=str))


# --- wrapping the library ------------------------------------------------------------


def _public_functions(module) -> dict[str, Callable]:
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            out[name] = obj
    return out


@contextlib.contextmanager
def patch_modules(tracer: Tracer):
    """Wrap the public functions of every layer module while the block runs."""
    modules = {
        layer: sys.modules[f"{PACKAGE}.{layer}"]
        for layer in LAYERS
        if f"{PACKAGE}.{layer}" in sys.modules
    }
    wrapped: dict[int, Callable] = {}
    for layer, module in modules.items():
        for name, fn in _public_functions(module).items():
            wrapped[id(fn)] = tracer.wrap(fn, f"{layer}.{name}")
    saved = []
    holders = [
        m for name, m in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    for holder in holders:
        for name, obj in list(vars(holder).items()):
            replacement = wrapped.get(id(obj))
            if replacement is not None:
                saved.append((holder, name, obj))
                setattr(holder, name, replacement)
    try:
        yield
    finally:
        for holder, name, obj in reversed(saved):
            setattr(holder, name, obj)


def instrument(obj: Any, tracer: Tracer, lib) -> Any:
    """Rebuild functionals and models inside `obj` with counting callables."""
    if isinstance(obj, dict):
        return {k: instrument(v, tracer, lib) for k, v in obj.items()}
    if isinstance(obj, list):
        return [instrument(v, tracer, lib) for v in obj]
    if isinstance(obj, tuple):
        return tuple(instrument(v, tracer, lib) for v in obj)
    if isinstance(obj, lib.DivergenceFunctional):
        return dataclasses.replace(obj, fn=tracer.leaf(obj.fn, "divergence.fn"))
    if isinstance(obj, lib.EntropyFunctional):
        grad = obj.gradient
        return dataclasses.replace(
            obj,
            fn=tracer.leaf(obj.fn, "hf_entropy.fn"),
            gradient=None if grad is None else tracer.leaf(grad, "hf_entropy.gradient"),
        )
    if isinstance(obj, lib.StatModel):
        return dataclasses.replace(
            obj,
            prob_fn=tracer.leaf(obj.prob_fn, "geometry.prob_fn"),
            in_domain=tracer.leaf(obj.in_domain, "geometry.in_domain"),
        )
    return obj
