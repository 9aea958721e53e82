"""Spans and call counters for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into orbitlab and
around the public functions that `orbitlab.experiment` and `orbitlab.cli`
call (by swapping the module attributes for the length of one pass).  Map
evaluations are too many for one span each, so `CountingMap` only adds their
count and time to per-kind counters and to the enclosing span, which lets
the self time of a span exclude the map evaluations made under it.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from orbitlab import PerturbedMap

_now = time.perf_counter

# Map-evaluation kinds: 1-D single points, 1-D arrays, N-D points and arrays.
DYNAMICS_KINDS = ("scalar", "vector", "nd")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "dyn_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.child_s = 0.0  # time covered by direct child spans
        self.dyn_s = 0.0  # time of map evaluations made directly under it

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s - self.dyn_s


class Tracer:
    """In-memory spans of one pass plus named counters."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = 0
        self.counters: dict = {}
        self.dynamics = {kind: [0, 0, 0.0] for kind in DYNAMICS_KINDS}  # calls, points, s

    @contextmanager
    def span(self, name: str, op: bool = False):
        """Time a block.  `op=True` starts a new operation id; other spans
        inherit the operation id of their parent."""
        parent = self._stack[-1] if self._stack else None
        if op:
            self._op += 1
            op_id = self._op
        else:
            op_id = self.spans[parent].op if parent is not None else None
        s = Span(name, _now(), parent, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = _now()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += s.seconds

    def wrap(self, name: str, fn, op: bool = False, on_result=None, on_error=None):
        """`fn` with every call inside a span; `on_result(value)` and
        `on_error(exc)` see the outcome before it is returned or raised."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, op=op):
                try:
                    value = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
            if on_result is not None:
                on_result(value)
            return value

        return traced

    def add(self, name: str, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def add_dynamics(self, kind: str, seconds: float, points: int = 1):
        row = self.dynamics[kind]
        row[0] += 1
        row[1] += points
        row[2] += seconds
        if self._stack:
            self.spans[self._stack[-1]].dyn_s += seconds

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def dump(self) -> list:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "op": s.op,
                "self_s": s.self_s,
            }
            for s in self.spans
        ]


def write_dump(path: str, passes: list):
    """Write the spans of every traced pass as one JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([t.dump() for t in passes], fh)
        fh.write("\n")


class CountingMap(PerturbedMap):
    """PerturbedMap that reports each evaluation to a tracer.

    Surgeries extend a map with `with_term`; the result stays a CountingMap,
    so the corrected map is counted too.
    """

    def __init__(self, base, perturbation=None, *, tracer: Tracer):
        super().__init__(base, perturbation)
        self.tracer = tracer
        self._point_kind = "scalar" if base.dim == 1 else "nd"
        self._array_kind = "vector" if base.dim == 1 else "nd"

    def with_term(self, term) -> "CountingMap":
        return CountingMap(self.base, self.terms + (term,), tracer=self.tracer)

    def evaluate(self, x):
        t = _now()
        y = super().evaluate(x)
        self.tracer.add_dynamics(self._point_kind, _now() - t)
        return y

    def derivative(self, x):
        t = _now()
        d = super().derivative(x)
        self.tracer.add_dynamics(self._point_kind, _now() - t)
        return d

    def jac(self, x):
        t = _now()
        J = super().jac(x)
        self.tracer.add_dynamics(self._point_kind, _now() - t)
        return J

    def eval_many(self, xs):
        t = _now()
        y = super().eval_many(xs)
        self.tracer.add_dynamics(self._array_kind, _now() - t, len(xs))
        return y

    def deriv_many(self, xs):
        t = _now()
        d = super().deriv_many(xs)
        self.tracer.add_dynamics(self._array_kind, _now() - t, len(xs))
        return d
