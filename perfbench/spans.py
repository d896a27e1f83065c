"""Span recorder for the traced benchmark run.

The recorder wraps the public functions and methods listed in TARGETS from
outside the package.  Every call to a wrapped name records one span: its
layer name, start, end, parent span and op id.  A function bound into other
modules by ``from ... import`` is replaced in every module namespace that
holds it, and ``install`` refuses to trace if any binding of an original is
left behind.

Spans are kept in memory, in flat arrays, for the op that produced them.
When the op ends they are reduced to per-layer totals (calls, self time,
items returned) and the arrays are cleared, so memory stays bounded however
long the run is.  Spans recorded between ops, while the benchmark checks
outputs, are dropped.  A layer's self time is its span time minus the time
of its child spans; the op's root span ``bench.op`` gets the time no layer
claims.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

import fibfourier.cli
import fibfourier.cutproject
import fibfourier.discretize
import fibfourier.fibonacci
import fibfourier.fourier
import fibfourier.ztau

ROOT = "bench.op"
CALIBRATE = "bench.calibrate"

# (layer name, owner, attribute, count the length of the result)
TARGETS = [
    ("ztau.embed", fibfourier.ztau.ZTau, "embed", False),
    ("ztau.embed", fibfourier.ztau.QTau, "embed", False),
    ("cutproject.enumerate_model_set", fibfourier.cutproject, "enumerate_model_set", True),
    ("cutproject.frequency_representatives", fibfourier.cutproject, "frequency_representatives", False),
    ("cutproject.contains_star", fibfourier.cutproject.Window, "contains_star", False),
    ("cutproject.contains_star", fibfourier.cutproject.ApproxWindow, "contains_star", False),
    ("fibonacci.local_eval", fibfourier.fibonacci.LocalFunction, "__call__", False),
    ("fibonacci.linear_pieces", fibfourier.fibonacci.LocalFunction, "linear_pieces", True),
    ("fibonacci.context_ensure", fibfourier.fibonacci.PointContext, "ensure", False),
    ("fibonacci.lift_eval", fibfourier.fibonacci.TorusLift, "evaluate_torus", False),
    ("discretize.path_decomposition", fibfourier.discretize, "path_decomposition", False),
    ("discretize.data_points", fibfourier.discretize, "data_points", False),
    ("discretize.strip_projection_oracle", fibfourier.discretize, "strip_projection_oracle", False),
    ("discretize.compare_data_points", fibfourier.discretize, "compare_data_points", False),
    ("discretize.error_estimate", fibfourier.discretize, "error_estimate", False),
    ("discretize.quadrature", fibfourier.discretize, "cell_quadrature", False),
    ("discretize.quadrature", fibfourier.discretize, "data_quadrature", False),
    ("fourier.coeff_exact", fibfourier.fourier, "coeff_exact", False),
    ("fourier.coeff_integral", fibfourier.fourier, "coeff_integral", False),
    ("fourier.coeff_sum", fibfourier.fourier, "coeff_sum", False),
    ("fourier.build_approximant", fibfourier.fourier, "build_approximant", False),
    ("fourier.approximant_eval", fibfourier.fourier.Approximant, "evaluate", False),
    ("fourier.sup_error", fibfourier.fourier, "sup_error", False),
    ("fourier.cos_baseline", fibfourier.fourier, "cos_baseline", False),
    ("cli.main", fibfourier.cli, "main", False),
]


class TraceError(RuntimeError):
    """The trace cannot be trusted: a binding was missed or spans do not add up."""


def _is_module(owner) -> bool:
    return isinstance(owner, type(sys))


class Tracer:
    """Installs span-recording wrappers and reduces spans per op."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.layers = [ROOT, CALIBRATE] + sorted({name for name, *_ in targets})
        self._id = {name: i for i, name in enumerate(self.layers)}
        self._names = array("i")
        self._parents = array("i")
        self._ops = array("i")
        self._starts = array("d")
        self._ends = array("d")
        # parent of the next span; -1 outside ops, where spans are dropped
        self._stack: list[int] = [-1]
        self._op = 0
        # (namespace, attribute, original) for every replaced binding
        self._patched: list[tuple[object, str, object]] = []
        # id -> object; the objects are held so their ids stay unique
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}
        n = len(self.layers)
        self.calls = np.zeros(n, dtype=np.int64)
        self.self_s = np.zeros(n)
        self.items = np.zeros(n, dtype=np.int64)
        self.regrowths = 0
        self.ops = 0
        self.spans = 0
        self.wall_s = 0.0
        self.max_gap_s = 0.0

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, count_items: bool):
        nid = self._id[name]
        names, parents, ops = self._names, self._parents, self._ops
        starts, ends, stack = self._starts, self._ends, self._stack
        items = self.items
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer._op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count_items:
                items[nid] += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def install(self) -> None:
        """Wrap every target in its owner and in every module binding it."""
        if self._patched:
            raise TraceError("tracer already installed")
        modules = [m for m in list(sys.modules.values()) if _is_module(m)]
        for name, owner, attr, count_items in self.targets:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, count_items)
            self._originals[id(original)] = original
            if not _is_module(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            # the defining module and every module that imported the name
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        self.verify_installed()

    def _patch(self, namespace, attr, original, wrapper) -> None:
        setattr(namespace, attr, wrapper)
        self._patched.append((namespace, attr, original))

    def _bindings(self, objects: dict[int, object]) -> list[str]:
        """Names in loaded modules and target classes bound to any of `objects`."""
        found = [
            f"{module.__name__}.{key}"
            for module in list(sys.modules.values())
            if _is_module(module)
            for key, value in list(vars(module).items())
            if id(value) in objects
        ]
        found += [
            f"{owner.__qualname__}.{attr}"
            for _, owner, attr, _ in self.targets
            if not _is_module(owner) and id(owner.__dict__[attr]) in objects
        ]
        return sorted(found)

    def unpatched_bindings(self) -> list[str]:
        """Bindings that still hold an original target after install."""
        return self._bindings(self._originals)

    def leftover_wrappers(self) -> list[str]:
        """Bindings that still hold one of our wrappers."""
        return self._bindings(self._wrappers)

    def verify_installed(self) -> None:
        missed = self.unpatched_bindings()
        if missed:
            raise TraceError("unwrapped bindings of traced names: " + ", ".join(missed))

    def remove(self) -> None:
        """Restore every binding and check that no wrapper is left."""
        self.verify_installed()
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()
        left = self.leftover_wrappers()
        if left:
            raise TraceError("wrappers left after removal: " + ", ".join(left))

    # -- ops --------------------------------------------------------------

    def begin_op(self) -> None:
        """Open an op's root span, dropping spans recorded since the last op."""
        if self._stack != [-1]:
            raise TraceError("op started inside another op")
        del self._names[:], self._parents[:], self._ops[:], self._starts[:], self._ends[:]
        self._op += 1
        self._names.append(self._id[ROOT])
        self._parents.append(-1)
        self._ops.append(self._op)
        self._ends.append(0.0)
        self._stack.append(0)
        self._starts.append(time.perf_counter())

    def end_op(self, wall_s: float) -> None:
        """Close the op's root span and fold its spans into the totals.

        `wall_s` is the op's wall time measured by the caller around
        begin_op/end_op; the layer self times must add up to it.
        """
        self._ends[0] = time.perf_counter()
        if self._stack != [-1, 0]:
            raise TraceError(f"unbalanced spans at op end: stack {self._stack}")
        self._stack.pop()
        names = np.frombuffer(self._names, dtype=np.int32).copy()
        parents = np.frombuffer(self._parents, dtype=np.int32).copy()
        ops = np.frombuffer(self._ops, dtype=np.int32).copy()
        dur = np.frombuffer(self._ends, dtype=np.float64) - np.frombuffer(self._starts, dtype=np.float64)
        del self._names[:], self._parents[:], self._ops[:], self._starts[:], self._ends[:]

        if (ops != ops[0]).any():
            raise TraceError("spans of several ops mixed in one reduction")
        child = np.bincount(parents[1:], weights=dur[1:], minlength=len(dur))
        own = dur - child
        if own.min() < -1e-7:
            raise TraceError(f"negative self time {own.min():.3g}s: spans overlap")
        total = own.sum()
        if abs(total - dur[0]) > 1e-9 * max(1, len(dur)) + 1e-9:
            raise TraceError(f"self times sum to {total:.9f}s, root span is {dur[0]:.9f}s")
        gap = abs(wall_s - total)
        if gap > 1e-3 + 0.01 * wall_s:
            raise TraceError(f"self times sum to {total:.6f}s, op wall time is {wall_s:.6f}s")
        self.max_gap_s = max(self.max_gap_s, gap)

        n = len(self.layers)
        self.calls += np.bincount(names, minlength=n)
        self.self_s += np.bincount(names, weights=own, minlength=n)
        # a regrowth is a PointContext.ensure span with an enumeration inside
        enum_id = self._id.get("cutproject.enumerate_model_set")
        ensure_id = self._id.get("fibonacci.context_ensure")
        if enum_id is not None and ensure_id is not None:
            enum_parents = parents[names == enum_id]
            self.regrowths += len(np.unique(enum_parents[names[enum_parents] == ensure_id]))
        self.ops += 1
        self.spans += len(dur)
        self.wall_s += wall_s

    def layer(self, name: str) -> int:
        return self._id[name]


def span_cost(repeats: int = 20000) -> float:
    """Seconds one span adds to a call, timed on a wrapped empty function."""

    def empty():
        return None

    probe = Tracer(targets=[])
    wrapped = probe._wrap(empty, CALIBRATE, False)
    clock = time.perf_counter
    best_plain = best_wrapped = float("inf")
    for _ in range(5):
        t0 = clock()
        for _ in range(repeats):
            empty()
        t1 = clock()
        probe.begin_op()
        t2 = clock()
        for _ in range(repeats):
            wrapped()
        t3 = clock()
        probe.end_op(clock() - t2)
        best_plain = min(best_plain, t1 - t0)
        best_wrapped = min(best_wrapped, t3 - t2)
    return max(0.0, (best_wrapped - best_plain) / repeats)
