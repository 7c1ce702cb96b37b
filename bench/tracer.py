"""Span tracer that times the calls into each pointscatter module from outside.

``Tracer.install`` wraps every function a layer module exposes to other
modules (its public functions, public methods of its public classes, and
private helpers that another module imports) and rebinds the wrapper in every
``pointscatter.*`` namespace, including module-level dispatch tables.  Each
wrapped call records a span (function, start, end, parent span, operation);
self time is a span's duration minus the time its child spans cover.
Aggregates cover every span; the span list itself is capped so a long traced
run cannot exhaust memory.  ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("specfun", "kernel", "amplitudes", "transfer", "singfree", "fields",
          "cli", "verify")

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []        # "layer.function" per wrapped function
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans: list[tuple] = []      # (op, span_id, parent_id, fn_index, start, end)
        self.spans_dropped = 0
        self.counters = {"specfun.array_points": 0, "fields.cells": 0,
                         "fields.point_calls": 0, "fields.masked_cells": 0}
        self.quad_error_max = 0.0
        self.op = 0
        self._stack: list[list] = []      # [span_id, child_seconds]
        self._next_id = 0
        self._restore: list[tuple] = []   # (container, key, original, is_dict)

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "pointscatter" or name.startswith("pointscatter.")}
        originals = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules[f"pointscatter.{layer}"]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    imported = any(getattr(other, name, None) is obj
                                   for other in modules.values() if other is not mod)
                    if not name.startswith("_") or imported:
                        originals[id(obj)] = self._wrap(layer, name, obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not name.startswith("_")):
                    self._wrap_methods(layer, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._rebind(mod.__dict__, name, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in originals:
                            self._rebind(obj, key, originals[id(value)])

    def _wrap_methods(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                wrapped = self._wrap(layer, f"{cls.__name__}.{name}", attr)
            elif isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(layer, f"{cls.__name__}.{name}",
                                                 attr.__func__))
            else:
                continue
            self._restore.append((cls, name, attr, False))
            setattr(cls, name, wrapped)

    def _rebind(self, namespace, key, wrapper):
        self._restore.append((namespace, key, namespace[key], True))
        namespace[key] = wrapper

    def uninstall(self):
        for container, key, original, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._restore.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, layer, name, fn):
        index = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        hook = _HOOKS.get(f"{layer}.{name}")
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.op, span_id, parent, index, start, end))
                else:
                    self.spans_dropped += 1
            if hook is not None:
                hook(self, result)
            return result

        return traced

    # -- reporting --------------------------------------------------------

    def layer_totals(self):
        """{layer: (calls, self_seconds)} summed over every wrapped function."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for layer, calls, self_s in zip(self.layer_of, self.calls, self.self_s):
            totals[layer][0] += calls
            totals[layer][1] += self_s
        return totals

    def function_calls(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,function,start_s,end_s\n")
            for op, span_id, parent, index, start, end in self.spans:
                fh.write(f"{op},{span_id},{parent},{self.names[index]},"
                         f"{start:.9f},{end:.9f}\n")


# Counters taken at the same boundaries, from the returned values.

def _count_array_points(tracer, result):
    tracer.counters["specfun.array_points"] += int(result.size)


def _count_grid(tracer, result):
    tracer.counters["fields.cells"] += int(result.values.size)
    tracer.counters["fields.masked_cells"] += int(result.excluded_mask.sum())


def _count_point_call(tracer, result):
    tracer.counters["fields.point_calls"] += 1


def _track_quad_error(tracer, result):
    tracer.quad_error_max = max(tracer.quad_error_max, float(result.error_estimate))


_HOOKS = {
    "specfun.bessel_j0_array": _count_array_points,
    "specfun.bessel_y0_array": _count_array_points,
    "specfun.hankel1_0_array": _count_array_points,
    "fields.total_field": _count_grid,
    "fields.psi0_field": _count_grid,
    "fields.field_values_at": _count_point_call,
    "kernel.green_cutoff_quadrature": _track_quad_error,
}
