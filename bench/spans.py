"""Span tracing of the fpiter modules, installed from outside the package.

``instrument`` replaces every public function and public method of the six
fpiter modules with a wrapper that opens a span on entry and closes it on
exit. The program itself is not changed: the wrappers are swapped into the
module namespaces (and into every other fpiter module that imported the
same object) of the one process that runs the traced suite.

Spans are aggregated as they close, keyed by (parent span name, span
name), so memory stays constant however many iterations a suite runs.
Calls run on one thread, so the child spans of a span never overlap and
the time they cover is the sum of their durations; a span's self time is
its duration minus that sum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# the layers, in the order the report lists them
LAYERS = ("space", "schedules", "operators", "experiments", "algorithms", "cli")

# experiments builds the stopping metric in three ways; all three are
# reported as one span name so the metric shows as a unit
METRIC_SPAN = "experiments.metric"
METRIC_FUNCTIONS = ("sup_norm",)
METRIC_FACTORIES = ("sfp_residual_metric", "distance_metric")


class Tracer:
    """Aggregating span recorder: (parent, name) -> [calls, total_s, self_s]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # open spans: [name, start, time covered by children]
        self.edges = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_name = parent[0]
        else:
            parent_name = ""
        stats = self.edges.get((parent_name, name))
        if stats is None:
            stats = self.edges[(parent_name, name)] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - covered

    def wrap(self, name: str, func):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(func)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                exit_()

        return traced

    def table(self):
        """Closed spans as JSON-ready rows ``[parent, name, calls, total_s, self_s]``."""
        return [[p, n, *stats] for (p, n), stats in sorted(self.edges.items())]


def _metric_factory(tracer: Tracer, name: str, factory):
    def build(*args, **kwargs):
        return tracer.wrap(METRIC_SPAN, factory(*args, **kwargs))

    return tracer.wrap(name, functools.wraps(factory)(build))


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer.

    Public means listed in the module's ``__all__``. Functions are swapped
    in every fpiter module namespace that holds them, so calls made through
    ``from .x import f`` are traced too. Methods are wrapped on the class
    that defines them; dunder methods other than ``__call__`` are left
    alone. Span names are ``<layer>.<qualified name>``.
    """
    modules = [importlib.import_module(f"fpiter.{layer}") for layer in LAYERS]
    namespaces = [vars(importlib.import_module("fpiter"))] + [vars(m) for m in modules]
    replaced = {}  # id(original) -> (original, wrapper)
    for layer, module in zip(LAYERS, modules):
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                if attr in METRIC_FUNCTIONS:
                    replaced[id(obj)] = (obj, tracer.wrap(METRIC_SPAN, obj))
                elif attr in METRIC_FACTORIES:
                    replaced[id(obj)] = (obj, _metric_factory(tracer, f"{layer}.{attr}", obj))
                else:
                    replaced[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
            elif inspect.isclass(obj):
                for name, member in list(vars(obj).items()):
                    if inspect.isfunction(member) and (
                        not name.startswith("_") or name == "__call__"
                    ):
                        setattr(obj, name, tracer.wrap(f"{layer}.{member.__qualname__}", member))
    for namespace in namespaces:
        for key, value in list(namespace.items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
