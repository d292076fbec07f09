"""Runtime instrumentation of chemodde, installed and removed by the benchmark.

Nothing in chemodde is edited.  Each public function is replaced, in its
defining module and in every chemodde module that imported it by name
(for example analysis.phi_sequence and the package namespace), by a
wrapper; `Patches.restore` puts every original object back.

Two kinds of wrapper exist so that their costs do not mix:

- `SpanTracer` records one span (name, start, end, parent) per call of a
  public function and keeps the spans in memory;
- `CallCounter` counts the per-element methods (uptake evaluation, input
  sampling, `.at` lookups) and the public function calls, and passes the
  results of the functions to hooks that read certificates and sizes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "chemodde"


def chemodde_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions():
    """{original function: 'module.name'} for every public function defined
    in a chemodde module."""
    found = {}
    for module in chemodde_modules():
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                found[obj] = f"{module.__name__.removeprefix(PACKAGE + '.')}.{name}"
    return found


class Patches:
    """Replacements of module and class attributes that can be undone."""

    def __init__(self):
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def replace_functions(self, make_wrapper):
        """Wrap every public function wherever a chemodde module binds it."""
        wrappers = {fn: make_wrapper(fn, label) for fn, label in public_functions().items()}
        for module in chemodde_modules():
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self.set(module, name, wrapper)

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


@dataclass
class Span:
    job: int
    name: str
    start: float
    end: float
    parent: int | None


class SpanTracer:
    """Spans of wrapped chemodde calls; self time is the span minus its
    children."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1

    def wrap(self, fn, label):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(self.job, label, clock(), 0.0, stack[-1] if stack else None))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()

        return traced

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def _element_methods():
    """(class, method name, counter key) of the per-element methods."""
    from chemodde import core, series, washout

    methods = []
    for base, method, key in ((core.UptakeFunction, "evaluate", "core.uptake_calls"),
                              (core.InputSignal, "value_at", "core.input_calls")):
        for cls in vars(core).values():
            if inspect.isclass(cls) and issubclass(cls, base) and method in vars(cls):
                methods.append((cls, method, key))
    methods.append((series.TimeSeries, "at", "series.at_calls"))
    methods.append((washout.WashoutSolution, "at", "series.at_calls"))
    return methods


class CallCounter:
    """Exact call counts, plus hooks that see each public function's bound
    arguments and result: hooks[label](arguments, result, counter)."""

    def __init__(self, hooks):
        self.counts = Counter()
        self.values: dict[str, list] = {}
        self.hooks = hooks

    def record(self, key, value):
        self.values.setdefault(key, []).append(value)

    def wrap(self, fn, label):
        counts, hook = self.counts, self.hooks.get(label)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, self)
            return result

        return counted

    def install(self, patches: Patches):
        patches.replace_functions(self.wrap)
        counts = self.counts
        for cls, method, key in _element_methods():
            original = vars(cls)[method]

            def counted(*args, _fn=original, _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            patches.set(cls, method, counted)
