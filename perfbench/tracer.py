"""Span tracing and function patching from outside the spectemp package.

The benchmark never edits the package. It measures a layer by replacing a
public function with a wrapper, everywhere the function is bound: on its
own module and on every spectemp module that imported it by name (for
example ``model_core.moving_average_matrix``). ``Patches.restore`` puts
every binding back.

A span is (name, start_ns, end_ns, parent index). Spans stay in memory in
the order they opened, are written out when the traced run ends, and are
reduced to per-name inclusive and self times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

__all__ = ["Patches", "Tracer", "reduce_spans", "count_within"]


def _package_modules(package: str = "spectemp"):
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == package or name.startswith(package + "."))]


class Patches:
    """Replaces bindings and remembers the originals, newest last."""

    def __init__(self):
        self._undo = []

    def function(self, module, attr: str, make_wrapper) -> None:
        """Wrap ``module.attr`` and every other spectemp binding of it."""
        current = getattr(module, attr)
        wrapper = make_wrapper(current)
        owners = [module] + [m for m in _package_modules() if m is not module]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is current:
                    self._undo.append((owner, key, value))
                    setattr(owner, key, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer:
    """In-memory span recorder; one instance per traced segment."""

    def __init__(self):
        self.spans: list = []          # (name, start_ns, end_ns, parent)
        self.attrs: dict = {}          # span index -> dict from an ``after`` hook
        self.open = Counter()          # span name -> number currently open
        self.counters = Counter()
        self.scratch: dict = {}
        self._stack: list = []

    def wrapper(self, name, after=None):
        """Decorator factory: ``name`` is a string or ``f(args, kwargs)``."""

        def make(fn):
            tracer = self

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                stack = tracer._stack
                index = len(tracer.spans)
                tracer.spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                tracer.open[label] += 1
                start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    stack.pop()
                    tracer.open[label] -= 1
                    tracer.spans[index] = (label, start, end, parent)
                if after is not None:
                    extra = after(args, kwargs, result)
                    if extra:
                        tracer.attrs[index] = extra
                return result

            return traced

        return make

    def counting(self, counter: str, inside: str):
        """Decorator factory counting calls made while a span ``inside`` is open."""

        def make(fn):
            tracer = self

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.open[inside]:
                    tracer.counters[counter] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans,
                       "attrs": {str(k): v for k, v in self.attrs.items()},
                       "counters": dict(self.counters)}, fh)


def reduce_spans(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children. Children nest inside their parent and do not overlap, so with
    integer nanoseconds no self time can be negative.
    """
    child_ns = defaultdict(int)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    for index, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "inclusive_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["inclusive_ns"] += end - start
        row["self_ns"] += end - start - child_ns[index]
    for row in out.values():
        row["inclusive_s"] = row.pop("inclusive_ns") / 1e9
        row["self_s"] = row.pop("self_ns") / 1e9
    return out


def count_within(spans, name: str, ancestor: str) -> int:
    """Number of spans called ``name`` that have an ``ancestor`` span above them."""
    total = 0
    for label, _, _, parent in spans:
        if label != name:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total
