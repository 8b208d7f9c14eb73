"""Span recorder for the traced run.

The recorder wraps the program's public functions where their callers look
them up (module globals and class attributes), so a call made from inside
the program is timed at the layer boundary without editing the program.
Wrappers exist only between ``install`` and ``restore``; an untraced run
never creates a recorder.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the span open when it began (-1 for none) and ``op`` the benchmark
operation it belongs to, or -1 outside the measured operations (set-up, or
an operation the workload leaves out of its measurements).  Self time is a span's duration minus
the part of its interval that its child spans cover.  The totals cover the
measured operations only.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Function recording one span per call; ``after(rec, args, result)`` adds counts."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, after)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn, after):
        # A generator runs in slices between its consumer's requests; its span
        # is the summed busy time, placed at its first slice, without a parent
        # so that the consumer's self time is not distorted.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first, busy = None, 0
            try:
                while True:
                    start = perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += perf_counter_ns() - start
                        return
                    busy += perf_counter_ns() - start
                    if first is None:
                        first = start
                    if after is not None:
                        after(self, args, item)
                    yield item
            finally:
                begin = first if first is not None else perf_counter_ns()
                self.spans.append((name, begin, begin + busy, -1, self.op))

        return wrapper

    def patch_function(self, name: str, original, after=None, package: str = "bellbox") -> None:
        """Replace ``original`` in every module of ``package`` that binds it."""
        wrapper = self.wrap(name, original, after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr in [a for a, v in vars(module).items() if v is original]:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def patch_method(self, name: str, cls, attr: str, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``s`` (total seconds), ``self_s`` and ``calls``."""
        own = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for (name, start, end, _, op), self_ns in zip(self.spans, own):
            if op < 0:
                continue
            entry = out[name]
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += self_ns / 1e9
            entry["calls"] += 1
        return out

    def nested(self, name: str, ancestor: str) -> tuple[float, int]:
        """``(seconds, calls)`` of the ``name`` spans that ran inside an ``ancestor`` span."""
        seconds, calls = 0.0, 0
        for span_name, start, end, parent, op in self.spans:
            if span_name != name or op < 0:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                seconds += (end - start) / 1e9
                calls += 1
        return seconds, calls


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
