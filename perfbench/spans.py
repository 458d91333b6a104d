"""Spans recorded from outside the program.

The benchmark replaces a function at its module (or class) attribute, and at
every other `ratebound` module that imported it by name, with a wrapper that
records a span: name, start, end, parent span and run id. Spans stay in
memory; `Tracer.dump` writes them out when the run ends. Nothing under src/
changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _replace_everywhere(owner, attr: str, original, replacement) -> list:
    """Point owner.attr and every ratebound global bound to `original` at
    `replacement`; return the (object, attribute) pairs changed."""
    changed = [(owner, attr)]
    setattr(owner, attr, replacement)
    for name, module in list(sys.modules.items()):
        if name != "ratebound" and not name.startswith("ratebound."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                changed.append((module, key))
    return changed


@contextmanager
def patched(target: str, make_wrapper):
    """Temporarily wrap `module:qualname`. Raises ImportError or
    AttributeError when the program no longer has that function, so a
    renamed layer fails the run instead of reading zero."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    changed = _replace_everywhere(owner, attr, original, make_wrapper(original))
    try:
        yield
    finally:
        for obj, key in changed:
            setattr(obj, key, original)


class Tracer:
    """In-memory span recorder. Spans nest by call order: one thread only."""

    def __init__(self, run: str) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.stack: list[int] = []
        self.run = run
        self.work: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def wrapper(self, name: str, on_result=None):
        """Wrapper factory for `patched`: a span and a call count per call;
        `on_result(work, args, result)` tallies any further work done."""

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                self.work[name] += 1
                if on_result is not None:
                    on_result(self.work, args, result)
                return result

            return traced

        return make

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
        return totals

    def dump(self, path, header: dict) -> None:
        """Write `header` and the spans as one JSON document."""
        doc = dict(header)
        doc["span_fields"] = ["name", "start", "end", "parent", "run"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
