"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, query_id, attrs]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``query_id`` the index of the
benchmark operation that caused it.  Spans are appended when they begin, so a
parent always precedes its children in ``spans``.

Package functions are traced by replacing the module attributes the package
looks up at call time; ``restore`` puts the originals back.  Nothing under
``src/`` is edited, and the untraced run never installs a wrapper.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.query_id = -1
        self._stack = []
        self._originals = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.query_id, None])
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = attrs
        self._stack.pop()

    def call(self, name: str, fn, attrs_of=None):
        """Run ``fn()`` inside a span; ``attrs_of(result)`` annotates it."""
        index = self.begin(name)
        attrs = {"raised": True}
        try:
            result = fn()
            attrs = attrs_of(result) if attrs_of else None
            return result
        finally:
            self.end(index, attrs)

    def wrap(self, module, attr: str, attrs_of=None) -> None:
        """Trace every call the package makes through ``module.attr``.

        The span is named after the module that implements the function, so
        ``regions.assemble_spectrum`` records ``spectral.assemble_spectrum``.
        ``attrs_of(args, result)`` annotates the span; ``result`` is None if
        the call raised.
        """
        original = getattr(module, attr)
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"

        def traced(*args, **kwargs):
            index = self.begin(name)
            result = None
            raised = True
            try:
                result = original(*args, **kwargs)
                raised = False
                return result
            finally:
                attrs = attrs_of(args, result) if attrs_of else {}
                if raised:
                    attrs["raised"] = True
                self.end(index, attrs or None)

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path, **meta) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "query_id", "attrs"],
                       **meta, "spans": self.spans}, handle)


def duration(span) -> float:
    return span[2] - span[1]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict:
    """Seconds per layer: each span's duration minus its children's."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += duration(span)
    per_layer = defaultdict(float)
    for span, child_time in zip(spans, covered):
        per_layer[layer_of(span[0])] += duration(span) - child_time
    return dict(per_layer)


def roots(spans) -> list:
    """Index of the root span (the benchmark operation) above each span."""
    out = []
    for index, span in enumerate(spans):
        out.append(index if span[3] < 0 else out[span[3]])
    return out
