"""Spans for the traced run: a recorder, the span file, and self times.

A span is one public deblur1d call made by the traced replay of a request:
its name (``layer.call``), start and end (``time.perf_counter`` seconds),
the id of the span that caused it, and the request id.  Spans are kept in
memory and written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# Spans of the traced replay that are reported as a layer's self time.
LAYER_SPANS = (
    "blur.build", "blur.forward", "noise.add", "regularize.solve",
    "lcurve.sweep", "lcurve.corner", "upc.encode", "upc.threshold",
    "upc.decode", "io.read", "io.write",
)
# Timed outside the request span, on the operator a replay hands back.
PROBE_SPAN = "linalg.svd_econ"


class Tracer:
    """Records nested spans in memory."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, request):
        sid = len(self.spans)
        span = {"id": sid, "name": name, "request": request,
                "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(sid)
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans):
    """Span id -> duration minus the part of it covered by its child spans."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = s["end"] - s["start"] - covered
    return out
