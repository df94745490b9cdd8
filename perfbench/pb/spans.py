"""In-memory spans and per-layer self time.

A span is {"layer", "name", "t0", "t1"} with times in seconds on
CLOCK_MONOTONIC, the clock both this process (time.monotonic) and the C++
replay (clock_gettime) use, so their spans nest on one timeline. Spans are
kept in memory and written out as JSONL once the run is over.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []

    @contextmanager
    def span(self, layer, name):
        if not self.enabled:
            yield
            return
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.spans.append({"layer": layer, "name": name, "t0": t0,
                               "t1": time.monotonic()})

    def extend_jsonl(self, path):
        if self.enabled:
            self.spans.extend(read_jsonl(path))

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: (s["t0"], -s["t1"])):
                f.write(json.dumps(s) + "\n")


def read_jsonl(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """{layer: seconds} of time spent in a layer's spans outside their children.

    A span's parent is the innermost earlier span that contains it. Self time
    is a span's duration minus the durations of its direct children, so the
    self times of all layers add up to the wall time the root spans cover.
    """
    ordered = sorted(spans, key=lambda s: (s["t0"], -s["t1"]))
    child_time = [0.0] * len(ordered)
    stack = []  # indices into ordered
    for i, s in enumerate(ordered):
        while stack and ordered[stack[-1]]["t1"] < s["t1"]:
            stack.pop()
        if stack:
            child_time[stack[-1]] += s["t1"] - s["t0"]
        stack.append(i)
    out = {}
    for i, s in enumerate(ordered):
        own = max(s["t1"] - s["t0"] - child_time[i], 0.0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + own
    return out
