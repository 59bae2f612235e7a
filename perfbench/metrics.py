"""Statistics and span tracing used by the benchmark.

Kept free of any vlcwdma import so that the unit tests run without the
package and the helpers can be reused by later tooling.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

# Percentiles tried for the tail, lowest first. The tail is the highest of
# these that still leaves at least TAIL_MIN_BEYOND samples above it. The
# rungs are far apart on purpose: the percentile changes only when a run's
# instance count crosses about 100 or 1000, not from one run to the next.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(sorted_xs, p: float) -> float:
    """Percentile p of a sorted sample, linear between order statistics
    (the "inclusive" method of statistics.quantiles; p = 50 is the median)."""
    n = len(sorted_xs)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    pos = (n - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def instance_median(times_by_instance) -> float:
    """Median over a pass's instances of each instance's median time.

    The median of all samples pooled is ill-conditioned when a pass holds
    an even number of instances of distinct cost (the six presets): half
    the samples lie below a gap and half above it, so the pooled median
    is the midpoint of one instance's slowest sample and the next one's
    fastest, and moves anywhere within the gap from run to run.
    """
    return statistics.median(statistics.median(ts) for ts in times_by_instance.values())


def tail(samples, median: float | None = None) -> dict:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns the value, the percentile, the sample count and the number of
    samples above the value. The p50 rung reads ``median`` when given
    (the run's ``instance_median``), else the pooled median. With fewer
    than 20 samples no higher rung qualifies; the median is reported
    then, and ``beyond`` shows how many samples lie above it.
    """
    xs = sorted(samples)
    chosen = TAIL_LADDER[0]
    value = percentile(xs, chosen) if median is None else median
    for p in TAIL_LADDER[1:]:
        v = percentile(xs, p)
        if v >= value and sum(1 for x in xs if x > v) >= TAIL_MIN_BEYOND:
            chosen, value = p, v
    return {"value": value, "percentile": chosen, "samples": len(xs),
            "beyond": sum(1 for x in xs if x > value)}


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median (statistics.quantiles, n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def merged_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """In-memory span recorder: (name, start, end, parent, instance)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.instance: str | None = None

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "instance": self.instance}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **rec}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
    return [
        (rec["end"] - rec["start"]) - merged_length(children.get(i, ()))
        for i, rec in enumerate(spans)
    ]

