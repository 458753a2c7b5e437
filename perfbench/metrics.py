"""Arithmetic of the benchmark: percentile choice, span self time, the
unattributed share of a window, and run-to-run spread.  Pure functions,
tested by test_metrics.py."""

import math
import statistics

# Percentile rungs a timing may be reported at, highest first.
LADDER = (99, 98, 95, 90, 75, 50)
MIN_BEYOND = 10


def choose_percentile(count, ladder=LADDER):
    """The highest rung with at least MIN_BEYOND samples beyond it, so a
    tail figure always rests on ten samples.  Below that the median."""
    for p in ladder:
        if count * (100 - p) / 100.0 >= MIN_BEYOND:
            return p
    return ladder[-1]


def percentile(samples, p):
    """Nearest-rank percentile of raw samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples):
    """(percentile used, value) for the tail of raw samples."""
    p = choose_percentile(len(samples))
    return p, percentile(samples, p)


def at_reference_speed(value, reference_rate, reference_nominal, time=False):
    """A host rate (or, with time=True, a host time) scaled to a host that
    runs the reference loop at `reference_nominal` ops/s.  The loop is timed
    in the same process between work units, so slow drifts of the whole
    host, which move every timing together, cancel; the program's own speed
    does not, because the loop shares no code with it."""
    factor = reference_nominal / reference_rate
    return value / factor if time else value * factor


def union_length(intervals, lo=None, hi=None):
    """Total length covered by [start, end) intervals, clipped to [lo, hi]."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """A span's duration minus the part of its interval its children cover.
    Spans and children are (start, end) pairs."""
    start, end = span
    return (end - start) - union_length(children, start, end)


def unattributed_share(window, children):
    """The share of a window's wall time that no measured span covers: a
    residual, never spread over the layers."""
    start, end = window
    if end <= start:
        raise ValueError("empty window")
    return self_time(window, children) / (end - start)


def spread(values):
    """Interquartile distance as a share of the median, with the quartiles
    statistics.quantiles(values, n=4) gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else (0.0 if q3 == q1 else math.inf)


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base` (negative
    when better)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return -change if better == "higher" else change
