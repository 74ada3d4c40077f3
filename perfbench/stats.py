"""Statistics the benchmark reports: medians, quartiles, the tail
percentile rule, completion rates and span self times.

Pure functions over plain lists, so test_stats.py can check each rule
on hand-made inputs.
"""

import math
import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median: the run-to-run noise a bound has to cover."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail_percentile(values, wanted=99, beyond=10):
    """The highest whole percentile p <= `wanted` that has at least
    `beyond` samples above it, and its nearest-rank value.

    With n samples the p-th percentile is the ceil(p/100 * n)-th smallest;
    the samples beyond it are the n - ceil(p/100 * n) larger ones. When
    even the median has fewer than `beyond` samples above it, the median is
    returned. Returns (p, value).
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    for p in range(wanted, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return 50, ordered[max(1, math.ceil(n / 2)) - 1]


def completion_rate(end_times, start, seconds):
    """Completions per second inside [start, start + seconds): completions
    after the first one, divided by the time from the first to the last.
    Counting from the first completion keeps the rate from being quantised
    to whole ops over the window."""
    ends = [t for t in end_times if start <= t < start + seconds]
    if len(ends) < 2 or max(ends) == min(ends):
        raise ValueError("too few completions to measure a rate")
    return (len(ends) - 1) / (max(ends) - min(ends))


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover (children may overlap one another; their union
    counts once).

    `spans` is a list of (parent, start, end) with parent an index into the
    list or -1. Returns a list of self times, index-aligned with `spans`.
    """
    children = [[] for _ in spans]
    for i, (parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end) in enumerate(spans):
        out.append((end - start) - covered(children[i], start, end))
    return out
