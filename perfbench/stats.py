"""Arithmetic the census benchmark reports with: medians and quartiles,
percentiles with the ten-samples-beyond rule, and span self time.

Pure functions over plain lists, so tests/test_stats.py can check them on
synthetic data.
"""

import statistics

# Percentiles a timing may be summarised by, from the median outwards.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def median(values):
    return statistics.median(values)


def quartile_summary(values):
    """Median, first and third quartile, relative spread and count.

    Quartiles are statistics.quantiles(values, n=4) (the 'exclusive'
    method); the relative spread is (q3 - q1) / median. One value has no
    spread; it is reported as 0.
    """
    values = list(values)
    if not values:
        raise ValueError("no values")
    mid = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = mid
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / mid if mid else float("inf")
    return {"median": mid, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def supported_percentile(n, candidates=PERCENTILES):
    """Highest candidate percentile with at least ten samples beyond it.

    p is supported by n samples when n * (1 - p/100) >= 10. Returns None
    when even the median is not (fewer than 20 samples).
    """
    best = None
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p):
    """p-th percentile by linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values, p):
    """The p-th percentile, refusing one the sample cannot support."""
    best = supported_percentile(len(values))
    if best is None or p > best:
        raise ValueError(
            f"p{p:g} needs at least {10.0 / (1 - p / 100.0):.0f} samples, "
            f"have {len(values)}")
    return percentile(values, p)


def covered_ns(intervals):
    """Total length of the union of [start, end) intervals."""
    total = 0
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


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover (clipped to the parent).

    `spans` are dicts with id, parent, start, end. Returns {id: ns}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - covered_ns(kids)
    return out


def parse_spans(doc):
    """Span dicts from the census_bench spans file layout."""
    return [{"id": i, "parent": p, "name": n, "start": a, "end": b,
             "calls": c} for i, p, n, a, b, c in doc["spans"]]


def per_call(spans, name, scale=1.0):
    """Per-call cost of every span called `name`: duration / calls."""
    return [(s["end"] - s["start"]) * scale / s["calls"]
            for s in spans if s["name"] == name and s["calls"] > 0]
