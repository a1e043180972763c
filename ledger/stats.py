"""Statistics of the benchmark: percentiles, CPU deltas, span self times,
the ledger-sum check and Prometheus exposition arithmetic.

Pure functions only; selftest.py exercises each on synthetic inputs.
"""

import math
import re

MIN_BEYOND = 10  # samples a reported tail percentile must have beyond it


def quantile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    s = sorted(values)
    if not s:
        raise ValueError("quantile of no samples")
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def supported_percentile(n, wanted=0.99):
    """The highest percentile, at most `wanted`, that leaves at least
    MIN_BEYOND of `n` samples beyond it; None when no percentile at or
    above the median does."""
    if n <= 0:
        return None
    p = min(wanted, 1.0 - MIN_BEYOND / n)
    return p if p >= 0.5 else None


def tail(values, wanted=0.99):
    """(percentile used, its value, samples strictly beyond it)."""
    p = supported_percentile(len(values), wanted)
    if p is None:
        raise ValueError(f"{len(values)} samples cannot support a tail percentile")
    v = quantile(values, p)
    return p, v, sum(1 for x in values if x > v)


def median(values):
    return quantile(values, 0.5)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def cpu_ms_per_kreq(before_s, after_s, requests):
    """CPU milliseconds per 1000 requests from two cumulative CPU-second
    readings (user + system) of the same process."""
    if requests <= 0:
        raise ValueError("no requests")
    if after_s < before_s:
        raise ValueError("CPU time went backwards")
    return (after_s - before_s) * 1e3 / requests * 1000


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. `spans` are dicts with id, parent, start, end."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def subtree(spans, root_names):
    """The spans under (and including) every span named in root_names."""
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    out = []
    stack = [s for s in spans if s["name"] in root_names]
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(by_parent.get(s["id"], []))
    return out


def self_by_name(spans, root_names):
    """Total self time per span name over the subtrees of root_names."""
    tree = subtree(spans, root_names)
    st = self_times(tree)
    totals = {}
    for s in tree:
        totals[s["name"]] = totals.get(s["name"], 0.0) + st[s["id"]]
    return totals


def ledger_gap(self_sum, end_to_end):
    """Relative gap between the summed self times and the end-to-end time
    they must account for."""
    if end_to_end <= 0:
        raise ValueError("end-to-end time must be positive")
    return abs(self_sum - end_to_end) / end_to_end


LEDGER_TOLERANCE = 0.10


def ledger_ok(self_sum, end_to_end, tolerance=LEDGER_TOLERANCE):
    return ledger_gap(self_sum, end_to_end) <= tolerance


# ---- Prometheus text exposition ----

# The registry renders a histogram registered under a labelled name with
# its suffix after the label set (`family{queue="q",le="1"}_bucket`), so
# a suffix is accepted on either side of the labels.
_LINE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?(_bucket|_sum|_count)?\s+(\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    """{(name, ((label, value), ...)): float} for every sample line."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _LINE.match(line)
        if not m:
            continue
        labels = tuple(sorted(_LABEL.findall(m.group(3) or "")))
        v = m.group(5)
        out[(m.group(1) + (m.group(4) or ""), labels)] = math.inf if v == "+Inf" else float(v)
    return out


def merge(samples_list, sign=1.0, into=None):
    """Sum several parsed expositions (counters and histogram buckets add
    up across rounds; `sign=-1` subtracts a baseline)."""
    out = dict(into or {})
    for samples in samples_list:
        for k, v in samples.items():
            out[k] = out.get(k, 0.0) + sign * v
    return out


def counter(samples, name):
    """A family's value summed over all label sets."""
    return sum(v for (n, _), v in samples.items() if n == name)


def histogram(samples, family):
    """Cumulative buckets [(upper bound, count)] of a histogram family,
    summed over all label sets other than `le`."""
    buckets = {}
    for (n, labels), v in samples.items():
        if n != family + "_bucket":
            continue
        le = dict(labels).get("le")
        bound = math.inf if le == "+Inf" else float(le)
        buckets[bound] = buckets.get(bound, 0.0) + v
    return sorted(buckets.items())


def hist_quantile(buckets, q):
    """q-quantile from cumulative buckets, interpolating inside the bucket
    the rank lands in (the registry's own estimator); 0 when empty."""
    if not buckets or buckets[-1][1] <= 0:
        return 0.0
    total = buckets[-1][1]
    rank = q * total
    lo_bound, lo_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if math.isinf(bound):
                return lo_bound
            if count == lo_count:
                return bound
            return lo_bound + (bound - lo_bound) * (rank - lo_count) / (count - lo_count)
        lo_bound, lo_count = bound, count
    return lo_bound


def hist_mean(samples, family):
    n = counter(samples, family + "_count")
    return counter(samples, family + "_sum") / n if n > 0 else 0.0
