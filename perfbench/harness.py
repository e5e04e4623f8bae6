"""Pure helpers of the benchmark runner: percentiles over the binary's
histograms, failure accounting, span self time and the output check.
run.py uses them; test_harness.py tests them."""

import math

# Candidate tail percentiles, highest first. The reported tail is the
# highest one that still has at least TAIL_MIN_BEYOND samples above it.
TAIL_CANDIDATES = (99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def hist_count(hist):
    """Number of samples in a [[value, count], ...] histogram."""
    return sum(count for _, count in hist)


def percentile(hist, pct):
    """Nearest-rank percentile of a histogram sorted by value."""
    n = hist_count(hist)
    if n == 0:
        raise ValueError("percentile of an empty histogram")
    rank = max(1, math.ceil(pct / 100.0 * n))
    seen = 0
    for value, count in hist:
        seen += count
        if seen >= rank:
            return value
    return hist[-1][0]


def samples_beyond(n, pct):
    """Samples ranked above the nearest-rank pct-th percentile of n."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(hist):
    """(pct, value, n) for the highest candidate percentile with at least
    TAIL_MIN_BEYOND samples beyond it; n is the sample count."""
    n = hist_count(hist)
    for pct in TAIL_CANDIDATES:
        if samples_beyond(n, pct) >= TAIL_MIN_BEYOND:
            return pct, percentile(hist, pct), n
    # Too few samples for any tail: report the median and say so by pct.
    return 50.0, percentile(hist, 50.0), n


def fail_ratio(attempted, failed):
    """Failed over attempted operations; a run that attempted nothing
    counts as entirely failed."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError("bad counts: attempted=%r failed=%r"
                         % (attempted, failed))
    if attempted == 0:
        return 1.0
    return failed / attempted


def self_times(spans):
    """Self time per span id: its duration minus the union of the parts of
    its children's intervals that fall inside it. Overlapping children
    (spans of other threads under one parent) are counted once."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0
        cursor = start
        kids = sorted(children.get(s["id"], ()), key=lambda k: k["start"])
        for k in kids:
            lo = max(k["start"], cursor)
            hi = min(k["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def self_time_by_name(spans):
    """{name: (count, total_ns, self_ns, ops)} over all spans."""
    selfs = self_times(spans)
    table = {}
    for s in spans:
        count, total, own, ops = table.get(s["name"], (0, 0, 0, 0))
        table[s["name"]] = (count + 1, total + s["end"] - s["start"],
                            own + selfs[s["id"]], ops + s.get("ops", 1))
    return table


def check_metrics(metrics, spec):
    """Problems with a result's metrics against the BENCHMARK.json entries
    `spec`: each named metric exactly once, with its unit and a finite
    numeric value; nothing unnamed. Returns a list of messages."""
    problems = []
    names = [m["name"] for m in spec]
    for dup in sorted({n for n in names if names.count(n) > 1}):
        problems.append("metric named twice in the spec: %s" % dup)
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric: %s" % m["name"])
            continue
        if got.get("unit") != m["unit"]:
            problems.append("unit of %s is %r, expected %r"
                            % (m["name"], got.get("unit"), m["unit"]))
        value = got.get("value")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append("value of %s is not a finite number: %r"
                            % (m["name"], value))
    for name in metrics:
        if name not in names:
            problems.append("metric not in the spec: %s" % name)
    return problems
