"""Order statistics and the compare verdict rule shared by run and compare.

Percentiles use the nearest-rank definition, so every reported value is
one that was actually measured.
"""

from __future__ import annotations

import math
import statistics

# Percentiles tried for a tail figure, highest first.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
# A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
# "improved" needs at least this share of the (parent, change) pairs won.
WIN_SHARE = 0.9


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond) of the highest qualifying tail.

    A percentile qualifies when at least ``TAIL_MIN_BEYOND`` samples lie
    beyond its rank.  Returns None when even the median does not
    qualify (fewer than 20 samples).
    """
    n = len(samples)
    for pct in TAIL_CANDIDATES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            return pct, percentile(samples, pct), beyond
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 when median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent, change, *, bound: float, lower_is_better: bool = True
            ) -> dict:
    """Judge one (workload, metric) from paired parent and change runs.

    ``parent`` and ``change`` are lists of values paired by index (same
    seed).  The rule:

    * improved: the change wins at least 9 of 10 pairs (ties count for
      neither side) and the medians differ, in the better direction, by
      more than the parent's own interquartile distance;
    * unresolved: otherwise, when either side's spread exceeds ``bound``,
      unless every change run reads better than every parent run;
    * worse: the change median is worse than the parent's by more than
      ``bound`` as a share of the parent median;
    * no worse: everything else.
    """
    if not parent or not change:
        raise ValueError("verdict needs at least one run on each side")
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (pmed - cmed)           # > 0 means the change is better
    result = {
        "parent": {"q1": pq1, "median": pmed, "q3": pq3, "n": len(parent)},
        "change": {"q1": cq1, "median": cmed, "q3": cq3, "n": len(change)},
        "pairs": len(pairs), "wins": wins, "losses": losses,
    }
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > (pq3 - pq1):
        result["verdict"] = "improved"
        return result
    noisy = max(spread(parent), spread(change)) > bound
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if noisy and not all_better:
        result["verdict"] = "unresolved"
    elif -gain > bound * abs(pmed):
        result["verdict"] = "worse"
    else:
        result["verdict"] = "no worse"
    return result
