"""Continuous rescheduling: from an imbalanced start to the exact fixed point.

120 pods (80 regular + 40 real-time) are first placed by a stock
count-balancing scheduler that ignores RT attributes, leaving RT load
lumpy.  The monitor then dry-runs every pod against the RT-aware
configuration and evicts the misplaced ones, respecting a 120 s grace
period and a per-pod backoff, until no pod would be placed elsewhere.
"""

from collections import Counter

import fogsim.scenarios as scenarios
from fogsim.simulator import ResultSet, run_scenario


def rt_counts(rows, t):
    counts = {}
    for row in rows:
        if float(row["t"]) == t:
            counts[row["node"]] = int(row["rt_pods"])
    return counts


def main():
    results = run_scenario(scenarios.load_bundled("fig7-monitor"), repetitions=1)
    series = [dict(zip(ResultSet.TIMESERIES_FIELDS, r))
              for r in results.timeseries]

    print("RT pods per node over time (stock placement, then monitor passes):")
    for t in (0.0, 120.0, 140.0, 200.0, 260.0, 400.0):
        counts = rt_counts(series, t)
        print(f"  t={t:5.0f}s  " + " ".join(f"{counts[n]}" for n in sorted(counts)))

    evictions = [float(r[2]) for r in results.evictions]
    print(f"\n{len(evictions)} evictions, none before the 120 s grace period "
          f"(first at t={min(evictions):.0f}s)")
    reasons = Counter(r[6] for r in results.evictions)
    print("eviction reasons:", dict(reasons))


if __name__ == "__main__":
    main()
