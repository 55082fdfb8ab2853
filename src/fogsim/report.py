"""Result persistence and comparison reports.

Results are written as four CSV files (placements.csv, timeseries.csv,
requests.csv, evictions.csv) plus a human-readable summary.txt rendered from
the run's own rows.  The report command recomputes every summary number from
the CSVs alone.  Every table holds rows in its ``ResultSet.*_FIELDS`` order:
typed values in memory, strings read back from a CSV; the helpers convert
each number they read, so both give the same text.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import Counter, defaultdict
from pathlib import Path

from .simulator import ResultSet

CSV_FILES = {
    "placements": ResultSet.PLACEMENT_FIELDS,
    "timeseries": ResultSet.TIMESERIES_FIELDS,
    "requests": ResultSet.REQUEST_FIELDS,
    "evictions": ResultSet.EVICTION_FIELDS,
}
CDF_STEP = 0.01


def write_results(results: ResultSet, outdir) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, fields in CSV_FILES.items():
        path = outdir / f"{stem}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            writer.writerows(getattr(results, stem))
        written.append(path)
    summary = outdir / "summary.txt"
    summary.write_text(render_summary({stem: getattr(results, stem) for stem in CSV_FILES},
                                      header=f"scenario: {results.scenario}  "
                                             f"seed: {results.seed}  "
                                             f"profile: {results.profile}"))
    written.append(summary)
    return written


def load_results(directory) -> dict[str, list[list[str]]]:
    """The four tables of a result directory.  Raises FileNotFoundError on a
    missing file and ValueError on a wrong header or a row of the wrong length."""
    directory = Path(directory)
    loaded = {}
    for stem, fields in CSV_FILES.items():
        path = directory / f"{stem}.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing {path.name} in {directory}")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            if header != fields:
                raise ValueError(f"{path.name}: header must be {','.join(fields)}")
            rows = []
            for row in filter(None, reader):  # blank lines skipped
                if len(row) != len(fields):
                    raise ValueError(f"{path.name} line {reader.line_num}: {len(row)} "
                                     f"fields, expected {len(fields)}")
                rows.append(row)
        loaded[stem] = rows
    return loaded


def arms_in(rows: dict[str, list]) -> list[str]:
    seen = []
    for table in rows.values():
        for arm, *_ in table:
            if arm not in seen:
                seen.append(arm)
    return seen


def allocation_histogram(placements: list, arm: str) -> dict[str, Counter]:
    """Per-node placement counts for one arm: total, and RT vs regular is
    not derivable here, so the caller gets per-service counts instead."""
    by_node = defaultdict(Counter)
    for row_arm, rep, pod, service, node, status, time in placements:
        if row_arm == arm and status == "Running":
            by_node[node][service] += 1
    return dict(by_node)


def unschedulable_count(placements: list, arm: str) -> int:
    return sum(1 for row_arm, rep, pod, service, node, status, time in placements
               if row_arm == arm and status == "Unschedulable")


def rtt_values(requests: list, arm: str) -> list[float]:
    """The arm's request round-trip times, sorted."""
    return sorted(float(rtt) for row_arm, rep, t, client, service, replica, node, rtt
                  in requests if row_arm == arm)


def quantile(values: list[float], q: float) -> float:
    """The q-quantile of sorted `values` by linear interpolation between the
    closest ranks, bit for bit as numpy's default ``np.quantile``."""
    h = (len(values) - 1) * q
    i = math.floor(h)
    g = h - i
    a = values[min(i, len(values) - 1)]
    b = values[min(i + 1, len(values) - 1)]
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def rtt_cdf(values: list[float]) -> list[tuple[float, float]]:
    """(quantile, rtt) points on a regular quantile grid of CDF_STEP."""
    if not values:
        return []
    # start + i * step, as numpy's float arange, so each q has the same bits
    return [(q, quantile(values, q))
            for q in (CDF_STEP + i * CDF_STEP for i in range(round(1 / CDF_STEP)))]


def replica_request_counts(requests: list, arm: str) -> Counter:
    return Counter(replica for row_arm, rep, t, client, service, replica, node, rtt
                   in requests if row_arm == arm)


def convergence_time(timeseries: list, arm: str, rep: int) -> float | None:
    """Earliest sample time after which no node's allocation changes again.

    Returns None when the run has no samples for that (arm, rep).
    """
    per_time = defaultdict(dict)
    for row_arm, row_rep, t, node, rt_pods, regular_pods, total in timeseries:
        if row_arm == arm and int(row_rep) == rep:
            per_time[float(t)][node] = (rt_pods, regular_pods)
    if not per_time:
        return None
    times = sorted(per_time)
    final = per_time[times[-1]]
    converged_at = times[-1]
    for t in reversed(times):
        if per_time[t] != final:
            break
        converged_at = t
    return converged_at


def eviction_counts(evictions: list, arm: str) -> Counter:
    return Counter(reason for row_arm, rep, t, pod, from_node, target_node, reason
                   in evictions if row_arm == arm)


def _format_histogram(hist: dict[str, Counter]) -> list[str]:
    lines = []
    for node in sorted(hist):
        parts = ", ".join(f"{svc}={n}" for svc, n in sorted(hist[node].items()))
        lines.append(f"    {node}: total={sum(hist[node].values())} ({parts})")
    return lines


def render_summary(rows: dict[str, list], header: str = "") -> str:
    lines = []
    if header:
        lines.append(header)
    arms = arms_in(rows)
    reps = sorted({int(rep) for arm, rep, *_ in rows["placements"]}) or [0]
    lines.append(f"arms: {', '.join(arms)}  repetitions: {len(reps)}")
    for arm in arms:
        lines.append("")
        lines.append(f"== arm {arm} ==")
        hist = allocation_histogram(rows["placements"], arm)
        if hist:
            lines.append("  placements per node (all repetitions):")
            lines.extend(_format_histogram(hist))
        uns = unschedulable_count(rows["placements"], arm)
        if uns:
            lines.append(f"  unschedulable placements: {uns}")
        ev = eviction_counts(rows["evictions"], arm)
        if ev:
            lines.append("  evictions: " + ", ".join(f"{k}={v}" for k, v in sorted(ev.items())))
        values = rtt_values(rows["requests"], arm)
        if values:
            lines.append(f"  requests: {len(values)}  "
                         f"rtt mean={statistics.fmean(values):.4f} ms  "
                         f"std={statistics.pstdev(values):.4f} ms  "
                         f"p50={quantile(values, 0.5):.4f}  "
                         f"p95={quantile(values, 0.95):.4f}  p99={quantile(values, 0.99):.4f}")
            counts = replica_request_counts(rows["requests"], arm)
            share = ", ".join(f"{rep}={n}" for rep, n in sorted(counts.items()))
            lines.append(f"  per-replica request counts: {share}")
        if rows["timeseries"]:
            per_rep = [convergence_time(rows["timeseries"], arm, rep) for rep in reps]
            per_rep = [t for t in per_rep if t is not None]
            if per_rep:
                lines.append("  convergence time per repetition (s): "
                             + ", ".join(f"{t:.0f}" for t in per_rep))
    return "\n".join(lines) + "\n"


def render_comparison(rows: dict[str, list]) -> str:
    """Baseline-vs-custom comparison tables recomputed from the CSVs."""
    lines = [render_summary(rows)]
    values = {arm: rtt_values(rows["requests"], arm) for arm in arms_in(rows)}
    with_rtt = [arm for arm in values if values[arm]]
    if len(with_rtt) >= 2:
        lines.append("== rtt cdf comparison ==")
        grids = {arm: rtt_cdf(values[arm]) for arm in with_rtt}
        lines.append("  q     " + "".join(f"{arm:>14}" for arm in with_rtt))
        for i, (q, _) in enumerate(grids[with_rtt[0]]):
            lines.append(f"  {q:0.2f}  " + "".join(f"{grids[arm][i][1]:14.4f}"
                                                   for arm in with_rtt))
    return "\n".join(lines) + "\n"
