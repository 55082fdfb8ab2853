"""Result persistence and comparison reports.

Results are written as four CSV files (placements.csv, timeseries.csv,
requests.csv, evictions.csv) plus a human-readable summary.txt rendered from
the run's own rows.  Every table holds rows in its ``ResultSet.*_FIELDS``
order, and each cell is a string: a run's row holds the same strings as its
CSV row.  A table is written in blocks of BLOCK_ROWS rows, each block one
string of rows joined by line ends and each row its cells joined by commas, to
the bytes csv.writer would write: no cell ever needs quoting, because a row's
only free text is zone, node, service and arm names (pod ids derive from
them), which ``ScenarioConfig.validate`` keeps free of commas, double quotes
and line breaks; every other cell is a number or a fixed word.  The report
command recomputes every summary number from the CSVs alone: the summary
converts each number it reads.  It counts each table in one pass, so an
arm's RTTs are (value, count) runs with exact statistics.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import accumulate, chain, islice
from operator import itemgetter
from pathlib import Path

from .simulator import ResultSet

CSV_FILES = {
    "placements": ResultSet.PLACEMENT_FIELDS,
    "timeseries": ResultSet.TIMESERIES_FIELDS,
    "requests": ResultSet.REQUEST_FIELDS,
    "evictions": ResultSet.EVICTION_FIELDS,
}
CDF_STEP = 0.01
BLOCK_ROWS = 1024  # rows per write: fewer calls, and no whole-table string


def write_results(results: ResultSet, outdir) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, fields in CSV_FILES.items():
        path = outdir / f"{stem}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            rows = chain((fields,), getattr(results, stem))
            while block := list(islice(rows, BLOCK_ROWS)):
                fh.write("\r\n".join(map(",".join, block)) + "\r\n")
        written.append(path)
    summary = outdir / "summary.txt"
    summary.write_text(render_summary({stem: getattr(results, stem) for stem in CSV_FILES},
                                      header=f"scenario: {results.scenario}  "
                                             f"seed: {results.seed}  "
                                             f"profile: {results.profile}"),
                       encoding="utf-8")
    written.append(summary)
    return written


def load_results(directory) -> dict[str, list[list[str]]]:
    """The four tables of a result directory.  Raises FileNotFoundError on a
    missing file and ValueError on a wrong header or a row of the wrong length."""
    import csv  # only reading results needs it
    directory = Path(directory)
    loaded = {}
    for stem, fields in CSV_FILES.items():
        path = directory / f"{stem}.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing {path.name} in {directory}")
        with open(path, encoding="utf-8", newline="") as fh:
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


class RttRuns:
    """A multiset of RTTs as sorted (value, count) runs, indexed by rank like the
    sorted list of every value: a rank is found by bisecting the cumulative counts."""

    def __init__(self, counts: dict[float, int]):
        self.values = sorted(counts)
        if not all(map(math.isfinite, self.values)):
            raise ValueError("rtt_ms: every value must be finite")
        self.counts = [counts[v] for v in self.values]
        self.ends = list(accumulate(self.counts))

    def __len__(self) -> int:
        return self.ends[-1]

    def __getitem__(self, rank: int) -> float:
        return self.values[bisect_right(self.ends, rank)]

    def mean_std(self) -> tuple[float, float]:
        """Mean and population standard deviation from the exact sums, each
        rounded once, as ``statistics.fmean`` and ``statistics.pstdev`` do: the
        sums are integers over the values' common denominator, a quotient of
        integers rounds once, and the root is taken on integers to at least 55
        bits, rounded to odd.  Where the sum is past the float range, which
        fmean cannot take, the mean is the exact mean rounded once."""
        n = len(self)
        ratios = [v.as_integer_ratio() for v in self.values]
        den = math.lcm(*(q for _, q in ratios))
        nums = [p * (den // q) for p, q in ratios]  # value * den, exactly
        sx = sum(c * a for a, c in zip(nums, self.counts))
        sxx = sum(c * a * a for a, c in zip(nums, self.counts))
        num, vden = n * sxx - sx * sx, (n * den) ** 2  # the variance, num / vden
        k = (110 - num.bit_length() + vden.bit_length()) // 2
        num, vden = num << max(2 * k, 0), vden << max(-2 * k, 0)
        root = math.isqrt(num // vden)  # the root of var * 4**k, rounded down
        root |= root * root * vden != num
        try:
            mean = sx / den / n
        except OverflowError:
            mean = sx / (den * n)
        return mean, (root << max(-k, 0)) / (1 << max(k, 0))


def quantile(values, q: float) -> float:
    """The q-quantile of sorted `values` (a list or :class:`RttRuns`) by linear
    interpolation between the closest ranks, bit for bit as numpy's default
    ``np.quantile``."""
    h = (len(values) - 1) * q
    i = math.floor(h)
    g = h - i
    a = values[min(i, len(values) - 1)]
    b = values[min(i + 1, len(values) - 1)]
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def rtt_cdf(values) -> list[tuple[float, float]]:
    """(quantile, rtt) points on a regular quantile grid of CDF_STEP."""
    if not values:
        return []
    # start + i * step, as numpy's float arange, so each q has the same bits
    return [(q, quantile(values, q))
            for q in (CDF_STEP + i * CDF_STEP for i in range(round(1 / CDF_STEP)))]


def convergence_times(timeseries: list) -> dict[tuple[str, int], float]:
    """Per (arm, rep), in order of first appearance: the earliest sample time
    after which no node's allocation changes again."""
    runs = defaultdict(lambda: defaultdict(dict))  # (arm, rep) -> t -> node -> pods
    for arm, rep, t, node, rt_pods, regular_pods, _ in timeseries:
        runs[arm, int(rep)][float(t)][node] = (rt_pods, regular_pods)
    settled = {}
    for key, per_time in runs.items():
        times = sorted(per_time, reverse=True)
        settled[key] = next((later for t, later in zip(times[1:], times)
                             if per_time[t] != per_time[times[0]]), times[-1])
    return settled


def _summary(rows: dict[str, list], header: str) -> tuple[str, dict[str, RttRuns]]:
    """The summary text, and the RTT runs of each arm with requests, in one pass per table."""
    reps, placed, unschedulable = set(), defaultdict(lambda: defaultdict(Counter)), Counter()
    placements = Counter(map(itemgetter(0, 1, 4, 3, 5), rows["placements"]))
    for (arm, rep, node, service, status), n in placements.items():
        reps.add(int(rep))
        if status == "Running":
            placed[arm][node][service] += n
        elif status == "Unschedulable":
            unschedulable[arm] += n
    converged = convergence_times(rows["timeseries"])
    replicas, rtts, evictions = defaultdict(Counter), defaultdict(Counter), defaultdict(Counter)
    for (arm, replica, rtt), n in Counter(map(itemgetter(0, 5, 7), rows["requests"])).items():
        replicas[arm][replica] += n
        rtts[arm][float(rtt)] += n
    for (arm, reason), n in Counter(map(itemgetter(0, 6), rows["evictions"])).items():
        evictions[arm][reason] += n
    arms = dict.fromkeys([*(key[0] for key in placements), *(arm for arm, _ in converged),
                          *replicas, *evictions])
    rtts = {arm: RttRuns(rtts[arm]) for arm in arms if arm in rtts}
    reps = sorted(reps) or [0]
    lines = [header] if header else []
    lines.append(f"arms: {', '.join(arms)}  repetitions: {len(reps)}")
    for arm in arms:
        lines += ["", f"== arm {arm} =="]
        if arm in placed:
            lines.append("  placements per node (all repetitions):")
            for node, services in sorted(placed[arm].items()):
                parts = ", ".join(f"{svc}={n}" for svc, n in sorted(services.items()))
                lines.append(f"    {node}: total={sum(services.values())} ({parts})")
        if unschedulable[arm]:
            lines.append(f"  unschedulable placements: {unschedulable[arm]}")
        if arm in evictions:
            ev = ", ".join(f"{k}={v}" for k, v in sorted(evictions[arm].items()))
            lines.append(f"  evictions: {ev}")
        if arm in rtts:
            runs = rtts[arm]
            mean, std = runs.mean_std()
            lines.append(f"  requests: {len(runs)}  rtt mean={mean:.4f} ms  std={std:.4f} ms  "
                         f"p50={quantile(runs, 0.5):.4f}  p95={quantile(runs, 0.95):.4f}  "
                         f"p99={quantile(runs, 0.99):.4f}")
            share = ", ".join(f"{rep}={n}" for rep, n in sorted(replicas[arm].items()))
            lines.append(f"  per-replica request counts: {share}")
        per_rep = [converged[arm, rep] for rep in reps if (arm, rep) in converged]
        if per_rep:
            lines.append("  convergence time per repetition (s): "
                         + ", ".join(f"{t:.0f}" for t in per_rep))
    return "\n".join(lines) + "\n", rtts


def render_summary(rows: dict[str, list], header: str = "") -> str:
    return _summary(rows, header)[0]


def render_comparison(rows: dict[str, list]) -> str:
    """Baseline-vs-custom comparison tables recomputed from the CSVs."""
    summary, rtts = _summary(rows, "")
    lines = [summary]
    if len(rtts) >= 2:
        lines.append("== rtt cdf comparison ==")
        grids = [rtt_cdf(runs) for runs in rtts.values()]
        lines.append("  q     " + "".join(f"{arm:>14}" for arm in rtts))
        for i, (q, _) in enumerate(grids[0]):
            lines.append(f"  {q:0.2f}  " + "".join(f"{grid[i][1]:14.4f}" for grid in grids))
    return "\n".join(lines) + "\n"
