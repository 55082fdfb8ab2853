"""fogsim host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fogsim is imported from its ``src``.
Workloads (see ``workloads.py`` for how each is generated from the seed):

  monitor-converge  fig7-monitor, one rep: read-heavy snapshot, realtime and
                    monitor work; no dependencies, no balancer.
  placement-burst   waves of regular, two-priority RT and dependency pods on
                    16 nodes under a realtime and a dependencies arm:
                    write-heavy, with preemption and dependency scoring.
  request-stream    48 000 requests from four clients to three replicated
                    services: event loop, balancer and CSV writing; it
                    bypasses the cluster and scheduler work.

Each iteration runs ``worker.py`` in a fresh interpreter, so every
iteration pays the import and has its own peak RSS.  Iterations repeat
with the same inputs until ``--seconds`` have passed; each metric is the
median over them.  The load comes from one process running
``run_scenario(..., jobs=1)``; ``--jobs`` parallelism is not measured,
because on a small shared machine it would measure the OS scheduler.

With ``--trace 0`` the result carries the end-to-end metrics:

  setup_s      import fogsim in a fresh interpreter, parse and validate
  simulate_s   run_scenario for all arms and reps
  wall_s       setup_s + simulate_s + report.write_results
  peak_rss_mb  the worker's peak resident memory (ru_maxrss)

The three times are host seconds scaled to the reference host speed: each
iteration's times are multiplied by ``hostspeed.REFERENCE_ROUND_S`` over
the time per round of a fixed job sampled during it (``hostspeed.py`` says
why).  The unscaled medians are printed on a line before the result.

With ``--trace 1`` untraced and traced iterations alternate, and the result
carries the per-layer metrics of the traced ones (``spans.py``) plus
``trace.overhead_ratio``: the traced ``simulator.run.s`` over the median
untraced ``simulate_s``.  The traced CSVs must equal the untraced ones.

An iteration fails if it raises or any output check (``checks.py``) fails.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the CSV digest is printed on the line before.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_ROUND_S
from workloads import NAMES

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKDIR = HERE / "_work"
END_TO_END = {"setup_s": "s", "simulate_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TIMES = ("setup_s", "simulate_s", "wall_s")
# A run must end within 180 s; no iteration may start after this many.
LAST_START_S = 120.0
# extra set-up measurements per run, on top of one per iteration
SETUP_PROBES = 10
# Workers keep compiled bytecode under WORKDIR, filled by the warm-up, so
# setup_s is the import a user with cached bytecode pays, whatever
# PYTHONDONTWRITEBYTECODE says, and nothing is written outside WORKDIR.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
WORKER_ENV["PYTHONPYCACHEPREFIX"] = str(WORKDIR / "pycache")


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "report.bytes":
        return "B"
    return "count"


def median(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def scaled(rows: list[dict], key: str) -> float:
    """Median of a time over iterations, each scaled to the reference host speed."""
    return statistics.median(row[key] * REFERENCE_ROUND_S / row["round_s"]
                             for row in rows)


def run_worker(*args: str, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout,
                          cwd=CHECKOUT, env=WORKER_ENV)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "fogsim" / "__init__.py").is_file():
        print(f"error: no fogsim sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    outdir = WORKDIR / f"{args.workload}-{args.seed}"
    common = ("--workload", args.workload, "--seed", str(args.seed), "--outdir", str(outdir))
    warm = WORKDIR / f"{args.workload}.warm"
    try:
        run_worker("--warmup", timeout=60)
        if not warm.exists():
            # the first run of a workload in a checkout also compiles what the
            # run imports lazily (numpy.ma, for one) with an untimed iteration
            run_worker(*common, timeout=170)
            warm.touch()
        started = perf_counter()
        probes = [run_worker(*common, "--setup-only", timeout=60)
                  for _ in range(SETUP_PROBES if args.trace == 0 else 0)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain, traced, failed, crashed = [], [], 0, 0
    while True:
        elapsed = perf_counter() - started
        done = elapsed >= args.seconds and plain and (args.trace == 0 or traced)
        if done or elapsed > LAST_START_S:
            break
        want_traced = args.trace == 1 and len(traced) < len(plain)
        try:
            sample = run_worker(*common, *(("--traced",) if want_traced else ()),
                                timeout=175 - elapsed)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"iteration failed: {exc}", file=sys.stderr)
            crashed += 1
            break
        if sample["problems"]:
            failed += 1
            print("check failed: " + "; ".join(sample["problems"]), file=sys.stderr)
        (traced if want_traced else plain).append(sample)

    if not plain or (args.trace == 1 and not traced):
        print("error: no iteration completed", file=sys.stderr)
        return 1
    digests = {s["digest"] for s in plain + traced}
    if len(digests) != 1:
        print(f"error: CSV digests differ between iterations: {sorted(digests)}",
              file=sys.stderr)

    if args.trace == 0:
        metrics = {name: {"value": (scaled if name in TIMES else median)(plain, name),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
        metrics["setup_s"]["value"] = scaled(probes + plain, "setup_s")
        raw = {name: median(probes + plain if name == "setup_s" else plain, name)
               for name in TIMES}
        print("unscaled medians: " + ", ".join(f"{k} {v:.6f} s" for k, v in raw.items())
              + f"; sampled job median {median(probes + plain, 'round_s'):.6f} s"
              f" per round (reference {REFERENCE_ROUND_S} s)")
    else:
        layers = [s["layers"] for s in traced]
        metrics = {name: {"value": median(layers, name), "unit": layer_unit(name)}
                   for name in layers[0]}
        base = median(plain, "simulate_s")
        metrics["trace.overhead_ratio"] = {
            "value": metrics["simulator.run.s"]["value"] / base, "unit": "ratio"}
        print(f"trace overhead base: median untraced simulate_s {base:.6f} s "
              f"over {len(plain)} iterations")
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} "
          f"traced iterations; CSV sha256 {' '.join(sorted(digests))}")
    print(json.dumps({"correct": failed + crashed == 0 and len(digests) == 1,
                      "attempted": len(plain) + len(traced) + crashed,
                      "failed": failed + crashed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
