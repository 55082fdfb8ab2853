"""One measured execution of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --outdir DIR [--traced]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --warmup

Times the public path a ``fogsim run`` takes: ``import fogsim``, then
``parse_scenario`` and ``validate``, then ``run_scenario(..., jobs=1)``, then
``report.write_results``.  Then it checks the CSVs and prints one JSON line.
With ``--traced`` the same calls run under :class:`spans.Tracer`, and the
line also carries the per-layer metrics.  ``--setup-only`` stops after
parsing and prints only ``setup_s`` and ``round_s``.  ``--warmup`` only
imports fogsim, so that compiled bytecode and the file cache are in place
before timing.

Untraced runs sample the host's speed throughout with a
:class:`hostspeed.Sampler`, leave its slices out of every time, and print
the sampled job's time per round as ``round_s``; ``run.py`` scales the
times by it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import spans
import workloads

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--outdir", type=Path)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sampler = None if args.traced or args.warmup else hostspeed.Sampler()
    clock = sampler.clock if sampler else perf_counter
    if sampler:
        sampler.start()
    started = clock()
    import fogsim
    from fogsim import report, scenario_io, simulator
    import_s = clock() - started
    if Path(fogsim.__file__).resolve().parent != SRC / "fogsim":
        print(f"error: imported fogsim from {fogsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.warmup:
        print(json.dumps({"import_s": import_s}))
        return 0

    workload = workloads.build(args.workload, args.seed, CHECKOUT)
    tracer = spans.Tracer() if args.traced else None
    if not args.setup_only:
        shutil.rmtree(args.outdir, ignore_errors=True)
    with tracer.patched() if tracer else nullcontext():
        t0 = clock()
        config = scenario_io.parse_scenario(workload.text, name_hint=workload.name)
        problems = config.validate()
        t1 = clock()
        if args.setup_only:
            sampler.stop()
            print(json.dumps({"setup_s": import_s + (t1 - t0),
                              "round_s": sampler.round_s(), "problems": problems}))
            return 0
        results = simulator.run_scenario(config, seed=args.seed, jobs=1)
        t2 = clock()
        report.write_results(results, args.outdir)
        t3 = clock()
    if sampler:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems += checks.check(workload, args.outdir)
    setup_s = import_s + (t1 - t0)
    out = {"setup_s": setup_s, "simulate_s": t2 - t1, "wall_s": setup_s + (t3 - t1),
           "peak_rss_mb": peak_rss_mb, "digest": checks.digest(args.outdir),
           "problems": problems[:20]}
    if sampler:
        out["round_s"] = sampler.round_s()
    shutil.rmtree(args.outdir, ignore_errors=True)
    if tracer:
        out["layers"] = spans.layer_metrics(tracer.spans, tracer.counts)
        tracer.write(args.outdir.parent / f"{workload.name}.spans.csv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
