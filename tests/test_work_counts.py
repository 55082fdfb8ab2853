"""Pinned work counts of the three benchmark workloads.

Seed 1 of each workload in `perfbench/workloads.py` is parsed, run and
written under `perfbench/spans.py`'s tracer, in this process.  Every `.calls`
metric of `layer_metrics`, and every per-layer metric that `BENCHMARK.json`
counts in units of `count`, must equal its pin in `work_counts.json`.  The
counts are the same on every run and under any `PYTHONHASHSEED`; only the
seconds vary.

The pins follow the `HOOK_CALLS` rule of `tests/test_scheduler.py`: a count
that falls is pinned anew in the same change, and a count that rises fails
until a change that does new work on purpose raises its pin and says why.
To print the counts of the current tree in the pin file's format:

    PYTHONPATH=src python tests/test_work_counts.py
"""

import json
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from fogsim import report, scenario_io, simulator  # noqa: E402

PINS = Path(__file__).parent / "work_counts.json"
SEED = 1


def counted_names() -> set[str]:
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"] for m in declared if m["unit"] == "count"}


def work_counts(name: str, outdir: Path) -> dict[str, int]:
    workload = workloads.build(name, SEED, CHECKOUT)
    tracer = spans.Tracer()
    with tracer.patched():
        config = scenario_io.parse_scenario(workload.text, name_hint=workload.name)
        results = simulator.run_scenario(config, seed=SEED, jobs=1)
        report.write_results(results, outdir)
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    counted = counted_names()
    return {k: int(v) for k, v in sorted(metrics.items())
            if k.endswith(".calls") or k in counted}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_work_counts_of_each_workload_are_pinned(tmp_path, name):
    pinned = json.loads(PINS.read_text())[name]
    counts = work_counts(name, tmp_path)
    assert counts.keys() == pinned.keys()
    risen = {k: (pinned[k], v) for k, v in counts.items() if v > pinned[k]}
    fallen = {k: (pinned[k], v) for k, v in counts.items() if v < pinned[k]}
    assert not risen, f"counts rose (pinned, now): {risen}"
    assert not fallen, f"counts fell; pin them anew (pinned, now): {fallen}"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps({name: work_counts(name, Path(scratch) / name)
                          for name in workloads.NAMES}, indent=2))
