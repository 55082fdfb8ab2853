"""Metamorphic relations of a run (`ci`): each arm and each repetition stands
alone, so per-run state that leaks into another (arm, rep) fails here even
where no byte pin sees it, and through any change of the bytes themselves.

(a) A scenario with only arm A gives exactly arm A's rows of the full run.
(b) `_run_rep` of rep k, called on its own after the full run, gives exactly
    rep k's rows.
(c, d) The arms in reverse order, with a scheduler config and a service that
    no deploy names, give the same row block for each (rep, arm).  Both are
    checked in one run: each held on its own, and one run keeps the file
    within its budget.
(e) Sampling is read-only: with `sample_period_s = 0` the run gives the same
    placements, requests and evictions and no timeseries rows.  This is why
    a run may write its samples between events rather than walk them.

Renaming an arm is not a relation: its seeded-random ties draw from a stream
seeded with its name.
"""

from functools import cache
from pathlib import Path

import pytest

from fogsim import simulator
from fogsim.fogservice import FogServiceSpec
from fogsim.scenario_io import load_scenario
from fogsim.scenarios import BUNDLED
from fogsim.simulator import ArmSpec, _run_rep, request_timeline, run_scenario
from fogsim.telemetry import MetricSpec

from conftest import replace

SCENARIO_FILES = [*(Path(simulator.__file__).parent / "scenarios" / f"{name}.ini"
                    for name in BUNDLED),
                  *sorted((Path(__file__).parent / "scenarios").glob("*.ini"))]


def tables(results) -> list[list[tuple]]:
    return [results.placements, results.timeseries, results.requests, results.evictions]


@cache
def full_run(path: Path):
    config = load_scenario(path)
    return config, run_scenario(config, profile="ci")


def blocks(rows) -> dict:
    """Rows grouped by (rep, arm), each group in row order."""
    grouped = {}
    for row in rows:
        grouped.setdefault((row[1], row[0]), []).append(row)
    return grouped


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.stem)
def test_each_arm_stands_alone(path):
    config, full = full_run(path)
    if len(config.arms) == 1:
        pytest.skip("one arm: the full run is the arm alone")
    for arm in config.arms:
        alone = run_scenario(replace(config, arms=(arm,)), profile="ci")
        assert tables(alone) == [[r for r in t if r[0] == arm.name] for t in tables(full)], \
            arm.name


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.stem)
def test_a_repetition_alone_gives_its_rows(path):
    config, full = full_run(path)
    rep = str(config.ci_repetitions - 1)  # the last: a leak reaches it from every other
    alone = _run_rep(config, full.seed, int(rep), request_timeline(config))
    assert list(alone) == [[r for r in t if r[1] == rep] for t in tables(full)]


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.stem)
def test_arm_order_and_inert_additions_only_move_row_blocks(path):
    config, full = full_run(path)
    inert_config = ArmSpec("inert-config", plugins=(("dependencies", 1.0), ("realtime", 1.0)))
    inert_service = FogServiceSpec(name="inert-service", replicas=2, metric=MetricSpec("load"))
    varied = run_scenario(replace(config, arms=config.arms[::-1],
                                  named_configs=(*config.named_configs, inert_config),
                                  services=(*config.services, inert_service)), profile="ci")
    position = {arm.name: -i for i, arm in enumerate(config.arms)}  # reversed
    for got, want in zip(tables(varied), tables(full)):
        assert blocks(got) == blocks(want)
        assert list(blocks(got)) == sorted(blocks(want), key=lambda k: (int(k[0]), position[k[1]]))


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.stem)
def test_sampling_is_read_only(path):
    config, full = full_run(path)
    unsampled = run_scenario(replace(config, sample_period_s=0.0), profile="ci")
    assert not unsampled.timeseries
    assert ((unsampled.placements, unsampled.requests, unsampled.evictions)
            == (full.placements, full.requests, full.evictions))
