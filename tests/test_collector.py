"""A run makes no reference cycles, so it runs with the cyclic collector paused.

`run_scenario`, `report.write_results` and `report.load_results` pause the
process-wide collector and restore the caller's setting on return and on
raise.  That is only safe while reference counting alone frees what they make:
a cycle added anywhere in a run would then live until the caller's next
collection.  These tests keep both halves true.
"""

import gc
import sys
from pathlib import Path

import pytest

from fogsim import report, simulator
from fogsim.scenario_io import load_scenario
from fogsim.scenarios import BUNDLED, load_bundled
from fogsim.simulator import run_scenario

SCENARIO_FILES = [*(Path(simulator.__file__).parent / "scenarios" / f"{name}.ini"
                    for name in BUNDLED),
                  *sorted((Path(__file__).parent / "scenarios").glob("*.ini"))]


@pytest.fixture
def collector_off():
    """The collector off for the test, after a full collection, and back on after."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_runs_make_no_reference_cycles(tmp_path, collector_off):
    """Every scenario file (ci), run, written and read back with the collector
    off, leaves nothing that only the collector could free."""
    for path in SCENARIO_FILES:
        config = load_scenario(path)
        report.write_results(run_scenario(config, profile="ci", jobs=1), tmp_path / path.stem)
        tables = report.load_results(tmp_path / path.stem)
        assert tables["placements"], path.stem
        del config, tables
    assert gc.collect() == 0


def test_no_collection_runs_inside_a_run_write_or_read(tmp_path):
    """fig7-monitor (paper) makes enough objects to trigger collections, yet none
    starts while the body of any of the three calls runs, with the caller's
    collector on."""
    assert gc.isenabled()
    bodies = {getattr(fn, "__wrapped__", fn).__code__: fn.__name__
              for fn in (run_scenario, report.write_results, report.load_results)}
    started = []

    def record(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code in bodies:
                started.append((bodies[frame.f_code], info["generation"]))
            frame = frame.f_back

    config = load_bundled("fig7-monitor")
    gc.callbacks.append(record)
    try:
        results = run_scenario(config, profile="paper")
        report.write_results(results, tmp_path)
        tables = report.load_results(tmp_path)
    finally:
        gc.callbacks.remove(record)
    assert len(tables["timeseries"]) == len(results.timeseries) > 700 * 10
    assert started == []


def failing_execute(self):
    raise RuntimeError("a run that raises")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_each_call_restores_the_callers_setting(tmp_path, enabled):
    config = load_bundled("fig6-deadline")
    (gc.enable if enabled else gc.disable)()
    try:
        results = run_scenario(config, profile="ci")
        assert gc.isenabled() is enabled
        report.write_results(results, tmp_path)
        assert gc.isenabled() is enabled
        report.load_results(tmp_path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_run_that_raises_restores_the_callers_setting(monkeypatch, tmp_path, enabled):
    monkeypatch.setattr(simulator._Run, "execute", failing_execute)
    config = load_bundled("fig6-deadline")
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="a run that raises"):
            run_scenario(config, profile="ci")
        assert gc.isenabled() is enabled
        with pytest.raises(FileNotFoundError):
            report.load_results(tmp_path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
