import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fogsim.report import (CDF_STEP, load_results, quantile, render_comparison,
                           render_summary, rtt_cdf, write_results)
from fogsim.scenario_io import parse_scenario
from fogsim.scenarios import load_bundled
from fogsim.simulator import run_scenario

ROOT = Path(__file__).resolve().parent.parent
GRID = np.arange(CDF_STEP, 1.0 + CDF_STEP / 2, CDF_STEP)


class TestQuantile:
    def test_grid_is_numpys_arange(self):
        assert [q for q, _ in rtt_cdf([1.0])] == GRID.tolist()

    @pytest.mark.parametrize("n", range(1, 51))
    def test_equals_np_quantile(self, n):
        rng = random.Random(n)
        # few distinct values, so most arrays repeat some
        values = sorted(rng.choice([rng.uniform(0.1, 5.0) for _ in range(max(1, n // 3))])
                        for _ in range(n))
        for q in (0.5, 0.95, 0.99):
            assert quantile(values, q) == np.quantile(values, q)
        assert [v for _, v in rtt_cdf(values)] == np.quantile(values, GRID).tolist()


@pytest.mark.parametrize("name", ["fig7-monitor", "fig9-loadbalancer"])
def test_summary_of_rows_equals_summary_of_csvs(tmp_path, name):
    write_results(run_scenario(load_bundled(name), profile="ci"), tmp_path)
    header, rest = (tmp_path / "summary.txt").read_text().split("\n", 1)
    assert header.startswith(f"scenario: {name}")
    assert rest == render_summary(load_results(tmp_path))


def test_one_request_stream_writes_a_summary(tmp_path):
    text = (ROOT / "src/fogsim/scenarios/fig9-loadbalancer.ini").read_text()
    text = text.replace("count=10000", "count=1")
    write_results(run_scenario(parse_scenario(text, "one-request")), tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    assert summary.count("  requests: 1  ") == 2
    assert "== rtt cdf comparison ==" in render_comparison(load_results(tmp_path))


def test_run_and_write_import_no_numpy(tmp_path):
    code = ("import sys\n"
            "from fogsim.report import write_results\n"
            "from fogsim.scenarios import load_bundled\n"
            "from fogsim.simulator import run_scenario\n"
            "for name in ('fig5-dependencies', 'fig9-loadbalancer'):\n"
            "    write_results(run_scenario(load_bundled(name), profile='ci'),\n"
            "                  sys.argv[1] + '/' + name)\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig9-loadbalancer" / "summary.txt").exists()
