import csv
import hashlib
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fogsim import report
from fogsim.report import (CDF_STEP, load_results, quantile, render_comparison,
                           render_summary, rtt_cdf, write_results)
from fogsim.scenario_io import parse_scenario
from fogsim.scenarios import BUNDLED, load_bundled
from fogsim.simulator import ResultSet, run_scenario

from conftest import load_test_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_FILES = sorted(p.stem for p in (ROOT / "tests" / "scenarios").glob("*.ini"))
GRID = np.arange(CDF_STEP, 1.0 + CDF_STEP / 2, CDF_STEP)
# sha256 of summary.txt per bundled scenario in the ci profile, and of the
# fig9 `fogsim report` text: a change to these bytes says why in CHANGES.md
SUMMARY_SHA256 = {
    "fig5-dependencies": "364e6df2851bb38708271d05691669033e257200a2366869402a9454a56ed706",
    "fig6-realtime": "cc2ed143b08326ba3ff9c2ad03ee1b1e701b6e4c99a8bc1f99c47dee08dc2b2a",
    "fig6-deadline": "a9fcd46bf8e8419811d07ed250035ba2b06527d433936cd4b829bdd5cdfe239a",
    "fig7-monitor": "da216bffa12253378d11cc1a5b19bb71763e339134de7a1186fd974712440e31",
    "fig9-loadbalancer": "5bc774a1554af97366e5e244a7ca50a224360680b4b7b4900ec7c7fc9ae5a93c",
}
FIG9_REPORT_SHA256 = "d637136bfebdddd02541ad2df91ab7d56a3201c28b6f98a3b3e8a41a01548a42"


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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", range(30))
def test_run_statistics_are_exact(seed):
    """Two arms' requests, interleaved, each a few distinct values: the counting
    pass gives fmean, pstdev and np.quantile of each arm's values, bit for bit."""
    rng = random.Random(seed)
    values = {}
    for arm in ("weighted", "uniform"):
        pool = [rng.uniform(0.1, 5.0) for _ in range(rng.choice([1, 2, 3, 17]))]
        pool[0] = rng.choice([pool[0], 0.1, 0.3])  # decimals a float sum rounds
        values[arm] = [rng.choice(pool) for _ in range(rng.randint(1, 200))]
    rows = [(arm, "0", "1.0", "a1", "web", rng.choice(["web-0", "web-1"]), "a1", repr(v))
            for arm in values for v in values[arm]]
    rng.shuffle(rows)
    _, runs = report._summary({"placements": [], "timeseries": [], "requests": rows,
                               "evictions": []}, "")
    assert sorted(runs) == sorted(values)
    for arm, expanded in values.items():
        mean, std = runs[arm].mean_std()
        assert len(runs[arm]) == len(expanded)
        assert mean == statistics.fmean(expanded)
        if sys.version_info >= (3, 11):  # an older pstdev rounds twice
            assert std == statistics.pstdev(expanded)
        assert [quantile(runs[arm], q) for q in GRID] == np.quantile(expanded, GRID).tolist()


@pytest.mark.parametrize("counts, mean, std", [
    ({8.99e307: 2}, 8.99e307, 0.0),
    ({1.7e308: 3, 0.5: 1}, 1.275e308, 7.361215932167728e307),
])
def test_mean_of_a_sum_past_the_float_range(counts, mean, std):
    """fmean raises on these; the summary takes the exact mean, rounded once.  The
    expected values are fmean and pstdev of the values divided by 4, times 4."""
    assert report.RttRuns(counts).mean_std() == (mean, std)


# a permitted name holds anything but a comma, a double quote, a line break or a
# lone surrogate (category Cs), which UTF-8 cannot encode
NAMES = st.one_of(st.text(st.characters(exclude_categories=("Cs",),
                                        exclude_characters=',"\r\n'), max_size=6),
                  st.text("aZ09-._éµ東", min_size=1, max_size=6))
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.sampled_from(["1e-05", "-0.0", "1e+16"]))
COUNTS = st.integers().map(str)
CELLS = {"rep": st.integers(0, 99).map(str), "rt_pods": COUNTS, "regular_pods": COUNTS,
         "total": COUNTS, "t": FLOATS, "time": FLOATS, "rtt_ms": FLOATS}
# two RTTs whose sum is past the float range, which once failed the summary's mean
HUGE_RTTS = {"placements": [], "timeseries": [], "evictions": [],
             "requests": [("a", "0", "0.0", "c", "s", "s-0", "n", "8.99e+307")] * 2}


@given(st.fixed_dictionaries({
    stem: st.lists(st.tuples(*(CELLS.get(f, NAMES) for f in fields)), max_size=4)
    for stem, fields in report.CSV_FILES.items()}))
@example(HUGE_RTTS)
def test_written_tables_are_csv_writer_bytes(tables):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_results(ResultSet("prop", 0, "ci", **tables), out / "written")
        for stem, fields in report.CSV_FILES.items():
            with open(out / f"{stem}.csv", "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([fields, *tables[stem]])
            assert ((out / "written" / f"{stem}.csv").read_bytes()
                    == (out / f"{stem}.csv").read_bytes()), stem


@pytest.mark.parametrize("n", [0, 1, report.BLOCK_ROWS - 1, report.BLOCK_ROWS,
                               report.BLOCK_ROWS + 1, 2 * report.BLOCK_ROWS + 1])
def test_tables_across_write_blocks_are_csv_writer_bytes(tmp_path, n):
    """A table is written in blocks of BLOCK_ROWS rows, its header first: tables
    that end just short of a block, on its end and just past it write the
    bytes csv.writer writes."""
    def cell(field, i):
        if field in ("t", "time", "rtt_ms"):
            return repr(i / 8)
        return str(i) if field in ("rep", "rt_pods", "regular_pods", "total") else f"{field}{i % 5}"

    tables = {stem: [tuple(cell(f, i) for f in fields) for i in range(n)]
              for stem, fields in report.CSV_FILES.items()}
    write_results(ResultSet("blocks", 0, "ci", **tables), tmp_path / "written")
    for stem, fields in report.CSV_FILES.items():
        with open(tmp_path / f"{stem}.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([fields, *tables[stem]])
        assert ((tmp_path / "written" / f"{stem}.csv").read_bytes()
                == (tmp_path / f"{stem}.csv").read_bytes()), stem


@pytest.mark.parametrize("name", BUNDLED)
def test_summary_bytes_are_pinned(tmp_path, name):
    write_results(run_scenario(load_bundled(name), profile="ci"), tmp_path)
    assert sha256((tmp_path / "summary.txt").read_text()) == SUMMARY_SHA256[name]
    if name == "fig9-loadbalancer":
        assert sha256(render_comparison(load_results(tmp_path))) == FIG9_REPORT_SHA256


@pytest.mark.parametrize("name", [*BUNDLED, *SCENARIO_FILES])
def test_summary_of_rows_equals_summary_of_csvs(tmp_path, name):
    """A run's rows are, cell for cell, the strings its CSVs read back as, so
    the run and `fogsim report` summarise the same rows."""
    config = load_bundled(name) if name in BUNDLED else load_test_scenario(name)
    results = run_scenario(config, profile="ci")
    write_results(results, tmp_path)
    loaded = load_results(tmp_path)
    for stem in report.CSV_FILES:
        rows = getattr(results, stem)
        assert loaded[stem] == [list(r) for r in rows], stem
        assert all(type(cell) is str for row in rows for cell in row), stem
    header, rest = (tmp_path / "summary.txt").read_text().split("\n", 1)
    assert header.startswith(f"scenario: {config.name}")
    assert rest == render_summary(loaded)


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
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "assert 'fractions' not in sys.modules, 'fractions imported'\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig9-loadbalancer" / "summary.txt").exists()


def test_written_files_do_not_depend_on_the_hash_seed(tmp_path):
    """Every bundled scenario (ci) and every `tests/scenarios/*.ini`, run under
    two `PYTHONHASHSEED` values, writes the same bytes: no output follows the
    iteration order of a set or of a dict keyed by hashed values."""
    code = ("import sys\n"
            "from pathlib import Path\n"
            "from fogsim.report import write_results\n"
            "from fogsim.scenario_io import load_scenario\n"
            "from fogsim.scenarios import BUNDLED, load_bundled\n"
            "from fogsim.simulator import run_scenario\n"
            "out = Path(sys.argv[1])\n"
            "configs = [load_bundled(n) for n in BUNDLED]\n"
            "for config in configs + [load_scenario(p) for p in sys.argv[2:]]:\n"
            "    write_results(run_scenario(config, profile='ci'), out / config.name)\n")
    files = sorted(str(p) for p in (ROOT / "tests" / "scenarios").glob("*.ini"))
    procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path / seed), *files],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                                   "PYTHONHASHSEED": seed}, stderr=subprocess.PIPE, text=True)
             for seed in ("1", "2")]
    for proc in procs:
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
    written = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*.*"))
    assert len(written) == 5 * (len(BUNDLED) + len(files))
    for path in written:
        assert (tmp_path / "1" / path).read_bytes() == (tmp_path / "2" / path).read_bytes(), path


def test_import_leaves_out_the_process_pool():
    """The imports of a run leave out what only other paths use: the process pool
    (`--jobs`), logging (a warning), the runtime model, the plugins, which a
    scenario's arms import when it is parsed, csv (reading results) and copy (a
    cluster snapshot).  No path uses fractions: a summary's statistics are exact
    on integers."""
    code = ("import sys\n"
            "import fogsim\n"
            "from fogsim import report, scenario_io, simulator\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process',\n"
            "                         'logging', 'fractions', 'decimal', 'fogsim.runtime',\n"
            "                         'fogsim.realtime', 'fogsim.dependencies', 'csv',\n"
            "                         'copy')\n"
            "             if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_each_public_name_is_its_home_modules_object():
    """`import fogsim` loads no submodule; each name of `__all__` is then the
    object its defining module holds, and an unknown name raises AttributeError."""
    code = ("import sys\n"
            "import fogsim\n"
            "assert [m for m in sys.modules if m.startswith('fogsim.')] == []\n"
            "for name in fogsim.__all__:\n"
            "    obj = getattr(fogsim, name)\n"
            "    assert obj.__module__.startswith('fogsim.'), name\n"
            "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
            "try:\n"
            "    fogsim.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('an unknown name resolved')\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
