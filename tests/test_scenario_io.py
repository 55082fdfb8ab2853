import configparser
import sys
from pathlib import Path

import pytest

from fogsim.cluster import PodInstance
from fogsim.fogservice import expand
from fogsim.monitor import MonitorConfig
from fogsim.scenario_io import ScenarioParseError, parse_scenario, read_sections
from fogsim.scenarios import BUNDLED, _bundled_text, load_bundled
from fogsim.simulator import ScenarioConfig, run_scenario

from conftest import load_test_scenario

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "perfbench"))

import workloads  # noqa: E402

MINIMAL = """
[scenario]
name = tiny
seed = 1
duration_s = 5
repetitions = 2

[topology]
zone.A = a1 a2
zone.B = b1
uplink.A = 0.5
uplink.B = 1.5

[nodes]
cores = 2
cpu_capacity = 2000
override.a1.cpu_capacity = 500

[service web]
replicas = 3
cpu_request = 100
cpu_limit = 200
metric = latency lower-is-better mw=0.4 lw=0.6

[service worker]
replicas = 1
priority_class = 5
rt_processes =
    deadline name=main runtime_us=100000 period_us=1000000
    fifo pid=2 priority=40 cpu=0.2
depends_on =
    web weight=1.0 lw=0.7 mw=0.3

[arm custom]
plugins = realtime:2.0 baseline:1.0
tie_break = lexicographic

[arm baseline]
plugins = baseline:1.0
tie_break = seeded-random

[monitor]
enabled = true
loop_period_s = 5
grace_s = 60
backoff_s = 30

[loadbalancer]
refresh_period_s = 15
processing_delay_ms = 0.01

[workload]
events =
    at 0 deploy web
    at 1 deploy worker
    at 2 metric web web-0 3.5
    at 3 link A 2.0
    at 4 requests client=a1 service=web rate_hz=5 count=10
"""


class TestParse:
    def test_minimal_round_trip(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.name == "tiny"
        assert cfg.topology.zones == {"A": ("a1", "a2"), "B": ("b1",)}
        assert cfg.topology.uplinks_ms == {"A": 0.5, "B": 1.5}
        assert {n.id: (n.cores, n.cpu_capacity, n.rt_period_us, n.rt_runtime_us)
                for n in cfg.nodes} == {"a1": (2, 500, 1_000_000, 950_000),
                                        "a2": (2, 2000, 1_000_000, 950_000),
                                        "b1": (2, 2000, 1_000_000, 950_000)}
        assert [s.name for s in cfg.services] == ["web", "worker"]
        web, worker = cfg.services
        assert web.metric.direction == "lower-is-better"
        assert web.metric.metric_weight == 0.4
        assert worker.priority_class == 5
        assert len(worker.rt_processes) == 2
        assert worker.rt_processes[1].pid == 2
        assert worker.dependencies[0].latency_weight == 0.7
        assert [a.name for a in cfg.arms] == ["custom", "baseline"]
        assert cfg.arms[0].plugins == (("realtime", 2.0), ("baseline", 1.0))
        assert cfg.monitor == MonitorConfig(loop_period_s=5, grace_s=60, backoff_s=30)
        assert cfg.lb.refresh_period_s == 15
        assert len(cfg.workload) == 5
        assert cfg.workload[4].action == "requests"
        assert cfg.workload[4].args == ("a1", "web", 5.0, 10)

    def test_a_scenario_is_checked_once_from_text_to_results(self, monkeypatch):
        """Construction checks it; neither the reader nor the run checks it again."""
        checked, check = [], ScenarioConfig.validate
        monkeypatch.setattr(ScenarioConfig, "validate",
                            lambda self: checked.append(self) or check(self))
        cfg = parse_scenario(MINIMAL)
        run_scenario(cfg, repetitions=1, profile="ci")
        assert len(checked) == 1 and checked[0] is cfg
        assert cfg.ci_repetitions == cfg.repetitions == 2

    def test_missing_section_rejected(self):
        with pytest.raises(ScenarioParseError, match="topology"):
            parse_scenario("[scenario]\nname = x\n\n[workload]\nevents =\n")

    def test_invalid_service_named_in_error(self):
        bad = MINIMAL.replace("runtime_us=100000 period_us=1000000",
                              "runtime_us=2000000 period_us=1000000")
        with pytest.raises(ScenarioParseError, match="worker.*runtime_us"):
            parse_scenario(bad)

    def test_bad_workload_line(self):
        bad = MINIMAL.replace("at 0 deploy web", "deploy web at 0")
        with pytest.raises(ScenarioParseError, match="workload line"):
            parse_scenario(bad)

    @pytest.mark.parametrize("setting", ["refresh_period_s = 15", "loop_period_s = 5"])
    def test_zero_period_rejected(self, setting):
        # a zero period would schedule periodic events forever
        bad = MINIMAL.replace(setting, setting.split("=")[0] + "= 0")
        with pytest.raises(ScenarioParseError, match="must be positive"):
            parse_scenario(bad)

    def test_unknown_action(self):
        bad = MINIMAL.replace("at 3 link A 2.0", "at 3 reboot A")
        with pytest.raises(ScenarioParseError, match="unknown workload action"):
            parse_scenario(bad)


class TestBundled:
    def test_catalog_has_five_entries(self):
        assert len(BUNDLED) == 5

    def test_all_bundled_parse_and_validate(self):
        for name in BUNDLED:
            cfg = load_bundled(name)
            assert cfg.name == name
            assert cfg.validate() == []

    @pytest.mark.parametrize("name", BUNDLED)
    def test_parsing_builds_no_pod(self, name):
        """Validation reads a deploy's pod ids without building its pods."""
        built, init = [], PodInstance.__init__.__code__
        sys.setprofile(lambda frame, event, _: event == "call" and frame.f_code is init
                       and built.append(frame.f_locals["id"]))
        try:
            cfg = load_bundled(name)
            assert cfg.validate() == [] and built == []
            expand(cfg.services[0])  # the count sees a built pod
        finally:
            sys.setprofile(None)
        assert built

    def test_fig5_structure(self):
        cfg = load_bundled("fig5-dependencies")
        assert len(cfg.topology.zones) == 4
        assert sum(len(n) for n in cfg.topology.zones.values()) == 8
        assert cfg.repetitions == 200 and cfg.ci_repetitions == 50
        assert {a.name for a in cfg.arms} == {"custom", "baseline"}

    def test_fig7_uses_stock_config_for_initial_deploy(self):
        cfg = load_bundled("fig7-monitor")
        assert cfg.monitor is not None
        deploys = [e for e in cfg.workload if e.action == "deploy"]
        assert deploys[0].args[1] == "stock"
        assert {a.name for a in cfg.named_configs} == {"stock"}

    def test_preemption_variant(self):
        cfg = load_test_scenario("fig6-deadline-preemption")
        names = {s.name: s for s in cfg.services}
        assert names["high"].replicas == 7
        assert names["high"].priority_class == 10
        assert names["high-last"].replicas == 1
        assert cfg.workload[-1].at == 5.0


def configparser_sections(text: str) -> list:
    """`text` as the scenario reader read it with configparser, each value's
    blank continuation lines dropped: [(section, [(key, value), ...]), ...]."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    parser.read_string(text)
    return [(name, [(key, without_blank_lines(value)) for key, value in parser[name].items()])
            for name in parser.sections()]


def without_blank_lines(value: str) -> str:
    first, *rest = value.split("\n")
    return "\n".join([first, *filter(None, rest)])


SCENARIO_TEXTS = {
    **{name: _bundled_text(name) for name in BUNDLED},
    **{path.name: path.read_text(encoding="utf-8")
       for path in sorted((CHECKOUT / "tests" / "scenarios").glob("*.ini"))},
    **{f"{name}@{seed}": workloads.build(name, seed, CHECKOUT).text
       for name in ("monitor-converge", "placement-burst", "request-stream")
       for seed in (1, 433)},
    "indented-key-under-header": "[a]\n    k = 1\n    j = 2\n      more\n",
    "shallower-line-is-a-key": "[a]\n  k = 1\n  j = 2\n x = 3\n    y\n[b]\n\tt = 4\n",
    "comments-and-blanks-in-events": (
        "[workload]\nevents =\n    at 0 deploy web\n\n    # a comment\n  ; another\n"
        "\n    at 1 deploy db\n\n\n[scenario]\nname = x\n"),
    "crlf": "[a]\r\nk = 1\r\nv =\r\n    x\r\n\r\n    y\r\n[b c]\r\nk=2\r\n",
    "separators-in-names": (
        "[topology]\nzone.A = a\x85b c\u2028d\nzone.B\x85 = \x85e\n\x85  f\n"
        "[service w\u2028x]\nreplicas = 1\n[arm a]b] c\nk = v = w\n"),
}


@pytest.mark.parametrize("case", SCENARIO_TEXTS)
def test_read_sections_reads_as_configparser(case):
    """The reader gives configparser's sections, keys and values, in its order."""
    text = SCENARIO_TEXTS[case]
    sections = read_sections(text)
    assert [(name, list(keys.items())) for name, keys in sections.items()] == \
        configparser_sections(text)
