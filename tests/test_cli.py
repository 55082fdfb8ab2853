import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fogsim.cli import main
from fogsim.report import load_results, render_comparison
from fogsim.scenarios import _bundled_text


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


class TestList:
    def test_lists_five_bundled_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        names = [line.split()[0] for line in out]
        assert names == ["fig5-dependencies", "fig6-realtime", "fig6-deadline",
                         "fig7-monitor", "fig9-loadbalancer"]
        # every entry maps to a figure of the original experiments
        assert all("fig" in line for line in out)

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_no_subcommand_exits_2_with_one_line(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            "fogsim: error: the following arguments are required: command\n")


class TestRun:
    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.ini")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unparseable_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nname = broken\n")
        assert main(["run", str(bad)]) == 2

    def test_directory_exits_2_with_one_line(self, tmp_path, capsys):
        assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1

    def test_undecodable_bytes_exit_2_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"\xff\xfe[scenario]\nname = broken\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8 text" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_run_writes_results(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["run", "fig5-dependencies", "--profile", "ci",
                     "--reps", "5", "--out", str(out)])
        assert code == 0
        for stem in ("placements", "timeseries", "requests", "evictions"):
            assert (out / f"{stem}.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "arm custom" in summary and "arm baseline" in summary

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["run", "fig5-dependencies", "--profile", "ci",
                         "--reps", "5", "--seed", "7", "--out", str(out)]) == 0
        for name in ("placements.csv", "timeseries.csv", "requests.csv",
                     "evictions.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


MALFORMED_BASE = """
[scenario]
name = malformed
duration_s = 5

[topology]
zone.A = a1 a2
zone.B = b1
uplink.A = 0.5
uplink.B = 1.5

[service web]
replicas = 2

[arm custom]
plugins = baseline:1.0

[workload]
events =
    at 0 deploy web
    {line}
"""


CAMERA_SERVICE = """
[service cam]
locations = a1 b1:2
"""


@pytest.mark.parametrize("line", [
    "at 1 pin web-0",
    "at 1 link A",
    "at 1 metric web web-0 abc",
    "at soon deploy web",
    "at 1 requests client=a1 service=web rate_hz=fast count=10",
    "at 1 requests client=a1 service=web rate_hz=5 count=ten",
    "at 1 requests client=a1 service=web rate_hz=5",
    "at 0 deploy nosuch",
    "at 0 deploy web using=nosuch",
    "at 0 pin web-0 Z9",
    "at 1 link P9 1.0",
    "at 1 requests client=Z service=web rate_hz=5 count=10",
    "at 1 requests client=a1 service=nosuch rate_hz=5 count=10",
    "at 1 requests client=a1 service=web rate_hz=0 count=10",
    "at 1 requests client=a1 service=web rate_hz=5 count=0",
    "at 1 pin nosuch-0 a1",
    # a location-scoped service yields <name>-<location>-<i>; b1 holds -0 and -1
    "at 1 pin cam-b1-2 b1\n    at 1 deploy cam",
    "at 1 pin cam-b1-1 b1\n    at 2 deploy cam",
    # a pin shares its pod's deploy time (by t=1 web-0 is placed); an id is created once
    "at 1 pin web-0 a2",
    "at 0 pin web-0 a1\n    at 0 pin web-0 a2",
    "at 5 deploy web",
    # every number is finite, and a time or a link latency is not negative
    "at 1 link A inf",
    "at 1 link A -2",
    "at 1 metric web web-0 nan",
    "at 1 requests client=a1 service=web rate_hz=inf count=3",
    "at nan link A 2.0",
    "at -1 link A 2.0",
    # a latency is at most 1e300 ms, so that every round trip is finite
    "at 1 link A 1e308",
    # a metric names a service and a pod a deploy of it creates by then
    "at 1 metric nosuch web-0 5",
    "at 1 metric web web-9 5",
    "at 1 metric web cam-a1-0 5\n    at 0 deploy cam",
    "at 1 metric cam cam-a1-0 5\n    at 2 deploy cam",
])
def test_malformed_scenario_exits_2_with_one_line(tmp_path, capsys, line):
    path = tmp_path / "bad.ini"
    path.write_text(MALFORMED_BASE.format(line=line) + CAMERA_SERVICE)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert " ".join(line.split()[:3]) in err  # names the offending directive
    assert not (tmp_path / "out").exists()


def test_pin_of_a_location_scoped_pod_deployed_at_the_same_time_runs(tmp_path, capsys):
    path = tmp_path / "ok.ini"
    path.write_text(MALFORMED_BASE.format(line="at 1 pin cam-b1-1 b1\n    at 1 deploy cam")
                    + CAMERA_SERVICE)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "placements.csv").read_text().splitlines()
    assert any(",cam-b1-1,cam,b1," in row for row in rows)


@pytest.mark.parametrize("line", ["at 0 metric web web-0 5", "at 1 metric web web-1 5"])
def test_metric_of_a_deployed_pod_runs(tmp_path, capsys, line):
    # SUBMIT sorts before METRIC, so a deploy at the metric's own time counts
    path = tmp_path / "ok.ini"
    path.write_text(MALFORMED_BASE.format(line=line))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("name, field, bad", [
    ("fig5-dependencies", "at 0 metric dependency dependency-0",
     "at 0 metric dependency dependency--1"),
    ("fig7-monitor", "cpu_capacity = 1000", "cpu_capacity = 0"),
])
def test_mutated_bundled_scenario_exits_2_with_one_line(tmp_path, capsys, name, field, bad):
    path = tmp_path / f"{name}.ini"
    path.write_text(_bundled_text(name).replace(field, bad))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_an_arm_with_no_plugins_exits_2_with_one_line(tmp_path, capsys):
    # with none the arm would place by CPU fit alone, a scheduler no arm names
    path = tmp_path / "fig7-monitor.ini"
    path.write_text(_bundled_text("fig7-monitor").replace(
        "plugins = realtime:10.0 baseline:1.0", "plugins ="))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: [arm custom]: plugins: need at least one\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, bad", [
    ("duration_s = 5", "duration_s = soon"),
    ("uplink.B = 1.5", "uplink.B = far"),
    ("replicas = 2", "replicas = two"),
    ("replicas = 2", "replicas = 2\nrt_processes =\n    deadline period_us=1000"),
    ("plugins = baseline:1.0", "plugins = nosuch:1.0"),
    ("plugins = baseline:1.0", "plugins = baseline:1.0\ntie_break = bogus"),
    ("plugins = baseline:1.0", "plugins = baseline:1.0\nlb_policy = bogus"),
    # settings sections are checked at parse time, even a monitor that is off
    ("duration_s = 5", "duration_s = 5\n[monitor]\nenabled = true\ngrace_s = 0"),
    ("duration_s = 5", "duration_s = 5\n[monitor]\nenabled = true\nbackoff_s = -5"),
    ("duration_s = 5", "duration_s = 5\n[nodes]\ncores = 0"),
    ("duration_s = 5", "duration_s = 5\n[nodes]\nrt_runtime_us = 2000000"),
    ("duration_s = 5", "duration_s = 5\n[nodes]\noverride.a1.cores = 0"),
    ("duration_s = 5", "duration_s = 5\n[nodes]\noverride.ZZ.cores = 2"),
    ("duration_s = 5", "duration_s = 5\n[nodes]\noverride.a1.corez = 2"),
    ("duration_s = 5", "duration_s = 5\n[nodes]\ncpu_capacity = 0"),
    ("duration_s = 5", "duration_s = 5\n[nodes]\ncpu_capacity = -1"),
    ("duration_s = 5", "duration_s = 5\n[nodes]\noverride.a1.cpu_capacity = 0"),
    # a service's locations are nodes and its dependencies are services
    ("replicas = 2", "locations = ZZ"),
    ("[arm custom]", "[service app]\ndepends_on = nosuch\n[arm custom]"),
    # a key, section or token that nothing reads is an error, not a default
    ("duration_s = 5", "duration_s = 5\n[nodes]\ncorez = 2"),
    ("duration_s = 5", "duration_s = 5\n[monitor]\nenabeld = true"),
    ("duration_s = 5", "duration_s = 5\n[loadbalancer]\nrefresh_period = 10"),
    ("duration_s = 5", "duration_s = 5\ndurations = 5"),
    ("replicas = 2", "replica = 2"),
    ("plugins = baseline:1.0", "plugin = baseline:1.0"),
    ("[arm custom]", "[servce x]\n[arm custom]"),
    ("[arm custom]", "[loadbalancr]\n[arm custom]"),
    ("[arm custom]", "[service]\n[arm custom]"),
    ("[arm custom]", "[service app]\ndepends_on = web wieght=5\n[arm custom]"),
    ("[arm custom]", "[service app]\ndepends_on = web weight=1 weight=2\n[arm custom]"),
    ("replicas = 2", "replicas = 2\nmetric = load lower-is-better mww=0.9"),
    ("replicas = 2", "replicas = 2\nmetric = load lower-is-better mw=1.5 lw=-0.5"),
    ("replicas = 2", "replicas = 2\nrt_processes =\n"
                     "    deadline runtime_us=100000 period_us=1000000 deadline=5"),
    # a reservation needs 0 < runtime_us <= deadline_us <= period_us
    ("replicas = 2", "replicas = 2\nrt_processes =\n"
                     "    deadline name=worker runtime_us=0 period_us=0"),
    ("replicas = 2", "replicas = 2\nrt_processes =\n"
                     "    deadline name=worker runtime_us=-500000 period_us=1000000"),
    ("replicas = 2", "replicas = 2\nconfig.a1 = mode=fast"),
    ("uplink.B = 1.5", "uplink.B = 1.5\nintra_zone = 0.5"),
    ("uplink.B = 1.5", "uplink.B = 1.5\nuplink.C = 3"),  # no zone.C
    ("[workload]", "[workload]\nevent = at 0 deploy web"),
    # balancer settings and the sample period are range-checked
    ("duration_s = 5", "duration_s = 5\n[loadbalancer]\nprocessing_delay_ms = -5"),
    # staleness is fixed at three refresh periods: staleness_periods is an unknown key
    ("duration_s = 5", "duration_s = 5\n[loadbalancer]\nstaleness_periods = 0"),
    ("duration_s = 5", "duration_s = 5\nsample_period_s = -1"),
])
def test_malformed_field_exits_2_with_one_line(tmp_path, capsys, field, bad):
    path = tmp_path / "bad.ini"
    path.write_text(MALFORMED_BASE.format(line="").replace(field, bad))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


BAD_VALUES = [
    ("replicas = 2", "replicas = two", "[service web]", "replicas"),
    ("uplink.B = 1.5", "uplink.B = far", "[topology]", "uplink.B"),
    # the reader builds the topology, which checks its zones, uplinks and latencies
    ("uplink.B = 1.5", "uplink.B = 1.5\nzone.C = c1", "[topology]",
     "zone C has no uplink latency"),
    ("uplink.B = 1.5", "uplink.B = 1.5\nuplink.C = 3", "[topology]", "uplink C has no zone"),
    ("zone.B = b1", "zone.B = b1 a1", "[topology]", "node a1 appears in more than one zone"),
    ("uplink.B = 1.5", "uplink.B = -1", "[topology]", "latency must be non-negative"),
    ("duration_s = 5", "duration_s = 5\n[nodes]\noverride.a1.cores = x",
     "[nodes]", "override.a1.cores"),
    ("duration_s = 5", "duration_s = 5\n[nodes]\noverride.a1 = 3", "[nodes]", "override.a1"),
    ("replicas = 2", "replicas = 2\ndepends_on = web mw=abc", "[service web] depends_on", "mw"),
    ("replicas = 2", "replicas = 2\nrt_processes =\n    fifo pid=x priority=1 cpu=0.1",
     "[service web] rt_processes", "pid"),
    ("replicas = 2", "replicas = 2\nrt_processes =\n    deadline runtime_us=0 period_us=0",
     "[service web] rt_processes", "runtime_us"),
    ("replicas = 2", "replicas = 2\nlocations = a1:x", "[service web]", "locations"),
    # a repeated location, in a deployed service and in one that is not
    ("replicas = 2", "locations = a1 b1 a1:2", "[service web]", "locations"),
    ("[arm custom]", "[service cam]\nlocations = b1 b1\n[arm custom]", "[service cam]",
     "locations"),
    # a line break `str.splitlines` knows, in a section's name, prints escaped
    ("[arm custom]", "[service we\x85b]\ncpu_request = zero\n[arm custom]",
     "[service we\\x85b]", "cpu_request"),
    ("plugins = baseline:1.0", "plugins = baseline:x", "[arm custom]", "plugins"),
    ("plugins = baseline:1.0", "plugins = baseline:inf", "[arm custom]", "plugins"),
    ("duration_s = 5", "duration_s = nan", "[scenario]", "duration_s"),
    ("duration_s = 5", "duration_s = 5\n[loadbalancer]\nrefresh_period_s = 0",
     "[loadbalancer]", "refresh_period_s"),
    ("duration_s = 5", "duration_s = 5\n[monitor]\ngrace_s = 0", "[monitor]", "grace_s"),
    ("duration_s = 5", "duration_s = 5\n[monitor]\nenabled = maybe", "[monitor]", "enabled"),
    # a deploy's `using=` takes a config's scheduler settings, never its balancer
    ("[workload]", "[config stock]\nlb_policy = uniform\n[workload]", "[config stock]",
     "unknown key 'lb_policy'"),
]


@pytest.mark.parametrize("field, bad, section, key", BAD_VALUES,
                         ids=[key for *_, key in BAD_VALUES])
def test_bad_value_names_section_and_key(tmp_path, capsys, field, bad, section, key):
    path = tmp_path / "bad.ini"
    path.write_text(MALFORMED_BASE.format(line="").replace(field, bad))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert f"{section}: {key}" in err


@pytest.mark.parametrize("section", ["[servce x]", "[loadbalancr]", "[service]", "[DEFAULT]",
                                     "[servce a\x85b]", "[servce a\u2028b]"])
def test_unknown_section_is_named(tmp_path, capsys, section):
    """A section nothing reads is an error, `[DEFAULT]` too: its keys set nothing.
    A line break in its name prints escaped, so the message stays one line."""
    path = tmp_path / "bad.ini"
    path.write_text(MALFORMED_BASE.format(line="").replace(
        "[scenario]", f"{section}\nseed = 3\n[scenario]"))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert f"unknown section {section.encode('unicode_escape').decode()}" in err


# a line the INI reader rejects, as (field, its replacement, the line named)
INI_ERRORS = {
    "no-equals": ("duration_s = 5", "duration_s = 5\nfoo", 5),
    "before-any-header": ("[scenario]", "seed = 3\n[scenario]", 2),
    "empty-key": ("duration_s = 5", "duration_s = 5\n= 5", 5),
    "repeated-key": ("duration_s = 5", "duration_s = 5\nduration_s = 6", 5),
    "repeated-section": ("[arm custom]", "[service web]\n[arm custom]", 15),
}


@pytest.mark.parametrize("case", INI_ERRORS)
def test_ini_syntax_error_names_its_line(tmp_path, capsys, case):
    field, bad, line = INI_ERRORS[case]
    path = tmp_path / "bad.ini"
    path.write_text(MALFORMED_BASE.format(line="").replace(field, bad))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"error: line {line}: ")
    assert not (tmp_path / "out").exists()


def test_config_named_like_an_arm_exits_2_with_one_line(tmp_path, capsys):
    # `using=custom` would otherwise take the config and place both pods on a1
    path = tmp_path / "bad.ini"
    path.write_text(MALFORMED_BASE.format(line="at 0 deploy web using=custom").replace(
        "[workload]", "[config custom]\nplugins = location-affinity:1.0\n[workload]"))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "arm and config names must be unique together" in err
    assert not (tmp_path / "out").exists()


# each names one zone, node, service, arm or config `x<char>y`
CSV_NAMES = {
    "zone": ("uplink.B = 1.5", "uplink.B = 1.5\nzone.x{0}y = b2\nuplink.x{0}y = 1.0"),
    "node": ("zone.A = a1 a2", "zone.A = a1 a2 x{}y"),
    "service": ("[arm custom]", "[service x{}y]\n[arm custom]"),
    "arm": ("[arm custom]", "[arm x{}y]\n[arm custom]"),
    "config": ("[workload]", "[config x{}y]\n[workload]"),
}


@pytest.mark.parametrize("char", [",", '"'])
@pytest.mark.parametrize("kind", CSV_NAMES)
def test_csv_special_name_exits_2_with_one_line(tmp_path, capsys, kind, char):
    field, bad = CSV_NAMES[kind]
    path = tmp_path / "bad.ini"
    path.write_text(MALFORMED_BASE.format(line="").replace(field, bad.format(char)))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert f"{kind} {f'x{char}y'!r}: a name must not hold" in err
    assert not (tmp_path / "out").exists()


def test_usage_error_escapes_line_breaks(capsys):
    """argparse names an unrecognized argument unquoted; its line break prints escaped."""
    with pytest.raises(SystemExit) as exit_info:
        main(["list", "a\u2028b"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "unrecognized arguments: a\\u2028b" in err


@pytest.mark.parametrize("flag", ["--reps", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_counts_below_one_exit_2_with_one_line(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "fig6-deadline", flag, value, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and flag in err
    assert not (tmp_path / "out").exists()


class TestReport:
    def test_report_after_run(self, tmp_path, capsys):
        out = tmp_path / "results"
        main(["run", "fig9-loadbalancer", "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rtt cdf comparison" in text
        assert "per-replica request counts" in text

    def test_one_rtt_written_two_ways_is_one_value(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "fig9-loadbalancer", "--profile", "ci", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        expected = capsys.readouterr().out
        path = out / "requests.csv"
        lines = path.read_text().splitlines()
        # every other row writes its RTT with a trailing zero: 1.5 becomes 1.50
        path.write_text("\n".join(line + "0" * (i % 2) for i, line in enumerate(lines)) + "\n")
        rtts = {line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]}
        assert len(rtts) == 2 * len({line.rsplit(",", 1)[1] for line in lines[1:]})
        assert main(["report", str(out)]) == 0
        assert capsys.readouterr().out == expected

    def test_empty_directory_exits_1(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("stem, edit", [
        ("requests", lambda text: text.replace(",rtt_ms", "", 1)),
        ("evictions", lambda text: "arm,rep\n"),
        ("placements", lambda text: text + "custom,0,web-9\n"),
        ("requests", lambda text: text.replace("\n", "\ncustom,0,x,P1-A,server,server-0,P1-A,"
                                               "soon\n", 1)),
        ("requests", lambda text: text.replace("\n", "\ncustom,0,x,P1-A,server,server-0,P1-A,"
                                               "inf\n", 1)),
    ], ids=["no-rtt_ms", "short-header", "short-row", "bad-number", "infinite-rtt"])
    def test_bad_csv_exits_1_with_one_line(self, tmp_path, capsys, stem, edit):
        out = tmp_path / "results"
        assert main(["run", "fig9-loadbalancer", "--profile", "ci", "--out", str(out)]) == 0
        path = out / f"{stem}.csv"
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("edits, code", [
    # latencies are bounded, so that every round trip and its statistics are finite
    ({r"^(uplink\.\w+) = .*$": r"\1 = 4e307"}, 2),
    ({r"^(uplink\.\w+) = .*$": r"\1 = 1e308"}, 2),
    ({r"^(uplink\.P4) = .*$": r"\1 = 1e300"}, 0),
    ({r"^(processing_delay_ms) = .*$": r"\1 = 1e301"}, 2),
    # metric values further apart than the float range still normalize
    ({r"(server-0) 1\.0$": r"\1 -1.7e308", r"(server-4) 10\.0$": r"\1 1.7e308"}, 0),
])
def test_values_near_the_float_range_never_exit_1(tmp_path, capsys, edits, code):
    text = _bundled_text("fig9-loadbalancer")
    for old, new in edits.items():
        text = re.sub(old, new, text, flags=re.M)
    path = tmp_path / "huge.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(path), "--profile", "ci", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert len(err.strip().splitlines()) == 1 and "at most 1e+300" in err
    else:
        assert err == "" and main(["report", str(out)]) == 0


def test_a_non_ascii_name_round_trips_under_the_c_locale(tmp_path):
    """Scenarios are read as UTF-8, so results are written and read as UTF-8 too,
    whatever the locale; `fogsim report` escapes what the locale cannot print."""
    root = Path(__file__).resolve().parent.parent
    path = tmp_path / "web.ini"
    path.write_text(_bundled_text("fig9-loadbalancer").replace("server", "wéb"),
                    encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(root / "src")}
    env.pop("PYTHONIOENCODING", None)
    out = tmp_path / "out"
    for args in (["run", str(path), "--profile", "ci", "--out", str(out)],
                 ["report", str(out)]):
        proc = subprocess.run([sys.executable, "-m", "fogsim.cli", *args], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    expected = render_comparison(load_results(out))
    assert "wéb-0" in expected
    assert proc.stdout == expected.encode("ascii", "backslashreplace")
