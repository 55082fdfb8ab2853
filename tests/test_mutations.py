"""Mutation sweep over the bundled scenarios: each line dropped or
duplicated, and each number replaced by 0, -1 and a non-number.  A mutant
either parses or raises ScenarioParseError (which the CLI turns into exit 2
with one line), and a mutant that parses runs without raising."""

import re

import pytest

from fogsim.scenario_io import ScenarioParseError, parse_scenario
from fogsim.scenarios import BUNDLED, _bundled_text
from fogsim.simulator import run_scenario

from conftest import replace

NUMBER = re.compile(r"\b\d+(?:\.\d+)?\b")  # "dependency-0" has one, "P1-A" none
# fig9's parsed mutants are not run: together they would add seconds to the suite
RUN = ("fig5-dependencies", "fig6-realtime", "fig6-deadline", "fig7-monitor")


def mutants(text: str):
    """(description, mutated lines) pairs, in a fixed order."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        yield f"drop line {i + 1}", lines[:i] + lines[i + 1:]
        yield f"duplicate line {i + 1}", lines[:i + 1] + lines[i:]
        for m in NUMBER.finditer(line):
            for value in ("0", "-1", "x"):
                if value != m.group():
                    yield (f"line {i + 1}: {m.group()} -> {value}",
                           lines[:i] + [line[:m.start()] + value + line[m.end():]]
                           + lines[i + 1:])


@pytest.mark.parametrize("name", BUNDLED)
def test_each_mutant_parses_and_runs_or_is_rejected(name):
    outcomes, ran = {"parsed": 0, "rejected": 0}, set()
    for what, lines in mutants(_bundled_text(name)):
        try:
            config = parse_scenario("\n".join(lines), name_hint=name)
        except ScenarioParseError:
            outcomes["rejected"] += 1
            continue
        except Exception as exc:  # noqa: BLE001 - a traceback, not exit 2
            pytest.fail(f"{name}, {what}: parse raised {type(exc).__name__}: {exc}")
        outcomes["parsed"] += 1
        # a run depends on the config's fields alone, so equal configs run once
        key = repr(replace(config, description=""))
        if name in RUN and key not in ran:
            ran.add(key)
            try:
                run_scenario(config, repetitions=1, profile="ci")
            except Exception as exc:  # noqa: BLE001 - exit 1 on a scenario that parsed
                pytest.fail(f"{name}, {what}: run raised {type(exc).__name__}: {exc}")
    assert all(outcomes.values()), outcomes  # the sweep reaches both outcomes
