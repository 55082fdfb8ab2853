"""A seeded mutational guard of the `fogsim run` contract.

Each scenario file, bundled or under `tests/scenarios`, is mutated a line or
two at a time: a value or token replaced by a hostile text, a line deleted
or doubled, or one separator changed.  Every mutant runs through
`cli.main(["run", ..., "--profile", "ci"])` in-process and must keep the
contract: exit 0, or exit 2 with one line on stderr and no traceback; never
exit 1, which is a runtime failure.  The caller's collector setting must come
back too.  The mutants are drawn from seeded `random.Random` streams, so the
suite's verdict is the same on every run.

Runs are kept short by capping the work, never by a timer inside `cli.main`,
where a timeout would read as a runtime failure: the base text sets one `ci`
repetition, and a mutant that would run longer than `MAX_DURATION_S` or more
than `MAX_REPETITIONS` repetitions is skipped.  The hostile texts hold no huge
finite number, because a valid but huge `duration_s`, repetition count or
request rate is only more work, not a contract break.
"""

import gc
import random
import re
from pathlib import Path

import pytest

from fogsim import simulator
from fogsim.cli import main
from fogsim.scenario_io import load_scenario, parse_scenario
from fogsim.scenarios import BUNDLED

SCENARIO_FILES = [*(Path(simulator.__file__).parent / "scenarios" / f"{name}.ini"
                    for name in BUNDLED),
                  *sorted((Path(__file__).parent / "scenarios").glob("*.ini"))]
HOSTILE = ("nan", "-inf", "1e400", "-0", "0", "-1", "", "a,b", "[", "x\x85y", "é")
SEPARATORS = (":", " ", "", "==", "\t", ",")
MUTANTS = 50  # per scenario file
MAX_DURATION_S = 1100.0  # fig9-loadbalancer's 1010 s is the longest base
MAX_REPETITIONS = 10  # a mutant without the base's `ci_repetitions` runs `repetitions`
CI_REPETITIONS = re.compile(r"^ci_repetitions *=.*\n", re.M)


def one_repetition(text: str) -> str:
    """`text` with `ci_repetitions = 1` as the first key of its [scenario] section."""
    return CI_REPETITIONS.sub("", text).replace("[scenario]\n",
                                                "[scenario]\nci_repetitions = 1\n", 1)


def mutate_line(line: str, rng: random.Random) -> str:
    """`line` with its value, one of its tokens or one separator replaced."""
    indent = line[:len(line) - len(line.lstrip())]
    body = line.strip()
    if rng.random() < 0.3:  # one separator character changed
        spots = [i for i, c in enumerate(body) if c in "= "]
        if spots:
            i = rng.choice(spots)
            return indent + body[:i] + rng.choice(SEPARATORS) + body[i + 1:]
    hostile = rng.choice(HOSTILE)
    key, eq, _ = body.partition("=")
    if eq and not indent and " " not in key.strip():  # a `key = value` line
        return f"{key}= {hostile}"
    tokens = body.split()
    j = rng.randrange(len(tokens))
    name, eq, _ = tokens[j].partition("=")
    tokens[j] = f"{name}={hostile}" if eq else hostile
    return indent + " ".join(tokens)


def mutant(text: str, rng: random.Random) -> str:
    """`text` with one or two of its non-blank lines mutated, deleted or doubled."""
    lines = text.split("\n")
    for _ in range(rng.choice((1, 2))):
        i = rng.choice([i for i, line in enumerate(lines) if line.strip()])
        op = rng.choice(("value", "value", "value", "delete", "double"))
        if op == "delete":
            del lines[i]
        elif op == "double":
            lines.insert(i, lines[i])
        else:
            lines[i] = mutate_line(lines[i], rng)
    return "\n".join(lines)


def too_long(path: Path) -> bool:
    """Whether the mutant at `path` reads as a valid scenario whose run would be
    longer than the cap allows; one that does not read runs, and must exit 2."""
    try:
        config = load_scenario(path)
    except Exception:  # noqa: BLE001 - `fogsim run` itself judges the mutant
        return False
    return config.duration_s > MAX_DURATION_S or config.ci_repetitions > MAX_REPETITIONS


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.stem)
def test_mutants_keep_the_run_contract(tmp_path, capsys, path):
    base = one_repetition(path.read_text(encoding="utf-8"))
    assert parse_scenario(base, name_hint=path.stem).ci_repetitions == 1
    broken, exits = [], {0: 0, 2: 0}
    for k in range(MUTANTS):
        text = mutant(base, random.Random(f"{path.stem}:{k}"))
        scenario = tmp_path / f"{path.stem}-{k}.ini"
        scenario.write_text(text, encoding="utf-8")
        if too_long(scenario):
            continue
        code = main(["run", str(scenario), "--profile", "ci", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        one_line = err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
        if code not in exits or code == 2 and not one_line or not gc.isenabled():
            broken.append((k, code, err))
        else:
            exits[code] += 1
    assert broken == []
    assert sum(exits.values()) >= MUTANTS // 2  # the cap skipped at most half
