"""Command-line entry point: run scenarios, list the bundled catalog, and
report on result directories."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import report, scenarios
from .scenario_io import ScenarioParseError
from .simulator import run_scenario

# each character `str.splitlines` breaks at, escaped, so that an error is one line
_ONE_LINE = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _error(message) -> str:
    return f"error: {str(message).translate(_ONE_LINE)}\n"


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with a one-line message, like a bad scenario."""

    def error(self, message):
        self.exit(2, f"{self.prog}: {_error(message)}")


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fogsim",
        description="Edge-cluster orchestration simulator and experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a bundled scenario or a scenario file")
    run_p.add_argument("scenario", help="bundled scenario name or path to an .ini file")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--reps", type=_at_least_one, default=None,
                       help="override repetitions")
    run_p.add_argument("--out", default="results", help="output directory")
    run_p.add_argument("--profile", choices=("paper", "ci"), default="paper")
    run_p.add_argument("--jobs", type=_at_least_one, default=1,
                       help="parallel repetitions (default 1)")

    sub.add_parser("list", help="list the bundled scenarios")

    report_p = sub.add_parser("report", help="recompute comparison tables from CSVs")
    report_p.add_argument("directory", help="directory holding the result CSVs")
    return parser


def cmd_run(args) -> int:
    try:
        config = scenarios.resolve(args.scenario)
    except (ScenarioParseError, FileNotFoundError, KeyError) as exc:
        sys.stderr.write(_error(exc))
        return 2
    try:
        results = run_scenario(config, seed=args.seed, repetitions=args.reps,
                               profile=args.profile, jobs=args.jobs)
        written = report.write_results(results, args.out)
    except Exception as exc:  # noqa: BLE001 - report any runtime failure as exit 1
        sys.stderr.write(_error(exc))
        return 1
    for path in written:
        print(path)
    return 0


def cmd_list() -> int:
    for name, description in scenarios.list_scenarios():
        print(f"{name:20s} {description}")
    return 0


def cmd_report(args) -> int:
    try:
        text = report.render_comparison(report.load_results(Path(args.directory)))
    except (OSError, ValueError) as exc:  # a missing file, bad header, row or value
        sys.stderr.write(_error(exc))
        return 1
    # a name the locale cannot encode prints escaped, as stderr does, not as a crash
    sys.stdout.reconfigure(errors="backslashreplace")
    print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "list":
        return cmd_list()
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
