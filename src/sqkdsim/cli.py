"""Command-line entry point: scenario runs, attack registry, verification.

Exit status: 0 when everything passed, 1 when an expectation or check
failed, 2 for configuration or usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterable, List, Optional

from . import __version__, verify
from .attacks import AttackDomainError
from .fock import TruncationError
from .protocol import ConfigError, run as run_any
from .report import (
    Piece,
    evaluate_expectations,
    includes_round_log,
    render_csv,
    render_machine_report,
    render_summary,
)
from .scenario import ScenarioError, describe_attack, list_attacks, load_scenario

OUT_DIR_ENV = "SQKDSIM_OUT"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqkdsim",
        description="Fock-space simulator and adversary framework for "
                    "key distribution with a classical Alice")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario (.scn) file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--rounds", type=int, default=None,
                       help="override the round count")
    run_p.add_argument("--out-dir", default=None,
                       help=f"report directory (default ${OUT_DIR_ENV} or cwd)")
    run_p.add_argument("--format", choices=("text", "csv"), default="text",
                       help="machine report format")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="threads, the calling one included, that walk "
                            "blocks of rounds, at most one per CPU the "
                            "process may use")
    run_p.add_argument("--round-log", choices=("auto", "always", "never"),
                       default="auto", help="per-round records in the report")

    atk_p = sub.add_parser("attacks", help="list or describe registered attacks")
    atk_sub = atk_p.add_subparsers(dest="attacks_command", required=True)
    atk_sub.add_parser("list", help="list attack identifiers")
    desc_p = atk_sub.add_parser("describe", help="describe one attack")
    desc_p.add_argument("name")

    ver_p = sub.add_parser("verify", help="run built-in verification suites")
    ver_p.add_argument("suite", choices=verify.SUITES)
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.add_argument("--trials", type=int, default=200,
                       help="random attacks per direction in the lemma suite")
    return parser


def _write_report(path: Path, pieces: Iterable[Piece]) -> None:
    """Write a report's pieces in order, text as UTF-8, so only the piece
    being written is held."""
    with open(path, "wb") as out:
        for piece in pieces:
            out.write(piece.encode("utf-8") if isinstance(piece, str)
                      else piece)


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # the report files are named after the scenario
        os.fsencode(scenario.name)
    except UnicodeEncodeError:
        print(f"error: scenario name {scenario.name!r} cannot name a file "
              f"in the file-system encoding {sys.getfilesystemencoding()!r}",
              file=sys.stderr)
        return EXIT_CONFIG
    if (any(sep and sep in scenario.name for sep in (os.sep, os.altsep))
            or any(c < " " or c == "\x7f" for c in scenario.name)):
        # a path would put the report files outside --out-dir, and a control
        # character, a newline or NUL among them, has no place in a file name
        print(f"error: {scenario.path}: scenario name {scenario.name!r} "
              f"must be a plain file name", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        scenario.config.rng_seed = args.seed
    if args.rounds is not None:
        scenario.config.rounds = args.rounds
    try:
        scenario.config.validate()
        attack = scenario.build_attack()
        keep_codes = includes_round_log(args.round_log,
                                        scenario.config.rounds)
        report = run_any(scenario.config, attack, jobs=args.jobs,
                         keep_codes=keep_codes)
    except (AttackDomainError, TruncationError) as exc:
        # refusals of the scenario's attack or caps, found as the run
        # builds its tables
        print(f"error: {scenario.path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # ScenarioError, ConfigError and IsometryError are ValueErrors, and
        # so is the refusal of a --jobs below 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        comparison = evaluate_expectations(report, scenario.expectations)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")
    summary = render_summary(report, scenario.name, comparison)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.format == "csv":
            for suffix, pieces in render_csv(report, scenario.name,
                                             comparison):
                _write_report(out_dir / f"{scenario.name}.{suffix}", pieces)
        else:
            _write_report(out_dir / f"{scenario.name}.report.txt",
                          render_machine_report(report, scenario.name,
                                                comparison))
        _write_report(out_dir / f"{scenario.name}.summary.txt", [summary])
    except OSError as exc:
        # an --out-dir that is a file, or under one, or cannot be written
        print(f"error: {exc.filename or out_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    print(summary, end="")

    if comparison and not all(row.passed for row in comparison):
        return EXIT_FAILED
    return EXIT_OK


def _cmd_attacks(args) -> int:
    if args.attacks_command == "list":
        for name in list_attacks():
            print(name)
        return EXIT_OK
    try:
        print(describe_attack(args.name))
        return EXIT_OK
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _cmd_verify(args) -> int:
    try:
        results = verify.run_suite(args.suite, seed=args.seed,
                                   trials=args.trials)
    except ValueError as exc:
        # the refusal of a --seed below 0 or a --trials below 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    width = max(len(f"{r.suite}:{r.name}") for r in results)
    failed = 0
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"[{mark}] {r.suite + ':' + r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_FAILED


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "attacks":
        return _cmd_attacks(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
