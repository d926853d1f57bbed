"""The round log rendered from byte rows equals one f-string per round, and
a report carries it exactly when its run kept its codes."""

import dataclasses
import functools
from importlib import resources

import numpy as np
import pytest

from oracles import round_log_reference
from sqkdsim.protocol import RunReport, run
from sqkdsim.report import (
    ROUND_LOG_LIMIT,
    _round_log,
    render_csv,
    render_machine_report,
)
from sqkdsim.scenario import load_scenario

SCENARIOS = resources.files("sqkdsim") / "scenarios"

#: one scenario per protocol
PROTOCOL_SCENARIOS = ("classical-alice-lossy", "bb84-pns", "b92-usd-c05")

#: around the block edge and the step from five- to six-digit indices
ROUNDS = (1, 10, 11, 65535, 65536, 65537, 100001)


@functools.lru_cache(maxsize=None)
def _scenario_report(name: str) -> RunReport:
    scenario = load_scenario(str(SCENARIOS / f"{name}.scn"))
    scenario.config.rounds = max(ROUNDS)
    return run(scenario.config, scenario.build_attack(), keep_codes=True)


def _log(report: RunReport, sep: str) -> str:
    """The round log's pieces joined, without its last newline."""
    pieces = list(_round_log(report, sep))
    # every piece ends on a line's newline, so the pieces need no joiner
    assert all(piece[-1] == ord("\n") for piece in pieces)
    return b"".join(pieces).decode("ascii")[:-1]


@pytest.mark.parametrize("sep", [" ", ","])
@pytest.mark.parametrize("rounds", ROUNDS)
@pytest.mark.parametrize("name", PROTOCOL_SCENARIOS)
def test_round_log_matches_reference(name, rounds, sep):
    full = _scenario_report(name)
    report = dataclasses.replace(full, rounds=rounds,
                                 codes=full.codes[:rounds])
    assert _log(report, sep) == round_log_reference(report, sep)


def test_report_without_codes_raises():
    report = dataclasses.replace(_scenario_report("classical-alice-lossy"),
                                 codes=None)
    with pytest.raises(ValueError, match="kept no per-round codes"):
        report.records


def _files(report: RunReport) -> dict:
    """Every report file of ``report``, text and CSV, as bytes by name."""
    files = dict(render_csv(report, "s"))
    files["report.txt"] = render_machine_report(report, "s")
    return {name: b"".join(p.encode("utf-8") if isinstance(p, str)
                           else p.tobytes() for p in pieces)
            for name, pieces in files.items()}


def test_kept_codes_are_logged_above_the_limit():
    """A run that keeps its codes renders its round log in both formats,
    whatever its round count."""
    report = _scenario_report("classical-alice-lossy")
    assert report.rounds > ROUND_LOG_LIMIT
    files = _files(report)
    assert set(files) == {"metrics.csv", "rounds.csv", "report.txt"}
    header = "index," + ",".join(report.record_fields) + "\n"
    assert files["rounds.csv"].decode("ascii") == (
        header + round_log_reference(report, ",") + "\n")
    text = files["report.txt"].decode("utf-8")
    _, log = text.split("\n[rounds]\n# index " + " ".join(
        report.record_fields) + "\n")
    assert log == round_log_reference(report, " ") + "\n"


def test_report_without_codes_has_no_round_log():
    """A run that kept no codes renders no round log, even within the
    limit; its files are the logged run's files without it."""
    full = _scenario_report("b92-usd-c05")
    report = dataclasses.replace(full, rounds=ROUND_LOG_LIMIT,
                                 codes=full.codes[:ROUND_LOG_LIMIT])
    logged = _files(report)
    files = _files(dataclasses.replace(report, codes=None))
    assert set(files) == {"metrics.csv", "report.txt"}
    assert files["metrics.csv"] == logged["metrics.csv"]
    assert b"[rounds]" not in files["report.txt"]
    assert logged["report.txt"].startswith(files["report.txt"] + b"\n[rounds]\n")


@pytest.mark.parametrize("sep", [" ", ","])
def test_round_log_of_random_codes_matches_reference(sep):
    """Index widths 1-7, fields of -1, and a ragged last step, over 256
    leaves with random two-way record fields."""
    rng = np.random.default_rng(5)
    names = ("emit", "action", "readout", "basis", "pattern", "test",
             "guess", "evebit")
    fields = {name: rng.integers(-1, 10, 256) for name in names}
    rounds = 1_000_003
    codes = rng.integers(0, 256, rounds).astype(np.uint8)
    report = RunReport(variant="synthetic", rounds=rounds, seed=0,
                       metrics={}, categories={}, codes=codes,
                       code_fields=fields)
    assert _log(report, sep) == round_log_reference(report, sep)
