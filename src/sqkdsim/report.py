"""Deterministic serialization of runs: machine reports, summaries, comparisons.

Machine reports are plain structured text with a fixed float format and no
timestamps, hostnames or worker counts, so identical (scenario, seed) runs
produce byte-identical files regardless of worker count.

A report file is rendered as an ordered sequence of pieces, which are
written to the file as bytes one after another, so no report is ever held
whole: the sections before the round log are one text piece, written as
UTF-8, and the round log follows as one uint8 piece per step of rounds.

The round log is the only part written per round, and a report is a view
of its run: it has one exactly when the run kept its per-round codes
(``includes_round_log`` decides that for ``sqkdsim run``).  Each record
code's row is formatted once, as bytes, and a round's line is its index
and its code's row.  Lines are rendered in numpy, a step of rounds at a
time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from .protocol import RunReport

#: a piece of a report file: text, or the bytes of a uint8 array
Piece = Union[str, np.ndarray]

#: per-round records are embedded up to this many rounds unless forced
ROUND_LOG_LIMIT = 20_000

#: rounds per rendered piece of the round log; a piece's temporaries are a
#: few arrays of about 30 bytes per round, so a few MB in all.  Only a run
#: with a round log keeps its per-round codes.
LOG_STEP = 1 << 14


def includes_round_log(round_log: str, rounds: int) -> bool:
    """Whether a run of ``rounds`` rounds keeps its per-round codes, and so
    its report carries a round log, in ``--round-log`` mode ``round_log``."""
    return round_log == "always" or (round_log == "auto"
                                     and rounds <= ROUND_LOG_LIMIT)


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _round_log(report: RunReport, sep: str) -> Iterator[np.ndarray]:
    """The round log's lines as uint8 pieces of up to LOG_STEP rounds, each
    ending in its last line's newline.

    A piece is rendered as a byte matrix, one row per round: the index
    digits, then the row of the round's code in ``table``.  Zero bytes
    (leading zeros of the index and row padding) are dropped with one
    boolean compress, leaving the lines in order.  The run kept its
    per-round codes.
    """
    codes = report.codes
    cols = [report.code_fields[f] for f in report.record_fields]
    # marked a step at a time: indexing by all the codes at once
    # would cast them to one intp array of 8 bytes per round
    present = np.zeros(cols[0].size, dtype=bool)
    for lo in range(0, codes.size, LOG_STEP):
        present[codes[lo:lo + LOG_STEP]] = True
    rows = {code: (sep + sep.join(str(int(col[code])) for col in cols)
                   + "\n").encode("ascii")
            for code in np.flatnonzero(present).tolist()}
    # row c: sep, code c's fields and a newline, padded with zero bytes
    table = np.zeros((present.size, max(map(len, rows.values()), default=0)),
                     dtype=np.uint8)
    for code, row in rows.items():
        table[code, :len(row)] = np.frombuffer(row, dtype=np.uint8)
    for lo in range(0, report.rounds, LOG_STEP):
        hi = min(lo + LOG_STEP, report.rounds)
        width = len(str(hi - 1))
        text = np.empty((hi - lo, width + table.shape[1]), dtype=np.uint8)
        index = np.arange(lo, hi, dtype=np.uint32 if hi <= 2 ** 32
                          else np.uint64)
        for k in range(width - 1, -1, -1):
            quot = index // 10
            text[:, k] = index - quot * 10 + ord("0")
            index = quot
        # rows before 10**(width-1-k) - lo have a leading zero in column k
        for k in range(width - 1):
            text[:max(0, 10 ** (width - 1 - k) - lo), k] = 0
        text[:, width:] = table.take(codes[lo:hi], axis=0)
        yield text[text != 0]


@dataclass
class Expectation:
    """One scenario assertion: metric vs analytic value within a band.

    ``mode`` is ``abs`` (pass iff |emp - analytic| <= value) or ``sigma``
    (pass iff within three sigmas of size ``value``).
    """
    metric: str
    analytic: float
    mode: str
    value: float


@dataclass
class ComparisonRow:
    metric: str
    analytic: float
    empirical: float
    deviation_sigmas: float
    passed: bool


def evaluate_expectations(report: RunReport,
                          expectations: Sequence[Expectation]
                          ) -> List[ComparisonRow]:
    rows = []
    for exp in expectations:
        if exp.metric not in report.metrics:
            raise KeyError(f"expectation references unknown metric "
                           f"{exp.metric!r}; emitted metrics: "
                           f"{', '.join(sorted(report.metrics))}")
        emp = float(report.metrics[exp.metric])
        diff = abs(emp - exp.analytic)
        dev = diff / exp.value if exp.value > 0 else (0.0 if diff == 0 else math.inf)
        passed = dev <= 3.0 if exp.mode == "sigma" else diff <= exp.value
        rows.append(ComparisonRow(metric=exp.metric, analytic=exp.analytic,
                                  empirical=emp, deviation_sigmas=dev,
                                  passed=passed))
    return rows


def render_machine_report(report: RunReport, scenario_name: str,
                          comparison: Sequence[ComparisonRow] = ()
                          ) -> Iterator[Piece]:
    """The text report's pieces in file order, the round log last when the
    run kept its codes."""
    lines = ["# sqkdsim run report", "[run]",
             f"scenario = {scenario_name}",
             f"variant = {report.variant}",
             f"rounds = {report.rounds}",
             f"seed = {report.seed}",
             "", "[metrics]"]
    for key, value in report.metrics.items():
        lines.append(f"{key} = {fmt(value)}")
    lines.append("")
    lines.append("[categories]")
    for key, value in report.categories.items():
        lines.append(f"{key} = {value}")
    if comparison:
        lines.append("")
        lines.append("[comparison]")
        lines.append("# metric analytic empirical deviation_sigmas pass")
        for row in comparison:
            lines.append(" ".join([row.metric, fmt(row.analytic),
                                   fmt(row.empirical),
                                   fmt(row.deviation_sigmas),
                                   "1" if row.passed else "0"]))
    logged = report.codes is not None
    if logged:
        lines.append("")
        lines.append("[rounds]")
        lines.append("# index " + " ".join(report.record_fields))
    yield "\n".join(lines) + "\n"
    if logged:
        yield from _round_log(report, " ")


def render_csv(report: RunReport, scenario_name: str,
               comparison: Sequence[ComparisonRow] = ()
               ) -> Iterator[Tuple[str, Iterable[Piece]]]:
    """CSV-like row files: (suffix, the file's pieces in order) per file,
    ``rounds.csv`` last when the run kept its codes."""
    metrics = ["metric,value"]
    if "," in scenario_name or '"' in scenario_name:
        # quoted as RFC 4180 has it; a name holds no CR or LF
        scenario_name = '"' + scenario_name.replace('"', '""') + '"'
    metrics.append(f"scenario,{scenario_name}")
    metrics.append(f"variant,{report.variant}")
    metrics.append(f"rounds,{report.rounds}")
    metrics.append(f"seed,{report.seed}")
    for key, value in report.metrics.items():
        metrics.append(f"{key},{fmt(value)}")
    for key, value in report.categories.items():
        metrics.append(f"category.{key},{value}")
    yield "metrics.csv", ["\n".join(metrics) + "\n"]
    if comparison:
        rows = ["metric,analytic,empirical,deviation_sigmas,pass"]
        for row in comparison:
            rows.append(",".join([row.metric, fmt(row.analytic),
                                  fmt(row.empirical), fmt(row.deviation_sigmas),
                                  "1" if row.passed else "0"]))
        yield "comparison.csv", ["\n".join(rows) + "\n"]
    if report.codes is not None:
        header = "index," + ",".join(report.record_fields) + "\n"
        yield "rounds.csv", itertools.chain([header], _round_log(report, ","))


def render_summary(report: RunReport, scenario_name: str,
                   comparison: Sequence[ComparisonRow] = ()) -> str:
    lines = [f"scenario {scenario_name}: {report.variant}, "
             f"{report.rounds} rounds, seed {report.seed}", ""]
    width = max((len(k) for k in report.metrics), default=10)
    for key, value in report.metrics.items():
        lines.append(f"  {key:<{width}}  {fmt(value)}")
    lines.append("")
    lines.append("  outcome partition:")
    for key, value in report.categories.items():
        if value:
            lines.append(f"    {key:<18} {value}")
    if comparison:
        lines.append("")
        lines.append("  expectations:")
        for row in comparison:
            status = "pass" if row.passed else "FAIL"
            lines.append(f"    [{status}] {row.metric}: empirical {fmt(row.empirical)}"
                         f" vs analytic {fmt(row.analytic)}"
                         f" (deviation {fmt(row.deviation_sigmas)})")
    lines.append("")
    return "\n".join(lines)
