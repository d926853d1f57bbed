"""Peak memory of a large run stays bounded.

Rounds are walked in fixed blocks and aggregated from a histogram of walk
leaves.  A run keeps its leaves (1 byte per round) only when it writes a
round log, so without one it holds O(block) temporaries per thread
whatever its round count.  A 4,000,000-round two-way run in a fresh process
must peak below ``PEAK_MB``; materialising the run's uniforms alone would
take 320 MB, and its leaves 4 MB.  Four times the rounds may add no more
than ``GROWTH_MB`` to the peak.

A 4,000,000-round BB84 run under the splitting attack, whose quota walks
spans of blocks in round order until it is met, must peak below
``PEAK_MB`` too.

A run with ``--round-log always`` keeps its codes and renders its round
log a step of rounds at a time, each step written to the file before the
next is rendered; the report is never held whole.  So the log may add to
the peak no more than a small fraction, ``LOG_PEAK_RATIO``, of the size of
the file it is written to, as text or as CSV; holding the report once would
add about its size.

Linux carries a process's peak RSS across fork and exec, so a run started
straight from the test process would report at least the test process's
own peak.  The run is therefore started from a small launcher process,
which reads the run's peak as its ``RUSAGE_CHILDREN``.
"""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import sqkdsim

PEAK_MB = 56

#: bound on the peak of 16,000,000 rounds minus that of 4,000,000 rounds;
#: keeping the leaves would add 12 MB
GROWTH_MB = 4

#: bound on (logged peak - unlogged peak) / size of the round log's file;
#: a 4,000,000-round run measures about 0.05 (the leaves are 4 MB of the
#: 108 MB text report)
LOG_PEAK_RATIO = 0.25

SCENARIOS = resources.files("sqkdsim") / "scenarios"

LAUNCHER = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "sqkdsim.cli"] + sys.argv[1:],
               check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _peak_kb(out_dir: Path, *args, rounds: int = 4_000_000,
             scenario=SCENARIOS / "classical-alice-lossy.scn") -> int:
    """Peak RSS in kilobytes of a run of ``scenario`` (by default a two-way
    one) for ``rounds`` rounds at two jobs in a fresh process, with extra
    command-line arguments ``args``."""
    src = str(Path(sqkdsim.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, "run", str(scenario),
         "--rounds", str(rounds), "--jobs", "2", "--out-dir", str(out_dir),
         *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=300, check=True)
    # ru_maxrss is in kilobytes on Linux
    return int(out.stdout)


@pytest.fixture(scope="module")
def unlogged_peak_kb(tmp_path_factory):
    return _peak_kb(tmp_path_factory.mktemp("unlogged"))


def test_large_two_way_run_stays_small(unlogged_peak_kb):
    assert unlogged_peak_kb / 1024 < PEAK_MB


def test_large_bb84_pns_run_stays_small(tmp_path):
    # the splitting quota walks spans of two blocks on two threads; the
    # bundled expectations are absolute counts for 1e6 rounds, so they go
    text = (SCENARIOS / "bb84-pns.scn").read_text("utf-8")
    scenario = tmp_path / "bb84-pns.scn"
    scenario.write_text(text.split("[expectations]", 1)[0], encoding="utf-8")
    assert _peak_kb(tmp_path, scenario=scenario) / 1024 < PEAK_MB


def test_peak_does_not_grow_with_rounds(unlogged_peak_kb, tmp_path):
    peak_kb = _peak_kb(tmp_path, rounds=16_000_000)
    assert (peak_kb - unlogged_peak_kb) / 1024 < GROWTH_MB


@pytest.mark.parametrize("fmt,log_file", [("text", "report.txt"),
                                          ("csv", "rounds.csv")],
                         ids=["text", "csv"])
def test_round_log_run_streams_its_report(unlogged_peak_kb, tmp_path, fmt,
                                          log_file):
    logged_kb = _peak_kb(tmp_path, "--round-log", "always", "--format", fmt)
    size = (tmp_path / f"classical-alice-lossy.{log_file}").stat().st_size
    assert (logged_kb - unlogged_peak_kb) * 1024 < LOG_PEAK_RATIO * size
