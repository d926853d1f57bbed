"""Peak memory of a large run stays bounded.

Rounds are walked in fixed blocks and aggregated from a histogram of record
codes, so a run keeps about 2 bytes per round (its record codes) besides
O(block) temporaries.  A 4,000,000-round two-way run in a fresh process
must peak below ``PEAK_MB``; materialising the run's uniforms alone would
take 320 MB.

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

import sqkdsim

PEAK_MB = 150

LAUNCHER = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "sqkdsim.cli"] + sys.argv[1:],
               check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_large_two_way_run_stays_small(tmp_path):
    scenario = (resources.files("sqkdsim") / "scenarios"
                / "classical-alice-lossy.scn")
    src = str(Path(sqkdsim.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, "run", str(scenario),
         "--rounds", "4000000", "--jobs", "2", "--out-dir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=300, check=True)
    # ru_maxrss is in kilobytes on Linux
    assert int(out.stdout) / 1024 < PEAK_MB
