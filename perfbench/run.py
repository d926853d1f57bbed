#!/usr/bin/env python3
"""sqkdsim benchmark: one workload, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload twoway-lossy --seed 1 --seconds 20 --trace 0

One op is one `sqkdsim run` through ``sqkdsim.cli.main``, from scenario
parse until the report files are written.  The workload's scenario is made
from a template under ``workloads/`` and the seed; the program receives
only that file and, for dense-attack, two matrix files made from the seed.

Every op is checked.  It fails when its exit status is not 0, which covers
a failed expectation and a configuration error, or when the SHA-256 of its
machine report differs from the reference digest.  At the default seed the
reference is pinned below, from runs with one job; at other seeds it is the
digest of the run's first op, which is not measured.  Each run makes one
unmeasured op with one job; twoway-lossy measures its ops with two, so its
ops also check that the worker count leaves the report unchanged.

Besides the measured ops, an end-to-end run makes set-up ops (fresh
processes at one round, for setup_s) and a memory op (one full-size op in a
fresh process, for peak_rss_mb).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics (see spans.py).
Each line names a metric and its unit; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from spans import LAYERS, ROOT_SPAN, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"

DEFAULT_SEED = 1
MIN_OPS = 3          # measured ops per run, however short --seconds is
SETUP_RUNS = 5       # fresh processes per run for setup_s
IMPORT_RUNS = 3      # fresh processes per traced run for cli.import_s
CHILD_TIMEOUT_S = 120
#: speed_probe() seconds at the reference host speed; timings are scaled by
#: PROBE_REF_S / (median probe seconds of the run)
PROBE_REF_S = 0.035
CHANNEL_DIM = 15     # two-mode occupations with at most 4 photons


@dataclass(frozen=True)
class Workload:
    name: str
    template: str        # scenario template under workloads/
    rounds: int
    jobs: int = 1
    round_log: str = "auto"
    probe_dim: int = 0   # > 0: a general attack over probe_dim x CHANNEL_DIM

    def size(self, tiny: bool) -> Tuple[int, int]:
        """(rounds, probe_dim) at full or self-check size."""
        if not tiny:
            return self.rounds, self.probe_dim
        return max(200, self.rounds // 1000), min(self.probe_dim, 2)


# Why each workload is here is recorded in BENCHMARK.json and README.md.
# B92 is left out: its engine is elementwise and shares round_uniforms with
# oneway-pns.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("twoway-lossy", "classical-alice-lossy.scn", 4_000_000, jobs=2),
    Workload("oneway-pns", "bb84-pns.scn", 4_000_000),
    Workload("dense-attack", "dense-attack.scn", 20_000, probe_dim=4),
    Workload("roundlog", "classical-alice-lossy.scn", 200_000,
             round_log="always"),
)}

#: SHA-256 of the machine report at DEFAULT_SEED and full size:
#: (measured op, one-round set-up op)
PINNED: Dict[str, Tuple[str, str]] = {
    "twoway-lossy": (
        "dcd08bbdda8835f2c4c5a20960d19d861d597df7a3a0cde4217c27587449c1cb",
        "a9565f18394875b5d9c5262d1454e93cb8c56b92610367dddefcd283bcbbac5d"),
    "oneway-pns": (
        "1152a5564ff709e8ccfb7df224476b0e30de9c344a312f69d502660e226b1624",
        "750b9180145883c579364e7b5c553491b38d33b5b393cde7333dee56c36674ee"),
    "dense-attack": (
        "22f2e14b69a3cf812830450bedc65323d63d327e5c9e1d100a6f4f46489286f7",
        "e4972b5663ab9d87661488e810a8a3d1f258daeb16bb9f46e02b9d2226858ec3"),
    "roundlog": (
        "826e70de67cc73b5ffd5a8fec4ca65ddd1931e30be7bc65b42d0b3272eb9c3eb",
        "126b5645e5eb3b38b795417448383f52766760bfb1ab16070558729e77661b77"),
}

END_TO_END_UNITS = {
    "rounds_per_s": "rounds/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "kernels.walk_s": "s",
    "kernels.walk_ns_per_round": "ns",
    "kernels.uniforms_s": "s",
    "kernels.uniform_bytes": "B_computed",
    "protocol.aggregate_s": "s",
    "protocol.tables_s": "s",
    "protocol.table_rows": "count",
    "attacks.validate_s": "s",
    "attacks.validate_calls": "count",
    "attacks.build_s": "s",
    "analysis.leakage_s": "s",
    "report.render_s": "s",
    "report.bytes_written": "B",
    "scenario.load_s": "s",
    "cli.import_s": "s",
    "cli.unspanned_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.gap_layers": "count",
    "host.probe_s": "s",
}

#: per-layer self-time metric of each span name
SPAN_METRIC = {name: f"{name}_s" for name in LAYERS}
SPAN_METRIC["protocol.run"] = "protocol.aggregate_s"
SPAN_METRIC[ROOT_SPAN] = "cli.unspanned_s"


# ---------------------------------------------------------------------------
# inputs


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def write_matrix(path: Path, matrix: np.ndarray) -> None:
    """Row-major re/im float pairs, the format `general` attacks read."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(" ".join(f"{float(v.real)!r} {float(v.imag)!r}"
                              for v in row) + "\n")


def write_scenario(w: Workload, seed: int, rounds: int, probe_dim: int,
                   where: Path, expectations: bool = True) -> Path:
    """Render the workload's template at ``rounds``; returns the file.

    Without ``expectations`` the ``[expectations]`` section is left out:
    its statements describe the workload's full size, not one round.
    """
    fields = {
        "name": w.name,
        "seed": seed,
        "rounds": rounds,
        # six binomial standard deviations of the 0.75 loss fraction
        "loss_tol": 6.0 * math.sqrt(0.75 * 0.25 / rounds),
        # the splitting quota, as pns_feasibility computes it for
        # transmission 0.01 and pulse sizes p1 = 0.1, p2 = 0.01
        "pns_quota": int(round(
            (0.01 * 0.1 + (1.0 - (1.0 - 0.01) ** 2) * 0.01) * rounds)),
        "probe_dim": probe_dim,
        "outbound_file": where / "outbound.mat",
        "return_file": where / "return.mat",
    }
    if probe_dim:
        rng = np.random.default_rng(seed)
        dim = probe_dim * CHANNEL_DIM
        write_matrix(fields["outbound_file"], haar_unitary(rng, dim))
        write_matrix(fields["return_file"], haar_unitary(rng, dim))
    text = (BENCH_DIR / "workloads" / w.template).read_text(encoding="utf-8")
    if not expectations:
        text = text.split("[expectations]")[0]
    path = where / f"{w.name}-{rounds}.scn"
    path.write_text(text.format(**fields), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# host speed


def speed_probe() -> float:
    """Wall seconds of fixed work: numpy sorts, an integer loop, dict inserts
    and str formatting, the kinds of work the workloads do.

    The work does not depend on sqkdsim, so only the host's speed moves it.
    On a shared host that speed drifts by 10-40 % over minutes; timing ops
    against probes taken next to them cancels most of that drift.
    """
    data = np.random.default_rng(0).random(200_000)
    start = time.perf_counter()
    for _ in range(8):
        np.sort(data)
    total = 0
    for i in range(120_000):
        total += i
    {i: i * 0.5 for i in range(40_000)}
    " ".join(str(i) for i in range(40_000))
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# ops and their checks


def file_digest(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


class Checker:
    """Counts ops; an op fails on a non-zero status or a wrong digest.

    The reference digest is the pinned one when given, else the first
    checked op's.
    """

    def __init__(self, label: str, expected: Optional[str] = None):
        self.label = label
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, status, report: Path) -> None:
        self.attempted += 1
        digest = file_digest(report)
        if self.expected is None:
            self.expected = digest
        if status != 0 or digest is None or digest != self.expected:
            self.failed += 1
            print(f"{self.label} op {self.attempted} failed: exit status "
                  f"{status}, report digest {digest}, expected "
                  f"{self.expected}", file=sys.stderr)


def run_op(main: Callable[[List[str]], int], argv: List[str]
           ) -> Tuple[object, float]:
    """One in-process `sqkdsim run`: (exit status, wall seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:  # a crashing op is a failed op, not a dead run
            traceback.print_exc()
            status = "exception"
        elapsed = time.perf_counter() - start
    return status, elapsed


def child_env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (
        os.pathsep + path if path else ""))


def child_op(argv: List[str], report: Path,
             checker: Checker) -> Tuple[float, float]:
    """`sqkdsim run` in a fresh process: (wall seconds, peak RSS in MB).

    The wall time covers interpreter start, the import of sqkdsim and the
    op.  The process is reaped with wait4, so its resource usage is its own.
    """
    report.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "sqkdsim.cli", *argv],
                            cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _pid, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    checker.check(proc.returncode, report)
    return elapsed, usage.ru_maxrss / 1024.0


def import_times(runs: int) -> List[float]:
    """Seconds a fresh process takes to import sqkdsim.cli."""
    code = ("import time; t = time.perf_counter(); import sqkdsim.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(float(done.stdout.strip()))
    return times


def run_argv(scenario: Path, out_dir: Path, jobs: int, round_log: str
             ) -> List[str]:
    return ["run", str(scenario), "--out-dir", str(out_dir),
            "--jobs", str(jobs), "--round-log", round_log]


# ---------------------------------------------------------------------------
# runs


def layer_metrics(tracer: Tracer, op: int, rounds: int, out_dir: Path
                  ) -> Tuple[Dict[str, float], bool]:
    """Per-layer values of one traced op, and whether its spans add up."""
    selfs = tracer.self_times(op)
    total = tracer.op_time(op)
    covered = sum(selfs.values())
    consistent = (abs(covered - total) <= 1e-9 + 1e-9 * total
                  and min(selfs.values()) >= -1e-9)
    values = {metric: selfs.get(span, 0.0)
              for span, metric in SPAN_METRIC.items()}
    counts = tracer.counts[op]
    values["kernels.walk_ns_per_round"] = (
        values["kernels.walk_s"] / rounds * 1e9)
    values["kernels.uniform_bytes"] = counts["kernels.uniform_bytes"]
    values["protocol.table_rows"] = counts["protocol.table_rows"]
    values["attacks.validate_calls"] = counts["attacks.validate_calls"]
    values["report.bytes_written"] = sum(
        p.stat().st_size for p in out_dir.iterdir())
    values["trace.gap_layers"] = sum(1 for name in LAYERS if name not in selfs)
    return values, consistent


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, setup_runs: int = SETUP_RUNS) -> dict:
    if not (SRC / "sqkdsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sqkdsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from sqkdsim import cli

    rounds, probe_dim = w.size(tiny)
    pinned = PINNED.get(w.name) if seed == DEFAULT_SEED and not tiny else None
    op_check = Checker("measured", pinned[0] if pinned else None)
    setup_check = Checker("set-up", pinned[1] if pinned else None)

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    try:
        out_dir = work / "out"
        report = out_dir / f"{w.name}.report.txt"
        scenario = write_scenario(w, seed, rounds, probe_dim, work)
        argv = run_argv(scenario, out_dir, w.jobs, w.round_log)

        setup: List[float] = []
        probes: List[float] = []
        peak_rss_mb = 0.0
        if not trace:
            one_round = write_scenario(w, seed, 1, probe_dim, work,
                                       expectations=False)
            setup_dir = work / "setup"
            for _ in range(setup_runs):
                probes.append(speed_probe())
                setup.append(child_op(
                    run_argv(one_round, setup_dir, w.jobs, w.round_log),
                    setup_dir / f"{w.name}.report.txt", setup_check)[0])
            # memory op: one full-size op in a process of its own, as a
            # user runs it
            peak_rss_mb = child_op(argv, report, op_check)[1]

        # reference op: fills the caches of this process; on twoway-lossy
        # it runs with one job, so every op also checks worker invariance
        status, _ = run_op(cli.main,
                           run_argv(scenario, out_dir, 1, w.round_log))
        op_check.check(status, report)

        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        times: Dict[bool, List[float]] = {False: [], True: []}
        layers = defaultdict(list)
        consistent = True
        # a traced run needs at least two traced and two untraced ops
        kinds, least = ((False, True), 2) if trace else ((False,), MIN_OPS)
        try:
            deadline = time.perf_counter() + seconds
            op = 0
            while (min(len(times[k]) for k in kinds) < least
                   or time.perf_counter() < deadline):
                traced = trace and op % 2 == 1
                main = cli.main
                if traced:
                    main = (lambda args, op=op:
                            tracer.trace_op(op, lambda: cli.main(args)))
                probes.append(speed_probe())
                report.unlink(missing_ok=True)
                status, elapsed = run_op(main, argv)
                op_check.check(status, report)
                times[traced].append(elapsed)
                if traced:
                    values, ok = layer_metrics(tracer, op, rounds, out_dir)
                    consistent &= ok
                    for name, value in values.items():
                        layers[name].append(value)
                op += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = op_check.attempted + setup_check.attempted
    failed = op_check.failed + setup_check.failed
    untraced = times[False]
    probe_s = statistics.median(probes)
    if trace:
        metrics = {name: statistics.median(v) for name, v in layers.items()}
        metrics["host.probe_s"] = probe_s
        metrics["cli.import_s"] = statistics.median(import_times(IMPORT_RUNS))
        metrics["trace.overhead_frac"] = (
            statistics.median(times[True]) / statistics.median(untraced) - 1.0)
        units = PER_LAYER_UNITS
        spans_path = WORK_ROOT / f"{w.name}.spans.json"
        spans_path.write_text(json.dumps(tracer.records()), encoding="utf-8")
        notes = [f"{len(times[True])} traced and {len(untraced)} untraced "
                 f"ops; spans in {spans_path.relative_to(ROOT)}"]
        notes += [f"trace gap: {name} not found, its time shows as its "
                  f"caller's self time" for name in tracer.gaps]
        if not consistent:
            notes.append("span self times do not add up to the op time")
    else:
        wall = {
            "rounds_per_s": rounds * len(untraced) / sum(untraced),
            "op_s_p50": statistics.median(untraced),
            "setup_s": statistics.median(setup),
        }
        scale = PROBE_REF_S / probe_s
        metrics = {
            "rounds_per_s": wall["rounds_per_s"] / scale,
            "op_s_p50": wall["op_s_p50"] * scale,
            "setup_s": wall["setup_s"] * scale,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        notes = [f"op_s_p50 is the median of {len(untraced)} ops, setup_s "
                 f"of {len(setup)} fresh processes at 1 round",
                 f"times are scaled to the reference host speed by "
                 f"{scale!r}: median probe {probe_s!r} s of {len(probes)}, "
                 f"reference {PROBE_REF_S} s",
                 "unscaled: " + ", ".join(f"{k} {v!r}"
                                          for k, v in wall.items()),
                 f"ops_failed_frac = {failed / attempted!r} ratio "
                 f"({failed} of {attempted} ops, unmeasured ops included)"]
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "notes": notes,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check size: 1/1000 of the rounds, "
                             "probe_dim 2, one set-up process")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        result = run_workload(w, args.seed, args.seconds, bool(args.trace),
                              tiny=args.tiny,
                              setup_runs=1 if args.tiny else SETUP_RUNS)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"sqkdsim benchmark: workload {w.name}, seed {args.seed}, "
          f"trace {args.trace}")
    for note in result.pop("notes"):
        print(f"  {note}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<26} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
