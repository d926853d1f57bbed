"""Self-check of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))

from sqkdsim import cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace), "--tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture
def work():
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    lines, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert any(line.split()[:1] == [name]
                   and line.endswith(" " + metric["unit"]) for line in lines)
    if not trace:
        assert any(line.startswith("  ops_failed_frac = 0.0 ratio (0 of")
                   for line in lines)


def test_corrupted_report_is_exactly_one_failed_op(capsys, monkeypatch):
    render = cli.render_machine_report
    calls = []

    def corrupt_second(*args, **kwargs):
        calls.append(1)
        text = render(*args, **kwargs)
        return text + "corrupted\n" if len(calls) == 2 else text

    monkeypatch.setattr(cli, "render_machine_report", corrupt_second)
    _lines, result = bench(capsys, "roundlog", 0)
    assert len(calls) > 2
    assert result["failed"] == 1
    assert result["correct"] is False


def traced_op(tracer, workload, work):
    w = run.WORKLOADS[workload]
    rounds, probe_dim = w.size(tiny=True)
    scenario = run.write_scenario(w, 5, rounds, probe_dim, work)
    argv = run.run_argv(scenario, work / "out", w.jobs, w.round_log)
    tracer.install()
    try:
        status, _ = run.run_op(
            lambda args: tracer.trace_op(0, lambda: cli.main(args)), argv)
    finally:
        tracer.uninstall()
    assert status == 0
    return run.layer_metrics(tracer, 0, rounds, work / "out")


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_self_times_cover_the_op(workload, work):
    tracer = spans.Tracer()
    values, consistent = traced_op(tracer, workload, work)
    assert consistent
    selfs = tracer.self_times(0)
    assert sum(selfs.values()) == pytest.approx(tracer.op_time(0), abs=1e-9)
    assert values["trace.gap_layers"] == 0
    assert all(values[f"{layer}_s"] > 0 for layer in
               ("kernels.walk", "kernels.uniforms", "protocol.tables",
                "attacks.validate", "analysis.leakage", "report.render"))


def test_unspanned_layer_shows_as_a_gap(work):
    targets = tuple(t for t in spans.TARGETS if t[2] != "kernels.walk")
    targets += (("sqkdsim.protocol", "no_such_walk", "kernels.walk"),)
    tracer = spans.Tracer(targets)
    values, consistent = traced_op(tracer, "twoway-lossy", work)
    assert tracer.gaps == ["sqkdsim.protocol.no_such_walk"]
    assert consistent
    assert values["trace.gap_layers"] == 1
    assert values["kernels.walk_s"] == 0.0
    assert values["protocol.aggregate_s"] > 0
