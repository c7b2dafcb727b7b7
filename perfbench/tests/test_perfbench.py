"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, the
verdict check, and a smoke run of every workload.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import pmpcheck.pmp as pmp
from spans import Span, Tracer, installed_wrappers, self_time
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 4.0, 0),  # overlaps a: [1, 4] is covered once
        Span("a.inner", 1.5, 2.5, 1),  # a grandchild does not count twice
        Span("c", 6.0, 7.0, 0),
    ]
    assert self_time(spans, 0) == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time(spans, 1) == pytest.approx(2.0 - 1.0)
    assert self_time(spans, 4) == pytest.approx(1.0)


def test_wrappers_are_restored_when_the_traced_call_raises():
    original = pmp.adjoint_backward
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            assert pmp.adjoint_backward is not original
            assert installed_wrappers()
            1 / 0
    assert pmp.adjoint_backward is original
    assert installed_wrappers() == []


def test_nested_tracers_are_refused_and_leave_nothing_behind():
    with Tracer():
        with pytest.raises(RuntimeError, match="already traced"):
            Tracer().__enter__()
        assert installed_wrappers()
    assert installed_wrappers() == []


@pytest.fixture(scope="module")
def two_state():
    workload = WORKLOADS["two-state-sampled"]
    s = 1.0
    prob, cand = workload.build(s)
    return workload, prob, cand, s


def test_traced_certificates_repeat_and_add_up(two_state):
    workload, prob, cand, s = two_state
    first = bench.certify(workload, prob, cand, s, Tracer())
    assert installed_wrappers() == []
    second = bench.certify(workload, prob, cand, s, Tracer())
    assert first.problems == [] and second.problems == []

    assert first.tracer.counts == second.tracer.counts
    assert [s.name for s in first.tracer.spans] == [s.name for s in second.tracer.spans]
    assert len(first.warnings) == len(second.warnings) >= 1

    values = bench.layer_metrics(first.tracer)
    parts = ["pmp.verify_certificate.self_s", "pmp.conditions.s",
             *(f"{name}.s" for name in bench.LAYERS)]
    assert sum(values[k] for k in parts) == pytest.approx(values["trace.certify_s"],
                                                          rel=1e-9)
    assert all(values[k] > 0 for k in parts)
    assert values["integrate.solve_state.calls"] == 2 * prob.n + 1
    assert values["problem.eval_calls"] > 0 and values["candidate.eval_calls"] > 0


def test_a_flipped_verdict_counts_as_failed(monkeypatch, capsys):
    workload = WORKLOADS["regulator"]
    flipped = dataclasses.replace(workload, expected={
        **workload.expected, "condition.normality_representation": "fail"})
    monkeypatch.setitem(bench.WORKLOADS, "regulator", flipped)
    result = bench.run("regulator", seed=1, seconds=0.0, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
    assert ("condition.normality_representation: expected 'fail', got 'pass'"
            in capsys.readouterr().out)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert all(result["metrics"][k]["unit"] == units[k] for k in names)


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "regulator", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
