"""Smoke test of the benchmark: every workload at minimal size, all checks on.

Run from the root of the repository (about half a minute):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ia_rtdd as ia  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_minimal_size(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    record = json.loads(lines[-2])["record"]
    assert record["conditions"]["backend"] == ia.BACKEND
    assert record["operations"] == result["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("dof_search", 0, cwd=tmp_path,
                    script=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tracer_restores_every_name():
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in spans.targets(ia)]
    tracer = spans.Tracer()
    tracer.install(ia)
    assert all(getattr(owner, attr) is not orig for owner, attr, orig in originals)
    assert tracer.restore(ia) == []
    assert all(getattr(owner, attr) is orig for owner, attr, orig in originals)


def test_tracer_reports_a_name_left_wrapped():
    tracer = spans.Tracer()
    tracer.install(ia)
    stray = ia.feasibility.numeric_rank
    assert tracer.restore(ia) == []
    ia.feasibility.numeric_rank = stray
    try:
        assert spans.Tracer().restore(ia) == ["ia_rtdd.feasibility.numeric_rank"]
    finally:
        ia.feasibility.numeric_rank = stray.__wrapped__


def test_spans_nest_and_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.install(ia)
    tracer.op = 0
    try:
        ia.check_necessary(wl.EX1, ia.DofAllocation((4, 4, 4), (1, 0)))
    finally:
        tracer.op = None
        tracer.restore(ia)
    (outer, inner) = tracer.spans
    assert outer[0] == "feasibility.check_necessary" and outer[3] == -1
    assert inner[0] == "kernels.subset_scan" and inner[3] == 0
    rows = spans.layer_totals(tracer.spans)
    busy = rows["feasibility.check_necessary"]["busy"]
    assert rows["feasibility.check_necessary"]["self"] == pytest.approx(
        busy - (inner[2] - inner[1]))
    assert rows["kernels.subset_scan"]["pairs"] == 8 * 4


def test_wide_check_rejects_a_witness_that_does_not_violate():
    dof = ia.DofAllocation((2, 3, 4, 5, 6, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 6, 5, 4, 3, 2))
    report = ia.check_necessary(wl.WIDE, dof)
    assert wl.DofSearch._check_wide(dof, report) == []
    forged = [ia.feasibility.ConditionResult(c.condition_id, c.passed,
                                             {"I_alpha": [1], "I_beta": []}
                                             if c.witness else None)
              for c in report.conditions]
    bad = ia.feasibility.FeasibilityReport(report.verdict, tuple(forged))
    assert wl.DofSearch._check_wide(dof, bad) != []


def test_sweep_check_rejects_a_rate_off_the_reference():
    entries = wl.load_sweep_reference()["trials"]
    fastest = min(entries, key=lambda e: (e["iterations"], e["seed"]))
    result = wl.sweep_trial(fastest["seed"])
    assert wl.SumrateSweep._check([fastest], [result]) == []
    shifted = dict(fastest, mean_sum_rate=[1.05 * r for r in fastest["mean_sum_rate"]])
    assert len(wl.SumrateSweep._check([shifted], [result])) == len(wl.SWEEP_GRID)
    lowered = dict(fastest, mean_sum_rate=[0.95 * r for r in fastest["mean_sum_rate"]])
    assert len(wl.SumrateSweep._check([lowered], [result])) == len(wl.SWEEP_GRID)
    # A trial that stopped at max_iters fails only on a lower rate.
    assert wl.SumrateSweep._check([dict(lowered, converged=0)], [result]) == []
    assert len(wl.SumrateSweep._check([dict(shifted, converged=0)], [result])) == \
        len(wl.SWEEP_GRID)


def test_sweep_passes_do_equal_work():
    entries = wl.load_sweep_reference()["trials"]
    assert [e["seed"] for e in entries] == list(range(wl.SWEEP_POOL))
    pairs = wl.sweep_pairs(entries)
    seeds = [e["seed"] for pair in pairs for e in pair]
    assert len(pairs) >= 8 and len(seeds) == len(set(seeds))
    for a, b in pairs:
        assert abs(a["iterations"] + b["iterations"] - wl.SWEEP_PAIR_ITERATIONS) <= \
            wl.SWEEP_PAIR_TOL * wl.SWEEP_PAIR_ITERATIONS
    assert any(e["converged"] == 0 for pair in pairs for e in pair)


def test_speed_scaling_applies_per_phase():
    class TwoPhases:
        latency_kind = "check"

        @staticmethod
        def phases():
            return (wl.Phase(None, 0.5, probe="loop"), wl.Phase(None, 0.5))

    ref = run.PROBES["loop"][1]
    # (kind, ops, failed, seconds, digest, messages, phase)
    results = [("pass", 1, 0, 2.0, None, [], 0), ("check", 1, 0, 0.02, None, [], 1)]
    probes = [(0, 2 * ref), (0, 2 * ref), (0, 9 * ref)]
    values, samples = run.end_to_end(TwoPhases, results, 0.3, probes)
    assert samples["speed_scale_per_phase"] == [0.5, 1.0]
    assert values["pass_s"] == pytest.approx(1.0)
    assert samples["unscaled"]["pass_s"] == 2.0
    assert values["p50_ms"] == pytest.approx(20.0)
    assert values["ops_per_s"] == pytest.approx(0.5 * 1 / 1.0 + 0.5 * 1 / 0.02)
    assert values["setup_s"] == 0.3
