"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("solve-ladder", "study-grid", "simulate-sweep")
SEEDS = (20200207, 5)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, RUN, "--size", "tiny", "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_the_gate(workload, seed):
    proc, result = bench("--workload", workload, "--seed", str(seed), "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    import spans

    runs = [bench("--workload", workload, "--seed", "5", "--trace", "1") for _ in range(2)]
    for proc, result in runs:
        assert proc.returncode == 0, proc.stderr
        assert result["correct"], proc.stdout  # includes: no negative self time
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    first, second = (r["metrics"] for _, r in runs)
    for name in spans.DETERMINISTIC_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_stored_references_match_the_independent_computation(tmp_path):
    import reference
    import workloads

    sys.path.insert(0, os.path.join(ROOT, "src"))
    seed = workloads.DEFAULT_SEED
    for name, make_plan in workloads.WORKLOADS.items():
        plan = make_plan(str(tmp_path), seed, "full")
        stored, source = reference.load_or_compute(name, plan, str(tmp_path), seed)
        assert source == "stored", name
        assert stored == json.loads(json.dumps(reference.compute(name, plan, str(tmp_path)))), name


def test_solve_gate_scores_the_output_strategy(tmp_path):
    """A tied game can have several optimal strategies with different
    attacker values; the gate takes the program's own, and catches a
    reported value that its strategy does not give."""
    import contextlib
    import io

    import reference
    import workloads

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from honeyflow import cli

    plan = workloads.plan_solve_ladder(str(tmp_path), 3, "tiny")
    op, spec = plan.ops[-1], plan.inputs["specs"][-1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(op.argv)) == 0
    ref = reference.solve_reference(spec)
    assert reference.check_solve(out.getvalue(), ref, spec["types"]) is None
    wrong = json.loads(out.getvalue())
    wrong["attacker_value"] += 1e-6
    assert "attacker value" in reference.check_solve(json.dumps(wrong), ref, spec["types"])
