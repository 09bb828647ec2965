"""Tests of the benchmark itself, on tiny runs: python3 -m pytest perfbench/tests"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

TRAIN_LINES = [("setup_s", "s"), ("train_samples_per_s", "samples/s"), ("step_ms_p50", "ms"),
               ("step_ms_p90", "ms"), ("loss_final", "nats"), ("peak_rss_mb", "MB"),
               ("failed_frac", "failed/attempted")]
EVAL_LINES = [("setup_s", "s"), ("eval_items_per_s", "items/s"), ("predict_ms_p50", "ms"),
              ("predict_ms_p90", "ms"), ("vqa_accuracy", "fraction"), ("peak_rss_mb", "MB"),
              ("failed_frac", "failed/attempted")]

# Counts computed at layer boundaries that must repeat exactly for one seed.
EXACT_COUNTS = ("autograd.frozen_grad_elems", "autograd.matmul.frozen_bwd_madds",
                "autograd.grad_useful_frac", "autograd.graph_nodes",
                "encoders.distinct_row_frac", "encoders.token_fill_frac",
                "evaluation.distinct_query_frac", "evaluation.queries_encoded")


def run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def quality_line(lines):
    return next(line for line in lines if line.startswith(("loss_final", "vqa_accuracy")))


def check_metrics(result, declared):
    assert set(result) == {m["name"] for m in declared}
    for m in declared:
        value = result[m["name"]]
        assert value["unit"] == m["unit"], m["name"]
        assert isinstance(value["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_unit(workload):
    lines, result = result_of(run(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    check_metrics(result["metrics"], BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines)
    for name, unit in EVAL_LINES if workload == "eval-vqa" else TRAIN_LINES:
        assert re.search(rf"^{name}\s+\S+\s+{re.escape(unit)}\s", text, re.M), name
    assert re.search(r'^env \{.*"blas".*"git_commit".*"nproc".*"seed"', text, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_results_repeat_exactly(workload):
    first_lines, first = result_of(run(workload, trace=1))
    second_lines, second = result_of(run(workload, trace=1))
    assert first["correct"] and second["correct"]
    check_metrics(first["metrics"], BENCH["per_layer"])
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert quality_line(first_lines) == quality_line(second_lines)
    assert first["metrics"]["trace.coverage_min"]["value"] >= 0.9
    assert (ROOT / ".perfbench" / f"trace-{workload}-seed3.npz").is_file()


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark present, the command fails
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
