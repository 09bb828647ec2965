"""scripts/run_pipeline.py: every setting comes from the run config, and
scripts/experiment.json is the desk-scale experiment."""

import json
import os
import subprocess
import sys
from pathlib import Path

from hyperlift.config import load_run_config, run_config_from_dict

ROOT = Path(__file__).resolve().parents[1]

# The desk-scale experiment: 10,000 scenes, seq_adapter on every layer, batch 32.
OLD_FLAG_DEFAULTS = {
    "seed": 0,
    "data": {"corpus_seed": 0, "n_samples": 10000, "vqa_seed": 1, "n_vqa": 2000},
    "peft": {"method": "seq_adapter", "text_layers": [0, 1, 2, 3], "vision_layers": [0, 1, 2, 3]},
    "pretrain": {"steps": 1500, "batch_size": 32, "warmup_steps": 150, "seed": 0},
    "adapt": {"steps": 1000, "batch_size": 32, "warmup_steps": 100, "seed": 0},
}

TINY_DOC = {
    "seed": 0,
    "data": {"corpus_seed": 0, "n_samples": 48, "vqa_seed": 1, "n_vqa": 24},
    "peft": {"method": "lora", "text_layers": [2, 3], "vision_layers": [2, 3]},
    "pretrain": {"steps": 4, "batch_size": 4, "warmup_steps": 1, "log_every": 1},
    "adapt": {"steps": 4, "batch_size": 4, "warmup_steps": 1, "log_every": 1},
    "loss": {"lambda_entail": 0.1},
}


def run_pipeline(tmp_path, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"),
         "--config", str(config), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)


def test_experiment_config_is_the_old_flag_defaults():
    assert load_run_config(ROOT / "scripts" / "experiment.json") == run_config_from_dict(OLD_FLAG_DEFAULTS)


def test_pipeline_runs_every_stage_from_the_config(tmp_path):
    proc = run_pipeline(tmp_path, TINY_DOC)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    assert json.loads((out / "run.json").read_text()) == TINY_DOC
    assert json.loads((out / "run_geometry.json").read_text())["data"]["n_samples"] == 48
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"lambda_0.1", "lambda_0"}
    for tag, result in summary.items():
        assert 0.0 <= result["accuracy"] <= 1.0
        for name in ("adapted.npz", "adapt_metrics.jsonl", "report.json", "geometry.json"):
            assert (out / tag / name).exists(), (tag, name)
    hce = {tag: [json.loads(line)["loss_hce"]
                 for line in (out / tag / "adapt_metrics.jsonl").read_text().splitlines()]
           for tag in summary}
    assert all(v == 0.0 for v in hce["lambda_0"])
    assert any(v != 0.0 for v in hce["lambda_0.1"])


def test_rejected_config_exits_2_and_writes_nothing(tmp_path):
    proc = run_pipeline(tmp_path, {**TINY_DOC, "pretrain": {"neftune_alpha": 0.1}})
    assert proc.returncode == 2
    assert "section 'pretrain'" in proc.stderr
    assert not (tmp_path / "out").exists()
