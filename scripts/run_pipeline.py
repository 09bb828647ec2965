#!/usr/bin/env python3
"""Full desk-scale experiment: generate data, pretrain the Euclidean
baseline, adapt it into hyperbolic space with and without the entailment
term, then compare VQA accuracy and hierarchy geometry.

Every setting comes from the run config, which is checked first and copied to
<out>/run.json. Every stage is one `hyperlift` CLI command on that copy. The
adaptation runs once with the config's `loss.lambda_entail` and once with 0;
each writes its checkpoint, metrics and reports to <out>/lambda_<value>/,
and the comparison goes to <out>/summary.json.

Usage:
    python3 scripts/run_pipeline.py --config scripts/experiment.json --out runs/demo
"""

import argparse
import json
import sys
import time
from pathlib import Path

from hyperlift.cli import EXIT_CONFIG, main as hyperlift
from hyperlift.config import ConfigError, load_json, run_config_from_dict

GEOMETRY_SCENES = 512  # geometry statistics cover the first scenes of the corpus


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--config", required=True, help="run config (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    return p.parse_args()


def main():
    args = parse_args()
    try:
        doc = load_json(args.config)
        cfg = run_config_from_dict(doc)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    def run(*argv):
        argv = [str(a) for a in argv]
        print(f"[{time.time() - t0:7.1f}s] hyperlift {' '.join(argv)}", flush=True)
        if code := hyperlift(argv):
            sys.exit(code)

    # Each scene has its own seed stream, so a shorter corpus is a prefix.
    # The geometry stage trains nothing, so no batch size has to fit that prefix.
    geo_doc = {**doc, "data": {**doc.get("data", {}),
                               "n_samples": min(GEOMETRY_SCENES, cfg.data.n_samples)},
               "pretrain": {**doc.get("pretrain", {}), "steps": 0},
               "adapt": {**doc.get("adapt", {}), "steps": 0}}
    config, geo_config = out / "run.json", out / "run_geometry.json"
    config.write_text(json.dumps(doc, indent=2))
    geo_config.write_text(json.dumps(geo_doc, indent=2))

    run("gen-data", "--config", config, "--out", out)
    run("pretrain", "--config", config, "--out", out)
    results = {}
    for lam in sorted({cfg.loss.lambda_entail, 0.0}, reverse=True):
        tag = f"lambda_{lam:g}"
        tag_dir, ckpt = out / tag, out / tag / "adapted.npz"
        run("adapt", "--config", config, "--checkpoint", out / "euclidean.npz",
            "--out", tag_dir, "--lambda", lam)
        run("eval", "--checkpoint", ckpt, "--vqa", out / "vqa.jsonl", "--report", tag_dir / "report.json")
        run("geometry", "--config", geo_config, "--checkpoint", ckpt, "--report", tag_dir / "geometry.json")
        report, geo = (json.loads((tag_dir / f).read_text()) for f in ("report.json", "geometry.json"))
        results[tag] = {"accuracy": report["accuracy"], "containment_rate": geo["containment_rate"],
                        "radius": {k: v["mean"] for k, v in geo["radius"].items()}, "kappa": geo["kappa"]}

    (out / "summary.json").write_text(json.dumps(results, indent=2))
    print(f"wrote {out / 'summary.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
