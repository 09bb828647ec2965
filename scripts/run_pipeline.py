#!/usr/bin/env python3
"""Full desk-scale experiment: generate data, pretrain the Euclidean
baseline, adapt it into hyperbolic space with and without the entailment
term, then compare VQA accuracy and hierarchy geometry.

Every stage is one `hyperlift` CLI command on the run config written to
<out>/run.json. Each adaptation writes its checkpoint, metrics and reports to
<out>/lambda_<value>/, and the comparison goes to <out>/summary.json.

Usage:
    python3 scripts/run_pipeline.py --out runs/demo [--method seq_adapter]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from hyperlift.cli import main as hyperlift
from hyperlift.encoders import EncoderConfig
from hyperlift.peft import PEFT_METHODS

GEOMETRY_SCENES = 512  # geometry statistics cover the first scenes of the corpus


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--method", default="seq_adapter", choices=PEFT_METHODS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-samples", type=int, default=10000)
    p.add_argument("--n-vqa", type=int, default=2000)
    p.add_argument("--pretrain-steps", type=int, default=1500)
    p.add_argument("--adapt-steps", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lambda-entail", type=float, default=0.1)
    return p.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    def run(*argv):
        argv = [str(a) for a in argv]
        print(f"[{time.time() - t0:7.1f}s] hyperlift {' '.join(argv)}", flush=True)
        if code := hyperlift(argv):
            sys.exit(code)

    def train(steps):
        return {"steps": steps, "batch_size": args.batch_size,
                "warmup_steps": max(1, steps // 10), "seed": args.seed}

    layers = list(range(EncoderConfig().n_layers))
    doc = {"seed": args.seed,
           "data": {"corpus_seed": args.seed, "n_samples": args.n_samples,
                    "vqa_seed": args.seed + 1, "n_vqa": args.n_vqa},
           "peft": {"method": args.method, "text_layers": layers, "vision_layers": layers},
           "pretrain": train(args.pretrain_steps), "adapt": train(args.adapt_steps)}
    # Each scene has its own seed stream, so a shorter corpus is a prefix.
    # The geometry stage trains nothing, so its batch size may exceed that prefix.
    geo_doc = {**doc, "data": {**doc["data"], "n_samples": min(GEOMETRY_SCENES, args.n_samples)},
               "pretrain": train(0), "adapt": train(0)}
    config, geo_config = out / "run.json", out / "run_geometry.json"
    config.write_text(json.dumps(doc, indent=2))
    geo_config.write_text(json.dumps(geo_doc, indent=2))

    run("gen-data", "--config", config, "--out", out)
    run("pretrain", "--config", config, "--out", out)
    results = {}
    for lam in (args.lambda_entail, 0.0):
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
