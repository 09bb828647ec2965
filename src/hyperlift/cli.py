"""Command-line pipeline: gen-data, pretrain, adapt, eval, geometry,
count-params. Exit codes: 0 success, 2 configuration error, 3 runtime
failure. Every command is deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import checkpoint as ckpt
from .config import build_section, load_json, load_run_config
from .data import generate_corpus, generate_vqa, load_vqa, save_jsonl
from .encoders import DualEncoder, EncoderConfig
from .evaluation import evaluate, geometry_report
from .peft import PEFT_METHODS, ConfigError, PeftConfig, assemble_adapted_model, count_trainable_params
from .training import TrainingDiverged, adapt as run_adapt, pretrain_euclidean

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _corpus_from(cfg):
    return generate_corpus(cfg.data.corpus_seed, cfg.data.n_samples, cfg.data.glyph_set_size)


def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_jsonl(_corpus_from(cfg), out / "corpus.jsonl")
    save_jsonl(generate_vqa(cfg.data.vqa_seed, cfg.data.n_vqa, cfg.data.glyph_set_size),
               out / "vqa.jsonl")
    print(f"wrote corpus.jsonl and vqa.jsonl to {out}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config, {(None, "seed"): args.seed, ("pretrain", "seed"): args.seed,
                                        ("pretrain", "steps"): args.steps})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = DualEncoder(cfg.text_encoder, cfg.vision_encoder, seed=cfg.seed)
    corpus = _corpus_from(cfg)
    if cfg.pretrain.steps > 0:
        pretrain_euclidean(corpus, model, cfg.pretrain,
                           metrics_path=out / "pretrain_metrics.jsonl")
    path = out / "euclidean.npz"
    ckpt.save_euclidean(model, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    cfg = load_run_config(args.config, {(None, "seed"): args.seed, ("adapt", "seed"): args.seed,
                                        ("adapt", "steps"): args.steps,
                                        ("peft", "method"): args.method,
                                        ("loss", "lambda_entail"): args.lambda_entail})
    encoder = ckpt.load_euclidean(args.checkpoint)
    model = assemble_adapted_model(encoder, cfg.peft, seed=cfg.seed,
                                   init_kappa=cfg.init_kappa, tau_init=cfg.loss.tau_init)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = _corpus_from(cfg)
    if cfg.adapt.steps > 0:
        run_adapt(corpus, model, cfg.adapt, cfg.loss,
                  metrics_path=out / "adapt_metrics.jsonl")
    path = out / "adapted.npz"
    ckpt.save_adapted(model, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = ckpt.load_adapted(args.checkpoint)
    vqa_set = load_vqa(args.vqa)
    report = evaluate(vqa_set, model, keep_per_item=args.per_item)
    Path(args.report).write_text(report.to_json())
    print(f"accuracy {report.accuracy:.4f} over {report.n_items} items -> {args.report}")
    return EXIT_OK


def cmd_geometry(args) -> int:
    cfg = load_run_config(args.config)
    model = ckpt.load_adapted(args.checkpoint)
    corpus = _corpus_from(cfg)
    report = geometry_report(corpus, model, loss=cfg.loss)
    Path(args.report).write_text(json.dumps(report, indent=2))
    print(f"wrote geometry report -> {args.report}")
    return EXIT_OK


def cmd_count_params(args) -> int:
    arch = load_json(args.arch)
    if not isinstance(arch, dict):
        raise ConfigError(f"{args.arch} must hold an object with 'text' and 'vision' sections")
    text_cfg = build_section(EncoderConfig, arch.get("text"), "text")
    vision_cfg = build_section(EncoderConfig, arch.get("vision"), "vision")
    peft = build_section(PeftConfig, load_json(args.peft), "peft")
    n = count_trainable_params(text_cfg, vision_cfg, peft)
    print(f"{n} trainable parameters ({n / 1e6:.3f} M)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlift",
        description="Adapt a frozen Euclidean dual encoder into Lorentz hyperbolic "
                    "space and evaluate zero-shot multiple-choice VQA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write corpus.jsonl and vqa.jsonl")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain", help="train the Euclidean baseline encoder")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("adapt", help="hyperbolic adaptation of a frozen checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=PEFT_METHODS)
    p.add_argument("--lambda", dest="lambda_entail", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("eval", help="zero-shot multiple-choice VQA evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vqa", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--per-item", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("geometry", help="radial statistics and cone containment")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_geometry)

    p = sub.add_parser("count-params", help="analytic trainable-parameter count")
    p.add_argument("--arch", required=True)
    p.add_argument("--peft", required=True)
    p.set_defaults(fn=cmd_count_params)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"error: {exc} (batch indices {exc.batch_indices})", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
