"""Acceptance suite: end-to-end checks of geometry, gradients, parameter
budgets, freeze discipline, hierarchy emergence, zero-shot evaluation, and
determinism. Each test emits one [PASS]/[FAIL] line via the `criterion`
fixture; the heavyweight training fixtures are shared across tests.

Run order matters only for fixture reuse; every test is independent logic.
"""

import json
import time

import numpy as np
import pytest

from hyperlift import autograd as ag
from hyperlift.checkpoint import load_euclidean, save_euclidean
from hyperlift.cli import main
from hyperlift.data import Tokenizer, generate_corpus, generate_vqa
from hyperlift.encoders import DualEncoder, EncoderConfig
from hyperlift.evaluation import evaluate, form_queries, geometry_report, predict_answer
from hyperlift.manifold import exp_map_origin, geodesic_distance, lorentz_inner
from hyperlift.objectives import LossConfig, contrastive_hcc, entailment_hce, total_loss
from hyperlift.peft import (
    PeftConfig,
    assemble_adapted_model,
    count_trainable_params,
    last_k_layers,
)
from hyperlift.training import CorpusBatcher, TrainConfig, adapt, pretrain_euclidean
from reference import (CLIP_B_TEXT, CLIP_B_VISION, CLIP_S_TEXT, CLIP_S_VISION, assemble_keeping_heads,
                       check_gradients, exp_map_general, trainable_params)


# ---------------------------------------------------------------------------
# shared heavyweight fixtures


@pytest.fixture(scope="module")
def corpus10k():
    return generate_corpus(seed=0, n_samples=10_000, glyph_set_size=8)


@pytest.fixture(scope="module")
def vqa10k():
    return generate_vqa(seed=1, n_items=10_000, glyph_set_size=8)


@pytest.fixture(scope="module")
def euclidean_ckpt(tmp_path_factory, corpus10k):
    """Contrastively pretrained frozen backbone, saved as the reference
    checkpoint for the identity / freeze-preservation criteria."""
    model = DualEncoder(EncoderConfig(), EncoderConfig(), seed=0)
    cfg = TrainConfig(steps=1500, batch_size=32, warmup_steps=100, seed=0, log_every=250)
    pretrain_euclidean(corpus10k, model, cfg)
    path = tmp_path_factory.mktemp("ckpt") / "euclidean.npz"
    save_euclidean(model, path)
    return str(path)


@pytest.fixture(scope="module")
def adapted_runs(euclidean_ckpt, corpus10k):
    """Paired desk-scale adaptation runs (same seed, lambda 0.1 vs 0.0)."""
    runs = {}
    peft = PeftConfig(method="seq_adapter", text_layers=(0, 1, 2, 3),
                      vision_layers=(0, 1, 2, 3))
    # tau_init=0.04: a sharper contrastive temperature keeps the embedding
    # radii compact, letting the cone hinge shape the radial hierarchy
    for lam in (0.1, 0.0):
        model = assemble_adapted_model(load_euclidean(euclidean_ckpt), peft, seed=0,
                                       tau_init=0.04)
        cfg = TrainConfig(steps=1000, batch_size=32, warmup_steps=100, seed=0,
                          log_every=250)
        t0 = time.perf_counter()
        adapt(corpus10k, model, cfg, LossConfig(lambda_entail=lam))
        seconds = time.perf_counter() - t0
        runs[lam] = {
            "model": model,
            "seconds": seconds,
            "geometry": geometry_report(corpus10k[:1000], model),
        }
    return runs


@pytest.fixture(scope="module")
def per_item_predictions(adapted_runs, vqa10k):
    """One-at-a-time predictions from the lambda=0.1 model over the full set."""
    model = adapted_runs[0.1]["model"]
    tokenizer = Tokenizer(model.encoder.text_cfg.max_len)
    preds = []
    for item in vqa10k:
        queries = form_queries(item.question, item.candidates, tokenizer)
        preds.append(predict_answer(item.image, queries, model, tokenizer))
    return np.array(preds)


# ---------------------------------------------------------------------------
# criteria


def test_c01_manifold_invariants(criterion):
    rng = np.random.default_rng(11)
    n_total, worst = 10_000, 0.0
    kappas = np.geomspace(0.1, 10.0, 20)
    t0 = time.perf_counter()
    for kappa in kappas:
        v = rng.normal(scale=0.5, size=(n_total // len(kappas), 16))
        with ag.no_grad():
            x = exp_map_origin(v, kappa)
            resid = np.abs(lorentz_inner(x, x).data + 1.0 / kappa)
        worst = max(worst, float(resid.max()))
    seconds = time.perf_counter() - t0
    criterion("criterion 1: manifold invariants over 1e4 lifts, kappa in [0.1, 10]",
              worst < 1e-6 and seconds < 5.0,
              f"max |<x,x>_L + 1/k| = {worst:.3g}, {seconds:.2f}s")


def test_c02_exp_map_consistency_at_origin(criterion):
    rng = np.random.default_rng(12)
    worst = 0.0
    for kappa in (0.5, 1.0, 2.0):
        v = rng.normal(size=(334, 16))
        origin = np.zeros((334, 17))
        origin[:, -1] = 1.0 / np.sqrt(kappa)
        tangent = np.concatenate([v, np.zeros((334, 1))], axis=1)
        with ag.no_grad():
            simplified = exp_map_origin(v, kappa).data
            general = exp_map_general(origin, tangent, kappa).data
        worst = max(worst, float(np.abs(general - simplified).max()))
    criterion("criterion 2: general exp map at the origin matches simplified lift",
              worst < 1e-9, f"max elementwise gap = {worst:.3g} over 1002 inputs")


def test_c03_metric_properties(criterion):
    rng = np.random.default_rng(13)
    kappa = 1.0
    with ag.no_grad():
        x = exp_map_origin(rng.normal(scale=0.5, size=(1000, 16)), kappa).data
        y = exp_map_origin(rng.normal(scale=0.5, size=(1000, 16)), kappa).data
        z = exp_map_origin(rng.normal(scale=0.5, size=(1000, 16)), kappa).data
        d_xx = geodesic_distance(x, x, kappa).data
        d_xy = geodesic_distance(x, y, kappa).data
        d_yx = geodesic_distance(y, x, kappa).data
        d_yz = geodesic_distance(y, z, kappa).data
        d_xz = geodesic_distance(x, z, kappa).data
        # collinear points along one geodesic through the origin
        u = rng.normal(size=16)
        u /= np.linalg.norm(u)
        t, s = rng.uniform(-2, 2, size=1000), rng.uniform(-2, 2, size=1000)
        pt = exp_map_origin(t[:, None] * u, kappa).data
        ps = exp_map_origin(s[:, None] * u, kappa).data
        d_ts = geodesic_distance(pt, ps, kappa).data
    self_ok = np.all(d_xx == 0.0)
    sym_ok = np.array_equal(d_xy, d_yx)
    tri_gap = float((d_xz - d_xy - d_yz).max())
    add_gap = float(np.abs(d_ts - np.abs(t - s)).max())
    criterion("criterion 3: metric properties (identity, symmetry, triangle, additivity)",
              self_ok and sym_ok and tri_gap < 1e-6 and add_gap < 1e-6,
              f"d(x,x)=0 {'exact' if self_ok else 'VIOLATED'}, "
              f"symmetry {'exact' if sym_ok else 'VIOLATED'}, "
              f"triangle slack {tri_gap:.3g}, additivity gap {add_gap:.3g}")


def test_c04_gradient_fidelity(criterion):
    cfg = EncoderConfig(n_layers=2, d_model=16, n_heads=2, proj_dim=8)
    peft = PeftConfig(method="seq_adapter", text_layers=(0, 1), vision_layers=(0, 1))
    model = assemble_adapted_model(DualEncoder(cfg, cfg, seed=3), peft, seed=3)
    # nudge every trainable tensor so zero-initialized branches carry signal
    rng = np.random.default_rng(4)
    params = trainable_params(model.store)
    for t in params.values():
        t.data = np.asarray(t.data + 0.1 * rng.standard_normal(t.data.shape))

    corpus = generate_corpus(seed=5, n_samples=4, glyph_set_size=8)
    batcher = CorpusBatcher(corpus, Tokenizer(cfg.max_len), seed=0)
    batch = batcher.gather(np.arange(4))

    def embed():
        return model.embed_batch(batch)

    loss_cfg = LossConfig(lambda_entail=0.1)
    steps = (1e-4, 1e-3, 3e-3, 1e-2, 3e-2)  # per-probe best step; see check_gradients
    reports = {
        "hCC": check_gradients(
            lambda: contrastive_hcc(embed(), model.tau, model.manifold.kappa),
            params, n_probes=60, h=steps, seed=21),
        "hCE": check_gradients(
            lambda: entailment_hce(embed(), model.manifold.kappa, loss_cfg),
            params, n_probes=60, h=steps, seed=22),
        "total": check_gradients(
            lambda: total_loss(embed(), model.tau, model.manifold.kappa, loss_cfg)[0],
            params, n_probes=60, h=steps, seed=23),
    }
    worst = max(r.max_rel_err for r in reports.values())
    criterion("criterion 4: analytic gradients match finite differences (4-sample batch)",
              all(r.passed for r in reports.values()),
              "max rel err " + ", ".join(f"{k} {r.max_rel_err:.2e}" for k, r in reports.items())
              + f" (worst {worst:.2e} < 1e-4)")


def test_c05_parameter_budgets(criterion):
    t0 = time.perf_counter()
    v4, t8 = last_k_layers(12, 4), last_k_layers(12, 8)
    full = tuple(range(12))
    cells = []  # (label, count, target, tolerance)
    for method, target, tol in (("layernorm", 0.7e6, 0.10),
                                ("bias", 0.8e6, 0.15),
                                ("seq_adapter", 1.2e6, 0.15)):
        peft = PeftConfig(method=method, text_layers=t8, vision_layers=v4)
        cells.append((f"B/{method}", count_trainable_params(CLIP_B_TEXT, CLIP_B_VISION, peft),
                      target, tol))
    lora = PeftConfig(method="lora", text_layers=t8, vision_layers=v4,
                      lora_rank=128, lora_alpha=128, lora_targets=("q", "k", "v", "o"))
    cells.append(("B/lora", count_trainable_params(CLIP_B_TEXT, CLIP_B_VISION, lora),
                  8.0e6, 0.05))
    for method, target, tol in (("layernorm", 0.5e6, 0.15),
                                ("bias", 0.6e6, 0.15),
                                ("seq_adapter", 1.1e6, 0.20)):
        peft = PeftConfig(method=method, text_layers=full, vision_layers=full)
        cells.append((f"S/{method}", count_trainable_params(CLIP_S_TEXT, CLIP_S_VISION, peft),
                      target, tol))
    seconds = time.perf_counter() - t0
    failures = [label for label, count, target, tol in cells
                if abs(count - target) > tol * target]
    detail = "; ".join(f"{label} {count/1e6:.3f}M vs {target/1e6:.1f}M +/-{int(tol*100)}%"
                       for label, count, target, tol in cells)
    criterion("criterion 5: trainable-parameter budgets (7 cells, instant)",
              not failures and seconds < 1.0, detail)


def test_c06_identity_at_init(criterion, euclidean_ckpt, corpus10k):
    base = load_euclidean(euclidean_ckpt)
    batcher = CorpusBatcher(corpus10k[:16], Tokenizer(base.text_cfg.max_len), seed=0)
    batch = batcher.gather(np.arange(16))
    with ag.no_grad():
        ref_t = base.encode_text(batch["tokens"], batch["lengths"]).data.copy()
        ref_v = base.encode_image(batch["images"]).data.copy()
    ok, gaps = True, []
    for method in ("lora", "par_adapter"):
        peft = PeftConfig(method=method, text_layers=(0, 1, 2, 3), vision_layers=(0, 1, 2, 3))
        wrapped = assemble_keeping_heads(load_euclidean(euclidean_ckpt), peft, seed=0)
        with ag.no_grad():
            out_t = wrapped.encoder.encode_text(batch["tokens"], batch["lengths"]).data
            out_v = wrapped.encoder.encode_image(batch["images"]).data
        same = np.array_equal(out_t, ref_t) and np.array_equal(out_v, ref_v)
        ok = ok and same
        gaps.append(f"{method} {'bit-exact' if same else 'DIFFERS'}")
    criterion("criterion 6: LoRA / parallel-adapter identity at initialization",
              ok, ", ".join(gaps))


def test_c07_freeze_preservation(criterion, euclidean_ckpt, corpus10k):
    peft = PeftConfig(method="lora", text_layers=(2, 3), vision_layers=(2, 3))
    model = assemble_adapted_model(load_euclidean(euclidean_ckpt), peft, seed=0)
    cfg = TrainConfig(steps=2000, batch_size=4, warmup_steps=100, seed=0, log_every=500)
    adapt(corpus10k[:512], model, cfg, LossConfig(lambda_entail=0.1))
    with np.load(euclidean_ckpt) as blob:
        saved = {k: blob[k] for k in blob.files if k != "__meta__"}
    frozen = [n for n in model.store.names()
              if n not in model.store.trainable and n in saved]
    changed = [n for n in frozen if not np.array_equal(model.store[n].data, saved[n])]
    criterion("criterion 7: frozen tensors bit-identical after a 2000-step run",
              len(frozen) > 0 and not changed,
              f"{len(frozen)} frozen tensors checked, {len(changed)} changed")


def test_c08_hierarchy_emergence(criterion, adapted_runs):
    geo = adapted_runs[0.1]["geometry"]
    geo0 = adapted_runs[0.0]["geometry"]
    r_text_box = geo["radius"]["text_box"]["mean"]
    r_text = geo["radius"]["text"]["mean"]
    cont, cont0 = geo["containment_rate"], geo0["containment_rate"]
    seconds = max(run["seconds"] for run in adapted_runs.values())
    criterion("criterion 8: hierarchy emergence under the entailment loss",
              r_text_box < r_text and cont > cont0 and seconds <= 1800,
              f"radius text_box {r_text_box:.3f} < text {r_text:.3f}; "
              f"containment {cont:.3f} (lambda=0.1) > {cont0:.3f} (lambda=0); "
              f"slowest run {seconds/60:.1f} min <= 30 min")


def test_c09_zero_shot_improvement(criterion, adapted_runs, vqa10k, per_item_predictions):
    model = adapted_runs[0.1]["model"]
    report = evaluate(vqa10k, model, keep_per_item=True)
    golds = np.array([item.gold_index for item in vqa10k])
    baseline = float((np.random.default_rng(99).integers(4, size=len(vqa10k)) == golds).mean())
    batched = np.array([rec["predicted"] for rec in report.per_item])
    same = np.array_equal(batched, per_item_predictions)
    criterion("criterion 9: zero-shot VQA beats chance by >= 10 points; "
              "batched == per-item",
              abs(baseline - 0.25) <= 0.03
              and report.accuracy - baseline >= 0.10
              and same,
              f"accuracy {report.accuracy:.3f} vs random baseline {baseline:.3f} "
              f"(margin {report.accuracy - baseline:+.3f}); per-item agreement "
              f"{'exact' if same else 'VIOLATED'} on 1e4 items")


def test_c10_oracle_equivalence(criterion, adapted_runs, vqa10k, per_item_predictions):
    model = adapted_runs[0.1]["model"]
    tokenizer = Tokenizer(model.encoder.text_cfg.max_len)
    kappa = model.manifold.kappa.data
    n_items = 1000
    agree = 0
    with ag.no_grad():
        for i, item in enumerate(vqa10k[:n_items]):
            queries = form_queries(item.question, item.candidates, tokenizer)
            tokens, lengths = tokenizer.pad_batch(queries, width=tokenizer.max_len)
            img = model.embed_image(np.asarray(item.image)[None]).data[0]
            txts = model.embed_text(tokens, lengths).data
            # independent exhaustive scoring: Minkowski form + acosh by hand
            scores = []
            for cand in txts:
                inner = float(cand[:-1] @ img[:-1] - cand[-1] * img[-1])
                scores.append(np.arccosh(max(1.0, -kappa * inner)) / np.sqrt(kappa))
            agree += int(np.argmin(scores)) == per_item_predictions[i]
    criterion("criterion 10: predict_answer matches exhaustive 4-way scoring",
              agree == n_items, f"{agree}/{n_items} items agree")


def test_c11_determinism(criterion, tmp_path):
    doc = {
        "seed": 0,
        "data": {"corpus_seed": 0, "n_samples": 64, "glyph_set_size": 8,
                 "vqa_seed": 1, "n_vqa": 32},
        "peft": {"method": "seq_adapter", "text_layers": [2, 3], "vision_layers": [2, 3]},
        "pretrain": {"steps": 6, "batch_size": 8, "warmup_steps": 2, "log_every": 2},
        "adapt": {"steps": 6, "batch_size": 8, "warmup_steps": 2, "log_every": 2},
        "loss": {"lambda_entail": 0.1},
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))

    def run(out):
        out.mkdir()
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
        assert main(["pretrain", "--config", str(config), "--out", str(out)]) == 0
        assert main(["adapt", "--config", str(config), "--out", str(out),
                     "--checkpoint", str(out / "euclidean.npz")]) == 0
        assert main(["eval", "--checkpoint", str(out / "adapted.npz"),
                     "--vqa", str(out / "vqa.jsonl"),
                     "--report", str(out / "report.json"), "--per-item"]) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    run(a)
    run(b)

    def checkpoints_identical(name):
        with np.load(a / name) as one, np.load(b / name) as two:
            return (set(one.files) == set(two.files)
                    and all(np.array_equal(one[k], two[k]) for k in one.files))

    ckpt_ok = checkpoints_identical("euclidean.npz") and checkpoints_identical("adapted.npz")
    report_ok = (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    data_ok = ((a / "corpus.jsonl").read_bytes() == (b / "corpus.jsonl").read_bytes()
               and (a / "vqa.jsonl").read_bytes() == (b / "vqa.jsonl").read_bytes())
    criterion("criterion 11: seeded pretrain+adapt+eval reruns are bit-identical",
              ckpt_ok and report_ok and data_ok,
              f"checkpoints {'identical' if ckpt_ok else 'DIFFER'} "
              f"(every tensor and metadata block), reports "
              f"{'byte-identical' if report_ok else 'DIFFER'}, data files "
              f"{'byte-identical' if data_ok else 'DIFFER'}")
