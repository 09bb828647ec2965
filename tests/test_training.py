"""Optimizer, schedule, batcher, and training-loop contract tests."""

import json

import numpy as np
import pytest

from hyperlift import training
from hyperlift.autograd import ParamStore, Tensor
from hyperlift.data import Tokenizer, generate_corpus
from hyperlift.encoders import DualEncoder, EncoderConfig
from hyperlift.objectives import LossConfig
from hyperlift.peft import AdaptedModel, PeftConfig, assemble_adapted_model
from hyperlift.training import (
    AdamW,
    CorpusBatcher,
    MetricsLog,
    TrainConfig,
    TrainingDiverged,
    adapt,
    lr_schedule,
    pretrain_euclidean,
)


def small_corpus(seed=0, n=64):
    return generate_corpus(seed=seed, n_samples=n, glyph_set_size=8)


def tiny_train_cfg(**kw):
    kw.setdefault("steps", 4)
    kw.setdefault("batch_size", 4)
    kw.setdefault("warmup_steps", 2)
    kw.setdefault("log_every", 1)
    kw.setdefault("seed", 0)
    return TrainConfig(**kw)


def snapshot(store):
    return {n: t.data.copy() for n, t in store.items()}


class TestSchedule:
    def test_warmup_is_linear_from_zero(self):
        cfg = TrainConfig(steps=100, warmup_steps=10, base_lr=1e-3)
        assert lr_schedule(0, cfg) == 0.0
        np.testing.assert_allclose(lr_schedule(5, cfg), 5e-4)
        np.testing.assert_allclose(lr_schedule(10, cfg), 1e-3)

    def test_cosine_decays_to_zero_at_final_step(self):
        cfg = TrainConfig(steps=100, warmup_steps=10, base_lr=1e-3)
        np.testing.assert_allclose(lr_schedule(100, cfg), 0.0, atol=1e-18)
        mid = lr_schedule(55, cfg)
        np.testing.assert_allclose(mid, 1e-3 * 0.5, rtol=1e-12)

    def test_monotone_after_warmup(self):
        cfg = TrainConfig(steps=50, warmup_steps=5)
        lrs = [lr_schedule(s, cfg) for s in range(5, 51)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range_rejected(self):
        cfg = TrainConfig(steps=10, warmup_steps=2)
        with pytest.raises(ValueError):
            lr_schedule(11, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=10, warmup_steps=10)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)


class TestAdamW:
    def test_first_step_matches_hand_computation(self):
        # single scalar, one step: update = lr * (m_hat / (sqrt(v_hat) + eps) + wd * w)
        store = ParamStore()
        store.add("w", np.array([2.0]))
        cfg = TrainConfig(steps=10, warmup_steps=1, weight_decay=0.2,
                          betas=(0.9, 0.98), grad_clip=0.0)
        opt = AdamW(store, cfg)
        store["w"].grad = np.array([0.5])
        opt.step(lr=0.1)
        g, eps = 0.5, 1e-8
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.02 * g * g) / (1 - 0.98)
        expected = 2.0 - 0.1 * (m_hat / (np.sqrt(v_hat) + eps) + 0.2 * 2.0)
        np.testing.assert_allclose(store["w"].data, [expected], rtol=1e-12)

    def test_no_decay_parameters_skip_weight_decay(self):
        store = ParamStore()
        store.add("w", np.array([2.0]))
        store.add("b", np.array([2.0]), no_decay=True)
        cfg = TrainConfig(steps=10, warmup_steps=1, weight_decay=0.5, grad_clip=0.0)
        opt = AdamW(store, cfg)
        store["w"].grad = np.array([0.5])
        store["b"].grad = np.array([0.5])
        opt.step(lr=0.1)
        # identical gradients: the difference is exactly the decay term
        np.testing.assert_allclose(store["b"].data - store["w"].data, [0.1 * 0.5 * 2.0])

    def test_missing_gradient_raises(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        opt = AdamW(store, tiny_train_cfg())
        with pytest.raises(RuntimeError, match="no gradient"):
            opt.step(lr=0.1)

    def test_clip_rescales_global_norm(self):
        store = ParamStore()
        store.add("a", np.zeros(3))
        store.add("b", np.zeros(4))
        cfg = TrainConfig(steps=10, warmup_steps=1, grad_clip=1.0)
        opt = AdamW(store, cfg)
        store["a"].grad = np.full(3, 2.0)
        store["b"].grad = np.full(4, -2.0)
        norm_before = opt.clip_gradients()
        assert norm_before > 1.0
        clipped = np.sqrt(sum((store[n].grad ** 2).sum() for n in ("a", "b")))
        np.testing.assert_allclose(clipped, 1.0, rtol=1e-12)

    def test_clip_noop_under_threshold(self):
        store = ParamStore()
        store.add("a", np.zeros(2))
        opt = AdamW(store, TrainConfig(steps=10, warmup_steps=1, grad_clip=1.0))
        store["a"].grad = np.array([0.1, 0.1])
        opt.clip_gradients()
        np.testing.assert_array_equal(store["a"].grad, [0.1, 0.1])


class TestBatcher:
    def test_gather_shapes_and_parent_map(self):
        corpus = small_corpus()
        batcher = CorpusBatcher(corpus, Tokenizer(), seed=0)
        batch = batcher.gather(np.arange(6))
        assert batch["images"].shape == (6, 16, 16)
        assert batch["tokens"].shape[0] == 6
        n_boxes = sum(len(corpus[i].boxes) for i in range(6))
        assert batch["box_images"].shape[0] == n_boxes
        assert batch["box_tokens"].shape[0] == n_boxes
        np.testing.assert_array_equal(np.unique(batch["box_parent"]), np.arange(6))
        for pos, i in enumerate(range(6)):
            assert (batch["box_parent"] == pos).sum() == len(corpus[i].boxes)

    def test_sampling_deterministic_and_without_replacement(self):
        corpus = small_corpus()
        a = CorpusBatcher(corpus, Tokenizer(), seed=3)
        b = CorpusBatcher(corpus, Tokenizer(), seed=3)
        ia, ib = a.sample_indices(16), b.sample_indices(16)
        np.testing.assert_array_equal(ia, ib)
        assert len(set(ia.tolist())) == 16


class TestMetricsLog:
    def test_mirrors_to_jsonl(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        log = MetricsLog(path)
        log.emit({"step": 0, "loss": 1.5})
        log.emit({"step": 1, "loss": 1.2})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines == log.records


class TestPretrain:
    def test_loss_decreases(self):
        corpus = small_corpus(n=128)
        cfg = EncoderConfig()
        model = DualEncoder(cfg, cfg, seed=0)
        log = pretrain_euclidean(corpus, model,
                                 tiny_train_cfg(steps=30, batch_size=8, warmup_steps=3))
        assert log.records[-1]["loss"] < log.records[0]["loss"]

    def test_deterministic_under_seed(self):
        corpus = small_corpus(n=64)
        cfg = EncoderConfig()
        out = []
        for _ in range(2):
            model = DualEncoder(cfg, cfg, seed=1)
            pretrain_euclidean(corpus, model, tiny_train_cfg(steps=5))
            out.append(snapshot(model.store))
        for name in out[0]:
            np.testing.assert_array_equal(out[0][name], out[1][name])

    def test_empty_corpus_rejected(self):
        model = DualEncoder(EncoderConfig(), EncoderConfig(), seed=0)
        with pytest.raises(ValueError):
            pretrain_euclidean([], model, tiny_train_cfg())

    def test_metrics_one_record_per_step(self):
        cfg = tiny_train_cfg(steps=4)
        model = DualEncoder(EncoderConfig(), EncoderConfig(), seed=0)
        log = pretrain_euclidean(small_corpus(n=32), model, cfg)
        assert [r["step"] for r in log.records] == list(range(cfg.steps))
        for rec in log.records:
            assert set(rec) == {"step", "loss", "lr"}
            assert rec["lr"] == lr_schedule(rec["step"] + 1, cfg)


class TestAdapt:
    def make_adapted(self, seed=0):
        cfg = EncoderConfig()
        model = DualEncoder(cfg, cfg, seed=seed)
        peft = PeftConfig(method="lora", text_layers=(2, 3), vision_layers=(2, 3))
        return assemble_adapted_model(model, peft, seed=seed)

    def test_frozen_tensors_bitwise_unchanged(self):
        corpus = small_corpus(n=64)
        model = self.make_adapted()
        frozen_before = {n: t.data.copy() for n, t in model.store.items()
                         if n not in model.store.trainable}
        adapt(corpus, model, tiny_train_cfg(steps=6, batch_size=4), LossConfig())
        for name, before in frozen_before.items():
            assert np.array_equal(model.store[name].data, before), name

    def test_trainable_tensors_moved(self):
        corpus = small_corpus(n=64)
        model = self.make_adapted()
        before = {n: model.store[n].data.copy() for n in model.store.trainable}
        adapt(corpus, model, tiny_train_cfg(steps=6, batch_size=4), LossConfig())
        assert any(not np.array_equal(model.store[n].data, before[n])
                   for n in model.store.trainable)

    def test_deterministic_under_seed(self):
        corpus = small_corpus(n=64)
        out = []
        for _ in range(2):
            model = self.make_adapted(seed=2)
            adapt(corpus, model, tiny_train_cfg(steps=5, seed=2), LossConfig())
            out.append(snapshot(model.store))
        for name in out[0]:
            np.testing.assert_array_equal(out[0][name], out[1][name])

    def test_neftune_noise_reaches_the_loss(self):
        corpus = small_corpus(n=32)
        first_losses = []
        for loss_cfg in (LossConfig(), LossConfig(neftune_alpha=0)):
            log = adapt(corpus, self.make_adapted(), tiny_train_cfg(steps=1, warmup_steps=0), loss_cfg)
            first_losses.append(log.records[0]["loss"])
        assert first_losses[0] != first_losses[1]

    def test_parameters_and_moments_stay_arrays(self, monkeypatch):
        # arithmetic on 0-d arrays (log_kappa, log_alpha_*, log_tau) returns
        # numpy scalars; every parameter must stay an array of its shape
        optimizers = []

        class RecordingAdamW(AdamW):
            def __init__(self, *args):
                super().__init__(*args)
                optimizers.append(self)

        monkeypatch.setattr(training, "AdamW", RecordingAdamW)
        model = self.make_adapted()
        shapes = {n: t.data.shape for n, t in model.store.items()}
        assert () in shapes.values()
        adapt(small_corpus(n=32), model, tiny_train_cfg(steps=2, warmup_steps=1), LossConfig())
        for name, t in model.store.items():
            assert type(t.data) is np.ndarray and t.data.shape == shapes[name], name
        (opt,) = optimizers
        assert opt.t == 2
        for moments in (opt.m, opt.v):
            for name, arr in moments.items():
                assert type(arr) is np.ndarray and arr.shape == shapes[name], name

    def test_divergence_reports_step_and_batch(self):
        corpus = small_corpus(n=32)
        model = self.make_adapted()
        # poison a trainable head so the forward pass goes non-finite
        model.store["text.proj"].data = np.full_like(model.store["text.proj"].data, np.nan)
        with pytest.raises(TrainingDiverged) as exc:
            adapt(corpus, model, tiny_train_cfg(steps=3, batch_size=4), LossConfig())
        assert exc.value.step == 0
        assert len(exc.value.batch_indices) == 4

    def test_metrics_include_manifold_scalars(self, tmp_path):
        corpus = small_corpus(n=32)
        model = self.make_adapted()
        path = tmp_path / "m.jsonl"
        adapt(corpus, model, tiny_train_cfg(steps=3, batch_size=4), LossConfig(),
              metrics_path=path)
        rec = json.loads(path.read_text().splitlines()[-1])
        for key in ("loss", "loss_hcc", "loss_hce", "kappa", "tau", "alpha_img", "alpha_txt"):
            assert key in rec

    def test_nan_gradient_raises_before_the_update(self, monkeypatch):
        corpus = small_corpus(n=32)
        model = self.make_adapted()
        cfg = tiny_train_cfg(steps=3, batch_size=4)
        before = {n: model.store[n].data.copy() for n in model.store.trainable}
        real_backward = Tensor.backward

        def backward_then_poison(loss):
            real_backward(loss)
            grad = model.store["text.proj"].grad.copy()
            grad.flat[0] = np.nan
            model.store["text.proj"].grad = grad

        monkeypatch.setattr(Tensor, "backward", backward_then_poison)
        with pytest.raises(TrainingDiverged) as exc:
            adapt(corpus, model, cfg, LossConfig())
        first_batch = CorpusBatcher(corpus, Tokenizer(), cfg.seed).sample_indices(cfg.batch_size)
        assert exc.value.step == 0
        assert exc.value.batch_indices == first_batch.tolist()
        assert np.isnan(exc.value.parts["grad_norm"])
        for name, data in before.items():
            assert np.array_equal(model.store[name].data, data), name

    def test_metrics_one_record_per_step(self):
        cfg = tiny_train_cfg(steps=4)
        model = self.make_adapted()
        log = adapt(small_corpus(n=32), model, cfg, LossConfig())
        assert [r["step"] for r in log.records] == list(range(cfg.steps))
        keys = {"step", "lr", "loss", "loss_hcc", "loss_hce", "kappa", "tau",
                "alpha_img", "alpha_txt"}
        for rec in log.records:
            assert set(rec) == keys
        assert log.records[-1]["kappa"] == model.manifold.kappa.item()


class TestVisionPrefixCache:
    """`embed_batch` runs the frozen vision prefix once per distinct image and
    keeps it in the model's memo; every loss and parameter must equal those of
    running the whole vision encoder on every step (prefix depth 0)."""

    PEFTS = [
        pytest.param(PeftConfig(method="lora", text_layers=(3,), vision_layers=(3,)), 3, id="lora-last1"),
        pytest.param(PeftConfig(method="lora", text_layers=(2, 3), vision_layers=(2, 3)), 2, id="lora-2-3"),
        pytest.param(PeftConfig(method="bias", text_layers=(3,), vision_layers=()), 4, id="bias-no-vision"),
        pytest.param(PeftConfig(method="seq_adapter", text_layers=range(4), vision_layers=range(4)), 0,
                     id="seq_adapter-all"),
    ]

    @staticmethod
    def make_adapted(peft):
        cfg = EncoderConfig()
        return assemble_adapted_model(DualEncoder(cfg, cfg, seed=1), peft, seed=1)

    @staticmethod
    def spy_prefix(monkeypatch):
        """Record the depth and row count of each `vision_prefix` call."""
        calls, vision_prefix = [], DualEncoder.vision_prefix

        def spy(self, images, depth):
            calls.append((depth, len(images)))
            return vision_prefix(self, images, depth)

        monkeypatch.setattr(DualEncoder, "vision_prefix", spy)
        return calls

    def run(self, peft, monkeypatch):
        """Adapt for a few steps; returns the model, its metrics records, the
        bytes of every image the batches held, and the depth and row count of
        each `vision_prefix` call."""
        model = self.make_adapted(peft)
        seen = set()
        embed_batch = AdaptedModel.embed_batch

        def spy_embed(self, batch, **kwargs):
            seen.update(image.tobytes() for key in ("images", "box_images") for image in batch[key])
            return embed_batch(self, batch, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(AdaptedModel, "embed_batch", spy_embed)
            prefix_calls = self.spy_prefix(m)
            log = adapt(small_corpus(n=16), model, tiny_train_cfg(steps=5, seed=1), LossConfig())
        return model, log.records, seen, prefix_calls

    @pytest.mark.parametrize("peft, depth", PEFTS)
    def test_bit_identical_to_the_full_forward(self, peft, depth, monkeypatch):
        model, records, seen, prefix_calls = self.run(peft, monkeypatch)
        assert model.vision_prefix_depth() == depth
        with monkeypatch.context() as m:
            m.setattr(AdaptedModel, "vision_prefix_depth", lambda self: 0)
            ref_model, ref_records, _, _ = self.run(peft, monkeypatch)
        assert records == ref_records
        for name, t in ref_model.store.items():
            assert np.array_equal(model.store[name].data, t.data), name
        assert "vision" not in ref_model._memo
        if depth:
            # One memo for the run, one (n_patches, d_model) row per distinct image.
            arrays, rows = model._memo["vision"]
            assert rows.keys() == seen
            assert all(state.shape == (16, 64) for state in rows.values())
            # Each image went through the prefix once, on the step that first drew it.
            assert {d for d, _ in prefix_calls} == {depth}
            assert sum(n for _, n in prefix_calls) == len(seen)
            # It depends on the patch embedding and every prefix block, not on block `depth`.
            held = {id(a) for a in arrays}
            assert id(model.store["vision.patch_emb"].data) in held
            assert id(model.store[f"vision.block{depth - 1}.mlp.fc2_w"].data) in held
            if depth < 4:
                assert id(model.store[f"vision.block{depth}.mlp.fc2_w"].data) not in held
        else:
            assert "vision" not in model._memo

    def test_wrong_size_image_raises_before_any_lookup(self):
        model = self.make_adapted(PeftConfig(method="lora", text_layers=(3,), vision_layers=(3,)))
        batch = CorpusBatcher(small_corpus(n=8), Tokenizer(), seed=0).gather(np.arange(4))
        model.embed_batch(batch)
        rows = dict(model._memo["vision"][1])
        assert rows
        # Same bytes in another shape: every row would match a memo key.
        bad = dict(batch, images=batch["images"].reshape(4, 8, 32),
                   box_images=batch["box_images"].reshape(-1, 8, 32))
        with pytest.raises(ValueError, match="shape"):
            model.embed_batch(bad)
        assert model._memo["vision"][1] == rows

    def test_replacing_a_prefix_block_recomputes(self, monkeypatch):
        model = self.make_adapted(PeftConfig(method="lora", text_layers=(3,), vision_layers=(3,)))
        batch = CorpusBatcher(small_corpus(n=8), Tokenizer(), seed=0).gather(np.arange(4))
        first = model.embed_batch(batch)
        weight = model.store["vision.block1.mlp.fc1_w"]
        weight.data = weight.data * 1.5
        with monkeypatch.context() as m:
            calls = self.spy_prefix(m)
            emb = model.embed_batch(batch)
            m.setattr(AdaptedModel, "vision_prefix_depth", lambda self: 0)
            ref = model.embed_batch(batch)
        n_distinct = len({image.tobytes() for key in ("images", "box_images") for image in batch[key]})
        assert calls == [(3, n_distinct), (0, n_distinct)]
        assert not np.array_equal(emb.image.data, first.image.data)
        for name in ("image", "image_box"):
            assert np.array_equal(getattr(emb, name).data, getattr(ref, name).data), name
