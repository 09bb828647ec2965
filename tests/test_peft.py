"""Adaptation-method tests: identity at init, trainable-set accounting,
freezing, and the analytic parameter counter against runtime enumeration."""

import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlift import autograd as ag
from hyperlift.data import Tokenizer, generate_corpus, generate_vqa
from hyperlift.encoders import DualEncoder, EncoderConfig
from hyperlift.objectives import BatchEmbeddings, LossConfig, total_loss
from hyperlift.peft import (
    CLIP_B_TEXT,
    CLIP_B_VISION,
    CLIP_S_TEXT,
    CLIP_S_VISION,
    ConfigError,
    N_SCALARS,
    PEFT_METHODS,
    PeftConfig,
    assemble_adapted_model,
    count_trainable_params,
    distinct_rows,
    last_k_layers,
)
from hyperlift.training import CorpusBatcher

ALL_LAYERS = (0, 1, 2, 3)


def toy_model(seed=0):
    cfg = EncoderConfig()
    return DualEncoder(cfg, cfg, seed=seed)


def peft_for(method, **kw):
    kw.setdefault("vision_layers", ALL_LAYERS)
    kw.setdefault("text_layers", ALL_LAYERS)
    return PeftConfig(method=method, **kw)


def sample_inputs(rng=None):
    rng = rng or np.random.default_rng(0)
    tokens = np.array([[3, 5, 7, 2], [9, 4, 0, 0]])
    lengths = np.array([4, 2])
    images = rng.standard_normal((2, 16, 16))
    return tokens, lengths, images


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            PeftConfig(method="prefix")

    def test_bad_lora_targets_rejected(self):
        with pytest.raises(ConfigError):
            PeftConfig(method="lora", lora_targets=("q", "z"))
        with pytest.raises(ConfigError):
            PeftConfig(method="lora", lora_targets=())

    def test_layer_bounds_checked_against_architecture(self):
        cfg = EncoderConfig()
        with pytest.raises(ConfigError):
            PeftConfig(method="bias", text_layers=(7,)).validate_for(cfg, cfg)

    def test_lora_scale_rank_stabilized(self):
        assert PeftConfig(method="lora", lora_rank=16, lora_alpha=16,
                          rank_stabilized=True).lora_scale == 16 / 4.0
        assert PeftConfig(method="lora", lora_rank=16, lora_alpha=16,
                          rank_stabilized=False).lora_scale == 1.0

    def test_roundtrip_dict(self):
        cfg = peft_for("lora", lora_rank=4, lora_targets=("q", "k", "v"))
        again = PeftConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_last_k_layers(self):
        assert last_k_layers(12, 4) == (8, 9, 10, 11)
        assert last_k_layers(3, 8) == (0, 1, 2)


class TestIdentityAtInit:
    @pytest.mark.parametrize("method", PEFT_METHODS)
    def test_wrapped_model_reproduces_frozen_outputs_bitexactly(self, method):
        tokens, lengths, images = sample_inputs()
        base = toy_model()
        with ag.no_grad():
            ref_t = base.encode_text(tokens, lengths).data.copy()
            ref_v = base.encode_image(images).data.copy()
        wrapped = assemble_adapted_model(toy_model(), peft_for(method), seed=0,
                                         reinit_heads=False)
        with ag.no_grad():
            out_t = wrapped.encoder.encode_text(tokens, lengths).data
            out_v = wrapped.encoder.encode_image(images).data
        assert np.array_equal(out_t, ref_t)
        assert np.array_equal(out_v, ref_v)

    def test_lora_delta_is_exactly_zero_at_init(self):
        model = assemble_adapted_model(toy_model(), peft_for("lora"), seed=0)
        base = model.store["text.block0.attn.wq"]
        eff = model.encoder.adaptation.effective_weight("text", 0, "wq", base)
        assert np.array_equal(eff.data, base.data)

    def test_adapter_delta_is_exactly_zero_at_init(self):
        model = assemble_adapted_model(toy_model(), peft_for("par_adapter"), seed=0)
        x = ag.Tensor(np.random.default_rng(1).standard_normal((2, 3, 64)))
        y = ag.Tensor(np.random.default_rng(2).standard_normal((2, 3, 64)))
        out = model.encoder.adaptation.apply_sublayer("text", 0, "attn", x, y)
        assert np.array_equal(out.data, y.data)


class TestTrainableSet:
    @pytest.mark.parametrize("method, kw", [
        *(pytest.param(m, {}, id=m) for m in PEFT_METHODS),
        # rectangular fc1 (d, mlp) and fc2 (mlp, d) LoRA factors
        pytest.param("lora", {"lora_targets": ("q", "k", "v", "o", "fc1", "fc2")},
                     id="lora-all-targets"),
    ])
    def test_analytic_count_matches_runtime(self, method, kw):
        model = assemble_adapted_model(toy_model(), peft_for(method, **kw), seed=0)
        cfg = EncoderConfig()
        analytic = count_trainable_params(cfg, cfg, peft_for(method, **kw))
        assert model.store.n_trainable() == analytic

    def test_partial_layer_selection(self):
        peft = PeftConfig(method="seq_adapter", text_layers=(2, 3), vision_layers=(3,))
        model = assemble_adapted_model(toy_model(), peft, seed=0)
        cfg = EncoderConfig()
        assert model.store.n_trainable() == count_trainable_params(cfg, cfg, peft)

    def test_no_layers_gives_heads_and_scalars_only(self):
        peft = PeftConfig(method="bias", text_layers=(), vision_layers=())
        cfg = EncoderConfig()
        expected = N_SCALARS + 2 * (cfg.d_model * cfg.proj_dim + 2 * cfg.d_model)
        assert count_trainable_params(cfg, cfg, peft) == expected

    def test_bias_tuning_per_block_is_11d_at_mlp_ratio_4(self):
        cfg = EncoderConfig()
        none = PeftConfig(method="bias", text_layers=(), vision_layers=())
        one = PeftConfig(method="bias", text_layers=(0,), vision_layers=())
        delta = count_trainable_params(cfg, cfg, one) - count_trainable_params(cfg, cfg, none)
        assert delta == 11 * cfg.d_model

    def test_frozen_backbone_receives_no_gradients(self):
        model = assemble_adapted_model(toy_model(), peft_for("lora"), seed=0)
        tokens, lengths, images = sample_inputs()
        out = (model.embed_text(tokens, lengths) * model.embed_image(images)).sum()
        out.backward()
        store = model.store
        trainable = set(store.trainable)
        for name, t in store.items():
            if name not in trainable:
                assert t.grad is None, name

    def test_manifold_scalars_and_tau_are_trainable(self):
        model = assemble_adapted_model(toy_model(), peft_for("layernorm"), seed=0)
        for name in ("manifold.log_kappa", "manifold.log_alpha_img",
                     "manifold.log_alpha_txt", "loss.log_tau"):
            assert name in model.store.trainable
            assert name in model.store.no_decay

    def test_tau_floor(self):
        model = assemble_adapted_model(toy_model(), peft_for("bias"), seed=0)
        model.log_tau.data = np.array(-20.0)
        assert model.tau.item() == model.tau_min

    def test_assembler_is_deterministic(self):
        a = assemble_adapted_model(toy_model(), peft_for("seq_adapter"), seed=5)
        b = assemble_adapted_model(toy_model(), peft_for("seq_adapter"), seed=5)
        for name, t in a.store.items():
            np.testing.assert_array_equal(t.data, b.store[name].data)


class TestBudgets:
    """Full-size symbolic architectures, never instantiated."""

    def test_clip_b_budget_ordering(self):
        v4, t8 = last_k_layers(12, 4), last_k_layers(12, 8)
        counts = {}
        for method in ("layernorm", "bias", "seq_adapter"):
            peft = PeftConfig(method=method, vision_layers=v4, text_layers=t8)
            counts[method] = count_trainable_params(CLIP_B_TEXT, CLIP_B_VISION, peft)
        lora = PeftConfig(method="lora", vision_layers=v4, text_layers=t8,
                          lora_rank=128, lora_alpha=128, lora_targets=("q", "k", "v", "o"))
        counts["lora"] = count_trainable_params(CLIP_B_TEXT, CLIP_B_VISION, lora)
        assert counts["layernorm"] < counts["bias"] < counts["seq_adapter"] < counts["lora"]

    def test_adapter_and_parallel_adapter_budgets_match(self):
        v4, t8 = last_k_layers(12, 4), last_k_layers(12, 8)
        seq = PeftConfig(method="seq_adapter", vision_layers=v4, text_layers=t8)
        par = PeftConfig(method="par_adapter", vision_layers=v4, text_layers=t8)
        assert (count_trainable_params(CLIP_B_TEXT, CLIP_B_VISION, seq)
                == count_trainable_params(CLIP_B_TEXT, CLIP_B_VISION, par))

    def test_clip_s_vision_is_smaller_than_clip_b(self):
        layers = tuple(range(12))
        peft = PeftConfig(method="bias", vision_layers=layers, text_layers=layers)
        s = count_trainable_params(CLIP_S_TEXT, CLIP_S_VISION, peft)
        b = count_trainable_params(CLIP_B_TEXT, CLIP_B_VISION, peft)
        assert s < b


class TestEmbedBatch:
    """`embed_batch` encodes each distinct image once; the result must match
    encoding the scene and box images in separate calls."""

    METHODS = [
        pytest.param(peft_for("seq_adapter"), id="seq_adapter-all"),
        pytest.param(peft_for("lora", vision_layers=(3,), text_layers=(3,)), id="lora-last1"),
    ]

    @staticmethod
    def model_and_batch(peft, distinct=False):
        model = assemble_adapted_model(toy_model(), peft, seed=0)
        rng = np.random.default_rng(4)
        for _, t in model.store.trainable_items():  # move off the zero-delta init
            t.data = t.data + 0.05 * rng.standard_normal(t.data.shape)
        batcher = CorpusBatcher(generate_corpus(seed=3, n_samples=24), Tokenizer(), seed=0)
        batch = batcher.gather(np.arange(8))
        if distinct:
            batch["box_images"] = batch["box_images"] + 1e-3 * rng.random(batch["box_images"].shape)
        return model, batch

    @staticmethod
    def per_row(model, batch) -> BatchEmbeddings:
        """The reference: scene and box images through separate encodes."""
        return BatchEmbeddings(
            image=model.embed_image(batch["images"]),
            text=model.embed_text(batch["tokens"], batch["lengths"]),
            image_box=model.embed_image(batch["box_images"]),
            text_box=model.embed_text(batch["box_tokens"], batch["box_lengths"]),
            box_parent=batch["box_parent"],
        )

    @staticmethod
    def loss_and_grads(model, emb):
        model.store.zero_grads()
        loss, _ = total_loss(emb, model.tau, model.manifold.kappa, LossConfig())
        loss.backward()
        return loss.item(), {n: t.grad for n, t in model.store.trainable_items()}

    def test_distinct_rows(self):
        rows = np.array([[1, 2], [3, 4], [1, 2], [5, 6], [3, 4]])
        firsts, inverse = distinct_rows(rows)
        assert firsts.tolist() == [0, 1, 3]
        assert inverse.tolist() == [0, 1, 0, 2, 1]
        np.testing.assert_array_equal(rows[firsts][inverse], rows)

    def test_boxes_repeat_and_are_encoded_once(self):
        model, batch = self.model_and_batch(peft_for("bias"))
        n_rows = len(batch["images"]) + len(batch["box_images"])
        encoded = []
        encode = model.encoder.encode_image
        model.encoder.encode_image = lambda images: encoded.append(len(images)) or encode(images)
        model.embed_batch(batch)
        distinct = len(distinct_rows(np.concatenate([batch["images"], batch["box_images"]]))[0])
        assert encoded == [distinct] and distinct < n_rows

    @pytest.mark.parametrize("peft", METHODS)
    def test_forward_equals_separate_encodes(self, peft):
        model, batch = self.model_and_batch(peft)
        emb = model.embed_batch(batch)
        assert np.array_equal(emb.image.data, model.embed_image(batch["images"]).data)
        assert np.array_equal(emb.image_box.data, model.embed_image(batch["box_images"]).data)

    @pytest.mark.parametrize("distinct", [False, True], ids=["repeated-boxes", "all-distinct"])
    @pytest.mark.parametrize("peft", METHODS)
    def test_gradients_match_separate_encodes(self, peft, distinct):
        model, batch = self.model_and_batch(peft, distinct)
        ref_loss, ref = self.loss_and_grads(model, self.per_row(model, batch))
        loss, grads = self.loss_and_grads(model, model.embed_batch(batch))
        assert loss == ref_loss  # the forward is bit-identical
        assert grads.keys() == ref.keys()
        for name, g in grads.items():
            # Duplicate rows are summed in another order, and so are the
            # weight-gradient GEMMs over the joined batch. An entry that
            # cancels to far below its array's scale keeps only an absolute
            # agreement, at 1e-12 of that scale.
            atol = 1e-12 * np.abs(ref[name]).max()
            np.testing.assert_allclose(g, ref[name], rtol=1e-10, atol=atol, err_msg=name)

    @pytest.mark.parametrize("peft", METHODS)
    def test_all_distinct_batch_is_bit_identical_forward(self, peft):
        model, batch = self.model_and_batch(peft, distinct=True)
        images = np.concatenate([batch["images"], batch["box_images"]])
        firsts, inverse = distinct_rows(images)
        np.testing.assert_array_equal(firsts, np.arange(len(images)))
        np.testing.assert_array_equal(inverse, np.arange(len(images)))
        emb, ref = model.embed_batch(batch), self.per_row(model, batch)
        for name in ("image", "text", "image_box", "text_box"):
            assert np.array_equal(getattr(emb, name).data, getattr(ref, name).data), name


def test_wrapped_encoder_is_freed_without_the_cycle_collector():
    # The adaptation hook holds the store, not the encoder that holds the hook,
    # so reference counting alone frees a wrapped encoder and its memo.
    encoder = toy_model()
    model = assemble_adapted_model(encoder, peft_for("lora", vision_layers=(3,), text_layers=(3,)), seed=0)
    batch = CorpusBatcher(generate_corpus(seed=3, n_samples=8), Tokenizer(), seed=0).gather(np.arange(4))
    model.embed_batch(batch)
    assert model._memo
    freed = weakref.ref(encoder)
    gc.disable()
    try:
        del encoder, model
        assert freed() is None
    finally:
        gc.enable()


# A pool of rows for the batch-independence property: VQA images, and token
# rows of every length up to the context, padded with PAD (0).
ROW_POOL = 96
MAX_BATCH = 64


@functools.cache
def model_with_signal(method):
    """Every method on every layer, with each trainable tensor moved off its
    initial value, so LoRA's zero B and the adapters' zero up-projection do
    not make the adapted path an exact identity."""
    model = assemble_adapted_model(toy_model(seed=4), peft_for(method), seed=4)
    rng = np.random.default_rng(4)
    for name, t in model.store.trainable_items():
        if t.data.ndim:
            t.data = t.data + 0.05 * rng.standard_normal(t.data.shape)
    return model


@functools.cache
def row_pool():
    cfg = EncoderConfig()
    rng = np.random.default_rng(11)
    images = np.stack([it.image for it in generate_vqa(seed=11, n_items=ROW_POOL)])
    lengths = rng.integers(1, cfg.max_len + 1, size=ROW_POOL)
    tokens = rng.integers(1, cfg.vocab_size, size=(ROW_POOL, cfg.max_len))
    tokens[np.arange(cfg.max_len) >= lengths[:, None]] = 0
    return images, tokens, lengths


@functools.cache
def lone_image(method, i):
    images = row_pool()[0]
    with ag.no_grad():
        return model_with_signal(method).embed_image(images[i]).data[0]


@functools.cache
def lone_text(method, row: bytes, length: int):
    tokens = np.frombuffer(row, dtype=np.int64)[None, :]
    with ag.no_grad():
        return model_with_signal(method).embed_text(tokens, np.array([length])).data[0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PEFT_METHODS), st.integers(1, MAX_BATCH), st.integers(0, ROW_POOL - MAX_BATCH),
       st.sampled_from(range(8, EncoderConfig().max_len + 1, 8)))
def test_each_row_encodes_as_on_its_own(method, n, offset, width):
    # The memo stores each row as computed in whatever batch first met it,
    # and criterion 9 compares batched and one-at-a-time scores; both rest
    # on a row's bits not depending on its batch. Rows are cut to `width`
    # columns (lengths capped there), so the trim to a multiple of 8 varies.
    images, tokens, lengths = row_pool()
    rows = slice(offset, offset + n)
    lengths = np.minimum(lengths[rows], width)
    tokens = np.where(np.arange(width) < lengths[:, None], tokens[rows, :width], 0)
    model = model_with_signal(method)
    with ag.no_grad():
        img = model.embed_image(images[rows]).data
        txt = model.embed_text(tokens, lengths).data
    for k in range(n):
        assert np.array_equal(img[k], lone_image(method, offset + k)), ("image", k)
        assert np.array_equal(txt[k], lone_text(method, tokens[k].tobytes(), int(lengths[k]))), ("text", k)
