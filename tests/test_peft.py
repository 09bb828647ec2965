"""Adaptation-method tests: identity at init, trainable-set accounting,
freezing, and the analytic parameter counter against runtime enumeration."""

import numpy as np
import pytest

from hyperlift import autograd as ag
from hyperlift.encoders import DualEncoder, EncoderConfig
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
    last_k_layers,
)

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
