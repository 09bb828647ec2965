"""Dual-encoder tests: shapes, masking, pooling, determinism, freezing."""

import contextlib

import numpy as np
import pytest

from hyperlift import autograd as ag
from hyperlift.data import PAD_ID, neftune_noise
from hyperlift.encoders import DualEncoder, EncoderConfig, trunc_normal
from hyperlift.peft import PeftConfig, assemble_adapted_model
from reference import check_gradients, n_trainable, trainable_params


@pytest.fixture(scope="module")
def model():
    cfg = EncoderConfig()
    return DualEncoder(cfg, cfg, seed=0)


def random_batch(rng, model, b=3):
    cfg = model.text_cfg
    lengths = rng.integers(1, 8, size=b)
    tokens = np.zeros((b, int(lengths.max())), dtype=np.int64)
    for i, l in enumerate(lengths):
        tokens[i, :l] = rng.integers(1, cfg.vocab_size, size=l)
    images = rng.standard_normal((b, cfg.image_size, cfg.image_size))
    return tokens, lengths, images


class TestConfig:
    def test_derived_dimensions(self):
        cfg = EncoderConfig(d_model=64, mlp_ratio=4.0, patch_grid=(4, 4), image_size=16)
        assert cfg.mlp_dim == 256
        assert cfg.n_patches == 16
        assert cfg.patch_dim == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_model=10, n_heads=4)
        with pytest.raises(ValueError):
            EncoderConfig(proj_dim=1)

    def test_trunc_normal_bounds(self):
        arr = trunc_normal(np.random.default_rng(0), (1000,))
        assert np.abs(arr).max() <= 0.04 + 1e-12


class TestForward:
    def test_output_shapes(self, model):
        rng = np.random.default_rng(0)
        tokens, lengths, images = random_batch(rng, model, b=5)
        with ag.no_grad():
            t = model.encode_text(tokens, lengths)
            v = model.encode_image(images)
        assert t.shape == (5, model.text_cfg.proj_dim)
        assert v.shape == (5, model.vision_cfg.proj_dim)

    def test_only_batches_are_encoded(self):
        # One token row or one (H, W) image is not a batch of one: the
        # encoders take (B, width) tokens and (B, H, W) images only.
        cfg = EncoderConfig(n_layers=1)
        model = DualEncoder(cfg, cfg, seed=0)
        with pytest.raises(ValueError, match=r"tokens has shape \(3,\)"):
            model.encode_text(np.array([3, 5, 7]), np.array([3]))
        with pytest.raises(ValueError, match=r"got \(16, 16\)"):
            model.encode_image(np.zeros((16, 16)))
        adapted = assemble_adapted_model(model, PeftConfig(method="bias", text_layers=(0,)))
        with pytest.raises(ValueError, match=r"got \(16, 16\)"):
            adapted.embed_image(np.zeros((16, 16)))

    def test_construction_deterministic_under_seed(self):
        cfg = EncoderConfig()
        a = DualEncoder(cfg, cfg, seed=3)
        b = DualEncoder(cfg, cfg, seed=3)
        c = DualEncoder(cfg, cfg, seed=4)
        for name, t in a.store.items():
            np.testing.assert_array_equal(t.data, b.store[name].data)
        assert any(not np.array_equal(t.data, c.store[name].data)
                   for name, t in a.store.items())

    def test_padding_is_masked_out(self, model):
        # changing token ids in padded positions must not move the output
        rng = np.random.default_rng(1)
        tokens, lengths, _ = random_batch(rng, model, b=4)
        wide = np.concatenate([tokens, np.zeros((4, 5), dtype=np.int64)], axis=1)
        tampered = wide.copy()
        tampered[:, -3:] = 9  # junk ids beyond every length
        with ag.no_grad():
            a = model.encode_text(wide, lengths).data
            b = model.encode_text(tampered, lengths).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_pad_width_invariance(self, model):
        rng = np.random.default_rng(2)
        tokens, lengths, _ = random_batch(rng, model, b=4)
        wide = np.concatenate([tokens, np.zeros((4, 6), dtype=np.int64)], axis=1)
        with ag.no_grad():
            a = model.encode_text(tokens, lengths).data
            b = model.encode_text(wide, lengths).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_pooling_takes_last_real_token(self, model):
        # two rows with identical prefix but different tokens after the
        # pooled position (zero-length tail) must encode identically
        seq = [4, 8, 15]
        with ag.no_grad():
            a = model.encode_text(np.array([seq]), np.array([3])).data
            padded = np.array([seq + [16, 23]])
            b = model.encode_text(padded, np.array([3])).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_text_validation(self, model):
        with pytest.raises(ValueError, match="context"):
            model.encode_text(np.ones((1, 64), dtype=np.int64), np.array([64]))
        with pytest.raises(ValueError, match="vocabulary"):
            model.encode_text(np.array([[999]]), np.array([1]))
        with pytest.raises(ValueError, match="empty"):
            model.encode_text(np.array([[PAD_ID, PAD_ID]]), np.array([0]))

    def test_lengths_validation(self, model):
        tokens = np.array([[3, 5, 7, 0], [4, 0, 0, 0]])
        with pytest.raises(ValueError, match="exceeds the token width 4"):
            model.encode_text(tokens, np.array([3, 5]))
        with pytest.raises(ValueError, match="lengths has shape"):
            model.encode_text(tokens, np.array([3, 1, 2]))
        with pytest.raises(ValueError, match="lengths has shape"):
            model.encode_text(tokens, np.array([[3, 1]]))

    @pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "grad"])
    def test_row_bits_do_not_depend_on_batch_width(self, model, grad):
        # Rows of 1-7 tokens are encoded on their own, beside a row of 10
        # tokens and beside one of 19; the 10-token row alone and beside the
        # 19-token row. Every batch is max_len wide, so a row's bits may only
        # depend on its own tokens and length, never on the longest row.
        rng = np.random.default_rng(7)
        cfg = model.text_cfg
        lengths = [*range(1, 8), 10, 19]
        tokens = np.zeros((len(lengths), cfg.max_len), dtype=np.int64)
        for i, n in enumerate(lengths):
            tokens[i, :n] = rng.integers(1, cfg.vocab_size, size=n)
        lengths = np.array(lengths)
        with contextlib.nullcontext() if grad else ag.no_grad():
            short, mid, full = (model.encode_text(tokens[:n], lengths[:n]).data for n in (7, 8, 9))
        assert np.array_equal(mid[:7], short)
        assert np.array_equal(full[:7], short)
        assert np.array_equal(full[7], mid[7])

    def test_image_validation(self, model):
        with pytest.raises(ValueError, match="shape"):
            model.encode_image(np.zeros((2, 8, 8)))

    def test_image_patch_order_is_row_major_grid(self, model):
        # lighting up exactly one patch changes only that patch's token
        base = np.zeros((16, 16))
        lit = base.copy()
        lit[4:8, 8:12] = 1.0  # grid row 1, col 2 -> patch index 6
        cfg = model.vision_cfg
        gh, gw = cfg.patch_grid
        ph, pw = 16 // gh, 16 // gw
        pb = base.reshape(1, gh, ph, gw, pw).transpose(0, 1, 3, 2, 4).reshape(1, 16, 16)
        pl = lit.reshape(1, gh, ph, gw, pw).transpose(0, 1, 3, 2, 4).reshape(1, 16, 16)
        diff = (pb != pl).any(axis=-1)[0]
        assert diff.sum() == 1 and diff[6]

    def test_neftune_only_when_rng_given(self, model):
        tokens, lengths = np.array([[3, 5, 7]]), np.array([3])
        with ag.no_grad():
            clean = model.encode_text(tokens, lengths).data
            rng = np.random.default_rng(0)
            noisy = model.encode_text(tokens, lengths, noise=lambda x: neftune_noise(x, 0.5, rng)).data
            clean2 = model.encode_text(tokens, lengths).data
        assert not np.array_equal(clean, noisy)
        np.testing.assert_array_equal(clean, clean2)


class TestTrainingContract:
    def test_all_params_trainable_at_init(self):
        cfg = EncoderConfig()
        model = DualEncoder(cfg, cfg, seed=0)
        assert n_trainable(model.store) == sum(t.data.size for _, t in model.store.items())

    def test_frozen_params_get_no_grads(self):
        cfg = EncoderConfig(n_layers=1)
        model = DualEncoder(cfg, cfg, seed=0)
        model.store.freeze_all()
        model.store.set_trainable("text.proj", True)
        out = model.encode_text(np.array([[3, 5]]), np.array([2]))
        out.sum().backward()
        for name, t in model.store.items():
            if name == "text.proj":
                assert t.grad is not None
            else:
                assert t.grad is None, name

    def test_gradients_flow_to_every_text_parameter(self):
        cfg = EncoderConfig(n_layers=2)
        model = DualEncoder(cfg, cfg, seed=0)
        out = model.encode_text(np.array([[3, 5, 7]]), np.array([3]))
        (out * out).sum().backward()
        for name, t in model.store.items():
            if name.startswith("text."):
                assert t.grad is not None, name

    def test_encoder_gradcheck(self):
        cfg = EncoderConfig(n_layers=1, d_model=8, n_heads=2, proj_dim=4,
                            vocab_size=12, max_len=8)
        model = DualEncoder(cfg, cfg, seed=1)
        tokens = np.array([[3, 5, 7], [2, 1, 0]])
        lengths = np.array([3, 2])
        images = np.random.default_rng(0).standard_normal((2, 16, 16))

        def f():
            t = model.encode_text(tokens, lengths)
            v = model.encode_image(images)
            return (t * v).sum()

        report = check_gradients(f, trainable_params(model.store),
                                    n_probes=60, seed=5)
        assert report.passed, report.worst

    def test_logit_scale_is_positive_tensor(self, model):
        assert model.logit_scale().item() > 0

    def test_head_names(self, model):
        names = model.head_and_final_ln_names()
        assert set(names) == {
            "text.proj", "text.final_ln.gain", "text.final_ln.bias",
            "vision.proj", "vision.final_ln.gain", "vision.final_ln.bias",
        }
        assert set(names) <= set(model.store.names())
