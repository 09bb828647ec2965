"""Reverse-mode engine tests: every op is checked against central finite
differences, fused ops against composite references, and the bookkeeping
rules (broadcasting, freezing, no_grad) against hand constructions.
"""

import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

import hyperlift
from hyperlift import autograd as ag
from hyperlift.autograd import ParamStore, Tensor, check_gradients
from hyperlift.data import generate_corpus
from hyperlift.encoders import DualEncoder, EncoderConfig
from hyperlift.objectives import LossConfig
from hyperlift.peft import PeftConfig, assemble_adapted_model
from hyperlift.training import TrainConfig, adapt


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f().item()
        flat[i] = orig - h
        fm = f().item()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def assert_grad_matches(build, x, rtol=1e-5, atol=1e-8):
    x.grad = None
    out = build()
    out.backward()
    num = numeric_grad(build, x)
    np.testing.assert_allclose(x.grad, num, rtol=rtol, atol=atol)


class TestElementwiseOps:
    @pytest.mark.parametrize("fn", [ag.exp, ag.sqrt, ag.cosh, ag.relu, ag.gelu])
    def test_pointwise_gradients(self, fn):
        rng = np.random.default_rng(0)
        x = leaf(rng.uniform(0.3, 2.0, size=(3, 4)))
        assert_grad_matches(lambda: fn(x).sum(), x)

    def test_acosh_gradient_away_from_one(self):
        x = leaf(np.array([1.5, 2.0, 5.0]))
        assert_grad_matches(lambda: ag.acosh(x).sum(), x)

    def test_acosh_snaps_to_exact_zero(self):
        # round-off arguments a hair above 1 must give distance exactly 0
        x = Tensor(np.array([1.0 + 1e-13, 1.0]))
        assert np.array_equal(ag.acosh(x).data, np.zeros(2))

    def test_acosh_gradient_is_floored_at_domain_edge(self):
        x = leaf(np.array([1.0]))
        out = ag.acosh(x).sum()
        out.backward()
        expected = 1.0 / np.sqrt(ag.ACOSH_GRAD_FLOOR ** 2 - 1.0)
        assert np.isfinite(x.grad).all()
        np.testing.assert_allclose(x.grad, expected)

    def test_arcsin_arccos_gradients(self):
        x = leaf(np.array([-0.7, 0.0, 0.6]))
        assert_grad_matches(lambda: ag.arcsin(x).sum(), x)
        assert_grad_matches(lambda: ag.arccos(x).sum(), x)

    def test_arcsin_clips_and_stays_finite_at_edges(self):
        x = leaf(np.array([1.0, -1.0, 1.0 + 1e-12]))
        out = ag.arcsin(x)
        np.testing.assert_allclose(out.data, [np.pi / 2, -np.pi / 2, np.pi / 2])
        out.sum().backward()
        assert np.isfinite(x.grad).all()

    def test_sinhc_matches_reference_and_limit(self):
        x = Tensor(np.array([1e-9, 1e-5, 0.5, 3.0]))
        out = ag.sinhc(x).data
        ref = np.sinh(np.float64(0.5)) / 0.5
        np.testing.assert_allclose(out[2], ref, rtol=1e-15)
        np.testing.assert_allclose(out[0], 1.0, atol=1e-15)

    def test_sinhc_gradient_including_taylor_branch(self):
        x = leaf(np.array([5e-5, 1e-3, 0.7, 2.0]))
        assert_grad_matches(lambda: ag.sinhc(x).sum(), x, rtol=1e-4, atol=1e-7)

    def test_gelu_matches_erf_closed_form(self):
        x = np.linspace(-3, 3, 41)
        out = ag.gelu(Tensor(x)).data
        ref = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(out, ref, rtol=1e-14)

    def test_gelu_in_place_temporaries_keep_the_closed_form_bits(self):
        # The closed forms as plain expressions, each step a fresh array.
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 16, 256)) * 3.0
        x[0, 0, :8] = [0.0, -0.0, 8.5, -8.5, 12.0, -12.0, 40.0, -40.0]
        x[1, ::2] = 0.0
        inv_sqrt2, inv_sqrt2pi = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * (1.0 + erf(x * inv_sqrt2))
        g = rng.standard_normal(x.shape)
        ref_out = x * cdf
        ref_grad = g * (cdf + x * inv_sqrt2pi * np.exp(-0.5 * x * x))

        a = leaf(x.copy())
        out = ag.gelu(a)
        upstream = g.copy()
        out._backward(upstream)
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(a.grad, ref_grad)
        # No operand is written: the input and the upstream gradient stay put.
        assert np.array_equal(a.data, x)
        assert np.array_equal(upstream, g)


class TestClamp:
    def test_clamp_values(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]))
        np.testing.assert_allclose(ag.clamp(x, lo=0.0, hi=1.0).data, [0.0, 0.5, 1.0])

    def test_clamp_subgradient_zero_outside_and_at_boundary(self):
        x = leaf(np.array([-2.0, 0.0, 0.5, 1.0, 3.0]))
        ag.clamp(x, lo=0.0, hi=1.0).sum().backward()
        # strict interior only: boundary points take the flat-side subgradient
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0, 0.0, 0.0])

    def test_relu_subgradient_zero_at_kink(self):
        x = leaf(np.array([-1.0, 0.0, 2.0]))
        ag.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])


class TestBroadcastingAndShape:
    def test_add_unbroadcasts_to_both_parents(self):
        a = leaf(np.ones((2, 3)))
        b = leaf(np.ones(3))
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.full(3, 2.0))

    def test_mul_with_scalar_tensor(self):
        a = leaf(np.arange(6, dtype=np.float64).reshape(2, 3))
        s = leaf(np.array(2.0))
        (a * s).sum().backward()
        np.testing.assert_allclose(s.grad, a.data.sum())
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))

    def test_div_gradients(self):
        a = leaf(np.array([2.0, 3.0]))
        b = leaf(np.array([4.0, 5.0]))
        assert_grad_matches(lambda: (a / b).sum(), a)
        assert_grad_matches(lambda: (a / b).sum(), b)

    def test_reshape_transpose_roundtrip_gradient(self):
        a = leaf(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
        w = Tensor(np.random.default_rng(1).standard_normal((2, 3, 4)))

        def build():
            r = a.transpose((2, 0, 1)).reshape(24)
            return (r * r).sum()

        assert_grad_matches(build, a)
        assert_grad_matches(lambda: (a * w).sum(), a)

    def test_getitem_scatter_accumulates_repeats(self):
        a = leaf(np.arange(4, dtype=np.float64))
        idx = np.array([1, 1, 3])
        a[idx].sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 2.0, 0.0, 1.0])

    def test_concat_and_stack_gradients(self):
        a = leaf(np.ones((2, 2)))
        b = leaf(np.ones((2, 3)))
        ag.concat([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))
        a.grad = b2 = None
        c = leaf(np.ones(3))
        d = leaf(np.full(3, 2.0))
        (ag.stack([c, d], axis=0) * Tensor(np.array([[1.0], [3.0]]))).sum().backward()
        np.testing.assert_allclose(c.grad, np.ones(3))
        np.testing.assert_allclose(d.grad, np.full(3, 3.0))

    def test_sum_mean_axes(self):
        a = leaf(np.arange(12, dtype=np.float64).reshape(3, 4))
        ag.tmean(a, axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((3, 4), 1 / 3))


class TestMatmul:
    @pytest.mark.parametrize("sa,sb", [((2, 3), (3, 4)), ((5, 2, 3), (3, 4)),
                                       ((2, 2, 3, 4), (4, 2)), ((4, 3), (3, 1)),
                                       ((1, 3), (3, 5)), ((2, 3, 4), (2, 4, 5)),
                                       ((2, 2, 3, 4), (2, 2, 4, 5))])
    def test_matmul_gradients(self, sa, sb):
        rng = np.random.default_rng(7)
        a = leaf(rng.standard_normal(sa))
        b = leaf(rng.standard_normal(sb))
        w = Tensor(rng.standard_normal(np.matmul(a.data, b.data).shape))

        def build():
            return ((a @ b) * w).sum()

        assert_grad_matches(build, a)
        assert_grad_matches(build, b)

    @pytest.mark.parametrize("n,m", [(64, 64), (64, 256), (256, 64), (64, 32)],
                             ids=["attn", "fc1", "fc2", "head"])
    def test_row_bits_do_not_depend_on_row_count(self, n, m):
        # The encoder weight shapes (d=64). A lone row must round as it does
        # inside a stack of rows, and a stack must keep numpy's own bits.
        rng = np.random.default_rng(3)
        x, w = rng.standard_normal((600, n)), rng.standard_normal((n, m))
        full = x @ w
        assert np.array_equal((Tensor(x) @ Tensor(w)).data, full)
        for rows in (1, 2, 3, 7, 64):
            assert np.array_equal((Tensor(x[:rows]) @ Tensor(w)).data, full[:rows]), rows
        for i in range(0, 600, 50):
            assert np.array_equal((Tensor(x[i:i + 1]) @ Tensor(w)).data, full[i:i + 1]), i

    @pytest.mark.parametrize("sa,sb", [((3,), (3, 5)), ((4, 3), (3,)), ((3,), (3,)),
                                       ((2, 3), (4, 5)), ((3, 4), (2, 4, 5)),
                                       ((2, 3, 4), (3, 4, 5)), ((2, 1, 3, 4), (2, 2, 4, 5))],
                             ids=["1d-left", "1d-right", "1d-both", "inner", "broadcast-left",
                                  "batch-mismatch", "broadcast-batch"])
    def test_unsupported_forms_raise(self, sa, sb):
        # 1-d operands and broadcast batch axes have no gradient path
        with pytest.raises(ValueError):
            Tensor(np.ones(sa)) @ leaf(np.ones(sb))


class TestLinear:
    @pytest.mark.parametrize("sx", [(6, 5), (3, 6, 5), (1, 5)], ids=["2d", "3d", "row"])
    def test_bits_equal_matmul_then_add(self, sx):
        rng = np.random.default_rng(13)
        data = rng.standard_normal(sx), rng.standard_normal((5, 4)), rng.standard_normal(4)
        u = Tensor(rng.standard_normal(sx[:-1] + (4,)))
        fused, plain = [leaf(d) for d in data], [leaf(d) for d in data]
        out = ag.linear(*fused)
        ref = ag.add(ag.matmul(plain[0], plain[1]), plain[2])
        assert np.array_equal(out.data, ref.data)
        (out * u).sum().backward()
        (ref * u).sum().backward()
        for f, p in zip(fused, plain):
            assert np.array_equal(f.grad, p.grad)

    def test_check_gradients(self):
        rng = np.random.default_rng(14)
        params = {"x": leaf(rng.standard_normal((2, 3, 5))), "w": leaf(rng.standard_normal((5, 4))),
                  "b": leaf(rng.standard_normal(4))}
        u = Tensor(rng.standard_normal((2, 3, 4)))
        report = check_gradients(lambda: (ag.linear(params["x"], params["w"], params["b"]) * u).sum(),
                                 params, n_probes=40)
        assert report.passed, report.worst

    @pytest.mark.parametrize("sx,sw,sb", [((3, 5), (4, 2), (2,)), ((3, 5), (5, 2), (3,)),
                                          ((3, 5), (5, 2), (1, 2)), ((5,), (5, 2), (2,)),
                                          ((2, 3, 5), (2, 5, 2), (2,))],
                             ids=["inner", "bias-length", "bias-2d", "1d-input", "3d-weight"])
    def test_shape_mismatch_raises(self, sx, sw, sb):
        with pytest.raises(ValueError, match="linear shape mismatch"):
            ag.linear(leaf(np.ones(sx)), leaf(np.ones(sw)), leaf(np.ones(sb)))


class TestFusedOps:
    def test_layer_normalize_matches_composite(self):
        rng = np.random.default_rng(3)
        x = np.asarray(rng.standard_normal((4, 8)))
        gain = rng.standard_normal(8)
        bias = rng.standard_normal(8)
        out = ag.layer_normalize(Tensor(x), Tensor(gain), Tensor(bias)).data
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        ref = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_layer_normalize_gradients_all_inputs(self):
        rng = np.random.default_rng(4)
        x = leaf(rng.standard_normal((3, 6)))
        g = leaf(rng.standard_normal(6))
        b = leaf(rng.standard_normal(6))
        w = Tensor(rng.standard_normal((3, 6)))

        def build():
            return (ag.layer_normalize(x, g, b) * w).sum()

        assert_grad_matches(build, x, rtol=1e-4, atol=1e-7)
        assert_grad_matches(build, g)
        assert_grad_matches(build, b)

    def test_softmax_log_softmax_consistency(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 7)))
        s = ag.softmax(x).data
        ls = ag.log_softmax(x).data
        np.testing.assert_allclose(s.sum(-1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(np.log(s), ls, rtol=1e-10)

    def test_softmax_gradients(self):
        rng = np.random.default_rng(6)
        x = leaf(rng.standard_normal((2, 5)))
        w = Tensor(rng.standard_normal((2, 5)))
        assert_grad_matches(lambda: (ag.softmax(x) * w).sum(), x)
        assert_grad_matches(lambda: (ag.log_softmax(x) * w).sum(), x)

    def test_embedding_lookup_gradient_matches_onehot(self):
        table = leaf(np.random.default_rng(8).standard_normal((10, 4)))
        idx = np.array([[1, 1, 3], [0, 9, 1]])
        w = Tensor(np.random.default_rng(9).standard_normal((2, 3, 4)))
        (ag.embedding_lookup(table, idx) * w).sum().backward()
        onehot = np.zeros((10, 4))
        for (i, j), row in np.ndenumerate(idx):
            onehot[row] += w.data[i, j]
        np.testing.assert_allclose(table.grad, onehot, rtol=1e-12)

    def test_gather_rows(self):
        x = leaf(np.arange(12, dtype=np.float64).reshape(2, 3, 2))
        out = ag.gather_rows(x, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[4.0, 5.0], [6.0, 7.0]])
        out.sum().backward()
        expected = np.zeros((2, 3, 2))
        expected[0, 2] = 1.0
        expected[1, 0] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_l2_norm_gradient_and_zero_safety(self):
        x = leaf(np.array([[3.0, 4.0], [0.1, -0.2]]))
        assert_grad_matches(lambda: ag.l2_norm(x).sum(), x)
        z = leaf(np.zeros((1, 2)))
        ag.l2_norm(z).sum().backward()
        assert np.isfinite(z.grad).all()


class TestEngineRules:
    def test_add_backward_alias_safety(self):
        # x + x routes the same upstream array to both parent slots; the
        # accumulator must not mutate the first copy in place
        x = leaf(np.array([1.0, 2.0]))
        (x + x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_diamond_graph_accumulation(self):
        x = leaf(np.array(3.0))
        y = x * x + x * 2.0
        y.backward()
        np.testing.assert_allclose(x.grad, 2 * 3.0 + 2.0)

    def test_frozen_leaves_receive_no_gradient(self):
        frozen = Tensor(np.ones(3), requires_grad=False)
        live = leaf(np.ones(3))
        (frozen * live).sum().backward()
        assert frozen.grad is None
        np.testing.assert_allclose(live.grad, np.ones(3))

    def test_no_grad_builds_no_graph(self):
        x = leaf(np.ones(2))
        with ag.no_grad():
            y = (x * 2.0).sum()
        assert not y._parents and y._backward is None
        y.backward()  # walks nothing; input grads untouched
        assert x.grad is None
        # re-enabled afterwards
        z = (x * 2.0).sum()
        z.backward()
        assert x.grad is not None

    def test_backward_requires_scalar(self):
        x = leaf(np.ones(3))
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = leaf(np.array(1.0))
        y = x
        for _ in range(5000):
            y = y + 0.0001
        y.backward()
        np.testing.assert_allclose(x.grad, 1.0)


def frozen(shape, rng):
    return Tensor(rng.standard_normal(shape))


# One frozen operand per op; the rest are trainable leaves.
FROZEN_OPERAND_CASES = {
    "add": lambda r: leaf(r.standard_normal((2, 3))) + frozen((3,), r),
    "mul": lambda r: frozen((2, 3), r) * leaf(r.standard_normal((2, 3))),
    "div-numerator": lambda r: frozen((2, 3), r) / leaf(r.uniform(1, 2, (2, 3))),
    "div-denominator": lambda r: leaf(r.standard_normal((2, 3))) / Tensor(r.uniform(1, 2, (3,))),
    "matmul-2d": lambda r: leaf(r.standard_normal((4, 3))) @ frozen((3, 5), r),
    "matmul-3d": lambda r: frozen((2, 4, 3), r) @ leaf(r.standard_normal((3, 5))),
    "matmul-4d": lambda r: leaf(r.standard_normal((2, 2, 3, 4))) @ frozen((2, 2, 4, 5), r),
    "layer_normalize-x": lambda r: ag.layer_normalize(
        frozen((3, 6), r), leaf(r.standard_normal(6)), leaf(r.standard_normal(6))),
    "layer_normalize-gain": lambda r: ag.layer_normalize(
        leaf(r.standard_normal((3, 6))), frozen((6,), r), leaf(r.standard_normal(6))),
    "linear-x": lambda r: ag.linear(
        frozen((2, 4, 3), r), leaf(r.standard_normal((3, 5))), leaf(r.standard_normal(5))),
    "linear-w": lambda r: ag.linear(
        leaf(r.standard_normal((4, 3))), frozen((3, 5), r), leaf(r.standard_normal(5))),
    "linear-bias": lambda r: ag.linear(
        leaf(r.standard_normal((2, 4, 3))), leaf(r.standard_normal((3, 5))), frozen((5,), r)),
    "concat": lambda r: ag.concat([leaf(r.standard_normal((2, 2))), frozen((2, 3), r)], axis=1),
}


class TestFrozenOperands:
    """The engine computes no gradient for an operand that is neither
    trainable nor inside the graph: `_accum` never receives one."""

    @pytest.fixture
    def accumulated(self, monkeypatch):
        seen = []
        real = ag._accum

        def spy(t, g):
            seen.append(t)
            real(t, g)

        monkeypatch.setattr(ag, "_accum", spy)
        return seen

    @pytest.mark.parametrize("case", FROZEN_OPERAND_CASES)
    def test_op_hands_accum_no_frozen_operand(self, accumulated, case):
        out = FROZEN_OPERAND_CASES[case](np.random.default_rng(0))
        operands = out._parents
        out.sum().backward()
        assert accumulated and all(t._grad_relevant() for t in accumulated)
        for t in operands:
            assert (t.grad is not None) == t.requires_grad

    def test_lora_last1_adapt_step_hands_accum_no_frozen_tensor(self, accumulated):
        cfg = EncoderConfig(d_model=16, n_layers=2, n_heads=2)
        peft = PeftConfig(method="lora", text_layers=(1,), vision_layers=(1,))
        model = assemble_adapted_model(DualEncoder(cfg, cfg, seed=0), peft, seed=0)
        adapt(generate_corpus(seed=0, n_samples=8), model,
              TrainConfig(steps=1, batch_size=4, warmup_steps=0), LossConfig())
        assert accumulated and all(t._grad_relevant() for t in accumulated)
        assert any(t is model.store["adapt.vision.block1.lora_q.a"] for t in accumulated)


class TestParamStore:
    def test_tracks_trainable_and_no_decay(self):
        store = ParamStore()
        store.add("w", np.ones((2, 2)))
        store.add("b", np.zeros(2), no_decay=True)
        store.add("frozen", np.ones(2), trainable=False)
        assert store.n_trainable() == 6
        assert "b" in store.no_decay
        store.freeze_all()
        assert store.n_trainable() == 0
        store.set_trainable("w", True)
        assert store.n_trainable() == 4
        assert store["w"].requires_grad

    def test_requires_grad_is_the_trainable_flag(self):
        store = ParamStore()
        store.add("w", np.ones((2, 2)))
        store.add("b", np.zeros(2))
        store["w"].requires_grad = False
        assert "w" not in store.trainable
        assert "w" not in dict(store.trainable_items())
        assert store.n_trainable() == 2

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        with pytest.raises(KeyError):
            store.add("w", np.ones(2))


# Three live (256, 16, 256) float64 arrays, as large as an evaluate call's MLP
# activations; prints the minor page faults of 5 rounds after a warm-up round.
_FAULT_ROUNDS = """
import resource
import numpy as np
import hyperlift

def one_round():
    arrays = [np.ones((256, 16, 256)) for _ in range(3)]
    del arrays

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator settings are glibc's")
def test_freed_arrays_are_reused_without_page_faults():
    src = str(Path(hyperlift.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _FAULT_ROUNDS], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert int(out.stdout) < 100


class TestCheckGradients:
    def test_passes_on_small_mlp(self):
        rng = np.random.default_rng(11)
        store = ParamStore()
        store.add("w1", rng.standard_normal((5, 7)) * 0.3)
        store.add("b1", rng.standard_normal(7) * 0.1, no_decay=True)
        store.add("w2", rng.standard_normal((7, 2)) * 0.3)
        x = Tensor(rng.standard_normal((4, 5)))

        def f():
            h = ag.gelu(x @ store["w1"] + store["b1"])
            return ag.log_softmax(h @ store["w2"]).sum()

        report = check_gradients(f, dict(store.trainable_items()), n_probes=40, seed=2)
        assert report.passed, report.worst

    def test_detects_a_wrong_gradient(self):
        store = ParamStore()
        store.add("w", np.array([1.3]))

        def f():
            t = store["w"]
            out = t * t  # analytic grad 2w
            out._backward = lambda g: ag._accum(t, g)  # sabotage: pretend grad 1
            return out.sum()

        report = check_gradients(f, dict(store.trainable_items()), n_probes=5)
        assert not report.passed

    def test_perturbs_copies_and_restores_each_array(self):
        # Probes swap in perturbed copies: read-only parameters work, f sees a
        # new array object per perturbation, and each original comes back.
        rng = np.random.default_rng(5)
        store = ParamStore()
        store.add("w", rng.standard_normal((3, 4)))
        store.add("b", rng.standard_normal(4))
        before = {n: (t.data, t.data.copy()) for n, t in store.items()}
        for t in store._params.values():
            t.data.flags.writeable = False
        seen = []

        def f():
            seen.append((store["w"].data, store["b"].data))
            return ag.gelu(store["w"] + store["b"]).sum()

        report = check_gradients(f, dict(store.trainable_items()), n_probes=8, h=(1e-5, 1e-3))
        assert report.passed, report.worst
        for name, (arr, copy) in before.items():
            assert store[name].data is arr
            assert np.array_equal(arr, copy)
        assert len({tuple(map(id, pair)) for pair in seen[1:]}) == len(seen) - 1


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_are_distributions(b, n, seed):
    x = Tensor(np.random.default_rng(seed).standard_normal((b, n)) * 5)
    s = ag.softmax(x).data
    assert (s >= 0).all()
    np.testing.assert_allclose(s.sum(-1), 1.0, rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_expression_gradcheck(seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng.uniform(0.2, 1.5, size=(2, 3)))
    w = Tensor(rng.standard_normal((3, 3)))

    def build():
        y = ag.gelu(x @ w) + ag.sqrt(x)
        return (ag.softmax(y) * y).sum()

    x.grad = None
    build().backward()
    num = numeric_grad(build, x)
    np.testing.assert_allclose(x.grad, num, rtol=1e-4, atol=1e-7)
