"""Loss tests against closed forms: InfoNCE values computed by hand from
engineered geodesic distances, hinge behavior from constructed cones."""

import logging

import numpy as np
import pytest

from hyperlift import autograd as ag
from hyperlift.autograd import ParamStore, Tensor
from hyperlift.manifold import ManifoldParams, exp_map_origin, lift
from hyperlift.objectives import (
    BatchEmbeddings,
    LossConfig,
    contrastive_hcc,
    entailment_hce,
    entailment_hinges,
    entailment_violation,
    total_loss,
)
from reference import check_gradients, trainable_params

KAPPA = Tensor(1.0)
CONE_K = 0.1
TAU1 = Tensor(1.0)


def geodesic_points(ts, direction=(1.0, 0.0)):
    """Points exp_o(t * u) along one geodesic; pairwise distance |t_i - t_j|."""
    d = np.asarray(direction) / np.linalg.norm(direction)
    return Tensor(exp_map_origin(np.asarray(ts)[:, None] * d, 1.0).data)


def batch_from(image, text, image_box=None, text_box=None, box_parent=None):
    image_box = image_box if image_box is not None else image
    text_box = text_box if text_box is not None else text
    n = image_box.shape[0]
    box_parent = box_parent if box_parent is not None else np.arange(n)
    return BatchEmbeddings(image=image, text=text, image_box=image_box,
                           text_box=text_box, box_parent=box_parent)


class TestContrastive:
    def test_two_sample_closed_form(self):
        # distances: diagonal 0, off-diagonal 10 -> per-direction CE is
        # log(1 + exp(-10)) for each sample at tau = 1
        pts = geodesic_points([0.0, 10.0])
        batch = batch_from(pts, pts)
        loss = contrastive_hcc(batch, TAU1, KAPPA).item()
        expected = np.log(1.0 + np.exp(-10.0))
        np.testing.assert_allclose(loss, expected, rtol=1e-9)

    def test_indistinguishable_embeddings_give_log_batch(self):
        # all points identical -> uniform softmax -> loss log(B)
        b = 6
        pts = Tensor(np.repeat(exp_map_origin(np.array([[0.4, 0.2]]), 1.0).data, b, axis=0))
        batch = batch_from(pts, pts)
        loss = contrastive_hcc(batch, TAU1, KAPPA).item()
        np.testing.assert_allclose(loss, np.log(b), rtol=1e-12)

    def test_temperature_sharpens(self):
        pts = geodesic_points([0.0, 1.0, 2.5])
        batch = batch_from(pts, pts)
        warm = contrastive_hcc(batch, Tensor(1.0), KAPPA).item()
        cold = contrastive_hcc(batch, Tensor(0.05), KAPPA).item()
        assert cold < warm

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        img = Tensor(exp_map_origin(rng.standard_normal((5, 4)), 1.0).data)
        txt = Tensor(exp_map_origin(rng.standard_normal((5, 4)), 1.0).data)
        base = contrastive_hcc(batch_from(img, txt), TAU1, KAPPA).item()
        perm = rng.permutation(5)
        shuffled = contrastive_hcc(
            batch_from(Tensor(img.data[perm]), Tensor(txt.data[perm])), TAU1, KAPPA
        ).item()
        np.testing.assert_allclose(base, shuffled, rtol=1e-12)

    def test_scene_and_box_terms_averaged(self):
        scene = geodesic_points([0.0, 10.0])
        boxes = geodesic_points([0.0, 4.0])
        batch = batch_from(scene, scene, image_box=boxes, text_box=boxes)
        loss = contrastive_hcc(batch, TAU1, KAPPA).item()
        expected = 0.5 * (np.log(1 + np.exp(-10.0)) + np.log(1 + np.exp(-4.0)))
        np.testing.assert_allclose(loss, expected, rtol=1e-9)

    def test_batch_of_one_rejected(self):
        pts = geodesic_points([1.0])
        with pytest.raises(ValueError, match="batch"):
            contrastive_hcc(batch_from(pts, pts), TAU1, KAPPA)


class TestEntailment:
    def test_contained_child_has_zero_violation(self):
        parent = geodesic_points([1.0])
        child = geodesic_points([2.5])  # same ray, further out
        v = entailment_violation(parent, child, KAPPA, CONE_K).data
        np.testing.assert_allclose(v, 0.0)

    def test_opposite_child_violates(self):
        parent = geodesic_points([1.5], direction=(1.0, 0.0))
        child = geodesic_points([1.5], direction=(-1.0, 0.0))
        v = entailment_violation(parent, child, KAPPA, CONE_K).data
        assert v > 0.5

    def test_violation_decreases_as_child_enters_cone(self):
        parent = geodesic_points([1.5], direction=(1.0, 0.0))
        angles = np.linspace(np.pi, 0.0, 12)
        vios = []
        for theta in angles:
            child = geodesic_points([2.5], direction=(np.cos(theta), np.sin(theta)))
            vios.append(entailment_violation(parent, child, KAPPA, CONE_K).item())
        assert all(a >= b - 1e-12 for a, b in zip(vios, vios[1:]))
        assert vios[0] > 0 and vios[-1] == 0  # on-axis child is inside

    def test_origin_parent_contributes_zero_with_warning(self, caplog):
        origin = Tensor(np.array([[0.0, 0.0, 1.0]]))
        parent = Tensor(np.concatenate([origin.data, geodesic_points([1.0]).data]))
        child = geodesic_points([0.5, 2.0])
        with caplog.at_level(logging.WARNING):
            v = entailment_violation(parent, child, KAPPA, CONE_K)
        assert "origin" in caplog.text
        assert v.shape == (1,)  # only the non-degenerate pair remains

    def test_all_origin_parents_give_scalar_zero(self, caplog):
        origin = Tensor(np.array([[0.0, 0.0, 1.0]]))
        child = geodesic_points([1.0])
        with caplog.at_level(logging.WARNING):
            v = entailment_violation(origin, child, KAPPA, CONE_K)
        assert v.item() == 0.0

    def test_hce_broadcasts_scene_rows_per_box(self):
        # two scenes; scene 0 has two boxes, scene 1 has one
        scene_img = geodesic_points([1.0, 1.3])
        scene_txt = geodesic_points([0.8, 1.1])
        box_img = geodesic_points([1.6, 1.7, 1.9])
        box_txt = geodesic_points([0.5, 0.6, 0.7])
        batch = batch_from(scene_img, scene_txt, box_img, box_txt,
                           box_parent=np.array([0, 0, 1]))
        out = entailment_hce(batch, KAPPA, LossConfig())
        assert out.shape == ()
        assert out.item() >= 0

    def test_scene_parent_repeats_once_per_box(self):
        # ["text", "image_box"]: box j's image point against its scene's text point
        rng = np.random.default_rng(11)
        scene_txt = Tensor(exp_map_origin(rng.standard_normal((2, 3)), 1.0).data)
        box_img = Tensor(exp_map_origin(rng.standard_normal((4, 3)) * 2.0, 1.0).data)
        box_parent = np.array([1, 0, 0, 1])
        batch = batch_from(scene_txt, scene_txt, box_img, box_img, box_parent=box_parent)
        config = LossConfig(entailment_pairs=(("text", "image_box"),))
        [hinge] = entailment_hinges(batch, KAPPA, config)
        assert hinge.shape == (4,)
        for j, parent in enumerate(box_parent):
            one = entailment_violation(scene_txt[[parent]], box_img[[j]], KAPPA, config.cone_k)
            assert hinge.data[j] == one.item(), j
        assert len(set(hinge.data)) == 4  # a wrong parent row would show
        assert entailment_hce(batch, KAPPA, config).item() == hinge.mean().item()

    def test_configurable_pair_set(self):
        pts = geodesic_points([1.0, 2.0])
        batch = batch_from(pts, pts)
        only_scene = LossConfig(entailment_pairs=(("text", "image"),))
        v = entailment_hce(batch, KAPPA, only_scene).item()
        np.testing.assert_allclose(v, 0.0)  # identical points entail trivially


class TestTotalLoss:
    def test_combination_and_parts(self):
        rng = np.random.default_rng(9)
        img = Tensor(exp_map_origin(rng.standard_normal((4, 4)) * 0.8, 1.0).data)
        txt = Tensor(exp_map_origin(rng.standard_normal((4, 4)) * 0.8, 1.0).data)
        batch = batch_from(img, txt)
        lam = 0.37
        total, parts = total_loss(batch, TAU1, KAPPA, LossConfig(lambda_entail=lam))
        np.testing.assert_allclose(
            total.item(), parts["loss_hcc"] + lam * parts["loss_hce"], rtol=1e-12
        )

    def test_lambda_zero_skips_entailment(self):
        pts = geodesic_points([0.5, 1.5])
        total, parts = total_loss(batch_from(pts, pts), TAU1, KAPPA,
                                  LossConfig(lambda_entail=0.0))
        assert parts["loss_hce"] == 0.0
        np.testing.assert_allclose(total.item(), parts["loss_hcc"], rtol=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(lambda_entail=-0.1)

    def test_gradients_through_both_terms(self):
        # embeddings produced by the lift so gradients flow through the
        # manifold scalars exactly as in training
        rng = np.random.default_rng(4)
        store = ParamStore()
        store.add("v_img", rng.standard_normal((4, 6)))
        store.add("v_txt", rng.standard_normal((4, 6)))
        store.add("v_ib", rng.standard_normal((6, 6)))
        store.add("v_tb", rng.standard_normal((6, 6)))
        params = ManifoldParams(embed_dim=6, store=store)
        store.add("log_tau", np.log(0.5), no_decay=True)
        parent = np.array([0, 0, 1, 2, 3, 3])
        cfg = LossConfig(lambda_entail=0.25)

        def f():
            batch = BatchEmbeddings(
                image=lift(store["v_img"], "image", params),
                text=lift(store["v_txt"], "text", params),
                image_box=lift(store["v_ib"], "image", params),
                text_box=lift(store["v_tb"], "text", params),
                box_parent=parent,
            )
            total, _ = total_loss(batch, ag.exp(store["log_tau"]), params.kappa, cfg)
            return total

        report = check_gradients(f, trainable_params(store), n_probes=60, seed=7)
        assert report.passed, report.worst
