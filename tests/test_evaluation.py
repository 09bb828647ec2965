"""VQA evaluation and geometry-report tests (untrained models: these check
the scoring machinery, not model quality)."""

import numpy as np
import pytest

from hyperlift import evaluation
from hyperlift.autograd import no_grad
from hyperlift.checkpoint import load_adapted, save_adapted
from hyperlift.data import Tokenizer, VqaItem, generate_corpus, generate_vqa
from hyperlift.encoders import DualEncoder, EncoderConfig
from hyperlift.evaluation import (
    EvalReport,
    evaluate,
    form_queries,
    geometry_report,
    predict_answer,
)
from hyperlift.manifold import geodesic_distance
from hyperlift.objectives import LossConfig, total_loss
from hyperlift.peft import PeftConfig, assemble_adapted_model
from hyperlift.training import CorpusBatcher, TrainConfig, adapt
from reference import check_gradients, trainable_params


def bias_model():
    cfg = EncoderConfig()
    enc = DualEncoder(cfg, cfg, seed=0)
    peft = PeftConfig(method="bias", text_layers=(0, 1, 2, 3), vision_layers=(0, 1, 2, 3))
    return assemble_adapted_model(enc, peft, seed=0)


@pytest.fixture(scope="module")
def model():
    return bias_model()


@pytest.fixture(scope="module")
def vqa():
    return generate_vqa(seed=5, n_items=64)


class TestFormQueries:
    def test_concatenates_question_and_candidate(self):
        tok = Tokenizer()
        queries = form_queries("picture with", ["circle", "square", "dot", "bar"], tok)
        assert len(queries) == 4
        assert queries[0] == tok.encode("picture with circle")

    def test_candidate_truncated_never_question(self, caplog):
        tok = Tokenizer(max_len=4)
        long_candidate = "circle and square"
        queries = form_queries("picture with", [long_candidate] * 4, tok)
        q_ids = tok.encode("picture with")
        for q in queries:
            assert q[: len(q_ids)] == q_ids
            assert len(q) <= 4
        assert "truncating" in caplog.text

    def test_question_overflow_raises(self):
        tok = Tokenizer(max_len=2)
        with pytest.raises(ValueError, match="question"):
            form_queries("picture with scene", ["circle"] * 4, tok)

    def test_requires_exactly_four_candidates(self):
        with pytest.raises(ValueError, match="4 candidates"):
            form_queries("picture with", ["circle"], Tokenizer())


class TestPrediction:
    def test_ties_resolve_to_lowest_index(self, model):
        # duplicated candidates produce identical queries, hence exact ties
        tok = Tokenizer()
        image = generate_vqa(seed=1, n_items=1)[0].image
        queries = form_queries("picture with", ["dot", "dot", "dot", "dot"], tok)
        assert predict_answer(image, queries, model, tok) == 0

    def test_prediction_is_the_distance_argmin(self, model, vqa):
        # exhaustive oracle: rescore each candidate one at a time through the
        # public embedding interface and the raw distance formula
        from hyperlift.autograd import no_grad
        from hyperlift.manifold import geodesic_distance

        tok = Tokenizer()
        for it in vqa[:16]:
            queries = form_queries(it.question, it.candidates, tok)
            pred = predict_answer(it.image, queries, model, tok)
            singles = []
            with no_grad():
                img = model.embed_image(it.image[None])
                for q in queries:
                    tokens, lengths = tok.pad_batch([q], width=tok.max_len)
                    txt = model.embed_text(tokens, lengths)
                    singles.append(
                        geodesic_distance(img, txt, model.manifold.kappa).item())
            assert pred == int(np.argmin(singles))

    def test_batched_equals_per_item(self, model, vqa):
        tok = Tokenizer()
        report = evaluate(vqa, model, batch_size=16)
        for it, rec in zip(vqa, report.per_item):
            queries = form_queries(it.question, it.candidates, tok)
            assert predict_answer(it.image, queries, model, tok) == rec["predicted"]

    def test_distances_equal_encoding_every_query(self, model, vqa):
        # evaluate encodes each distinct query once; its distances must be
        # exactly those of encoding every query row of every item
        from hyperlift.autograd import no_grad
        from hyperlift.manifold import geodesic_distance

        tok = Tokenizer()
        queries = [q for it in vqa for q in form_queries(it.question, it.candidates, tok)]
        assert len(set(map(tuple, queries))) < len(queries)
        tokens, lengths = tok.pad_batch(queries, width=tok.max_len)
        with no_grad():
            img = model.embed_image(np.stack([it.image for it in vqa])).data
            txt = model.embed_text(tokens, lengths).data.reshape(len(vqa), 4, -1)
            expected = geodesic_distance(img[:, None, :], txt, model.manifold.kappa).data
        report = evaluate(vqa, model, batch_size=len(vqa))
        assert np.array_equal([rec["distances"] for rec in report.per_item], expected)

    def test_width_boundary_keeps_distances_and_predictions(self):
        # Criterion 9 across chunks whose longest queries differ. The item
        # under test (6-token queries) is scored beside 9-token queries in one
        # chunk and beside 3-token queries in the other; every query is padded
        # to max_len in both, and in `predict_answer`. Both chunks hold the
        # same two images, so that item's distances must keep every bit.
        # Each chunk is scored by its own one of two equal models, so neither
        # reads a query point the other encoded. Against `predict_answer`,
        # which returns no distances and runs on the narrow chunk's model, the
        # wide chunk's predictions are compared.
        wide_model, narrow_model = bias_model(), bias_model()
        tok = Tokenizer()
        first, second = generate_vqa(seed=3, n_items=2)

        def asking(it, question):
            return VqaItem(image=it.image, question=question, candidates=it.candidates,
                           gold_index=it.gold_index)

        long = asking(first, "what object is shown in the picture with")
        item = asking(second, "what object is shown with")
        assert {len(q) for q in form_queries(long.question, long.candidates, tok)} == {9}
        assert {len(q) for q in form_queries(item.question, item.candidates, tok)} == {6}
        wide = evaluate([long, item], wide_model)
        narrow = evaluate([first, item], narrow_model)
        assert np.array_equal(wide.per_item[1]["distances"], narrow.per_item[1]["distances"])
        for it, rec in zip((long, item), wide.per_item):
            queries = form_queries(it.question, it.candidates, tok)
            assert predict_answer(it.image, queries, narrow_model, tok) == rec["predicted"]

    def test_batch_size_does_not_change_predictions(self, model, vqa):
        a = evaluate(vqa, model, batch_size=7)
        b = evaluate(vqa, model, batch_size=64)
        assert [r["predicted"] for r in a.per_item] == [r["predicted"] for r in b.per_item]

    def test_untrained_model_near_chance(self, model):
        # random-looking embeddings: accuracy should hover near 25%
        vqa = generate_vqa(seed=11, n_items=2000)
        report = evaluate(vqa, model, keep_per_item=False)
        assert abs(report.accuracy - 0.25) < 0.05

    def test_report_fields_and_json(self, model, vqa):
        report = evaluate(vqa[:8], model)
        assert isinstance(report, EvalReport)
        assert report.n_items == 8
        assert len(report.per_item) == 8
        for rec in report.per_item:
            assert len(rec["distances"]) == 4
            assert rec["predicted"] == int(np.argmin(rec["distances"]))
        assert '"accuracy"' in report.to_json()

    def test_empty_set_rejected(self, model):
        with pytest.raises(ValueError):
            evaluate([], model)


def adapted_with_signal(seed, n_layers=2):
    """A seq_adapter model whose adapters are non-zero, so every adapted
    sublayer changes the encoding."""
    cfg = EncoderConfig(n_layers=n_layers)
    every = tuple(range(n_layers))
    peft = PeftConfig(method="seq_adapter", text_layers=every, vision_layers=every)
    model = assemble_adapted_model(DualEncoder(cfg, cfg, seed=seed), peft, seed=seed)
    rng = np.random.default_rng(seed)
    for name, t in model.store.items():
        if name.startswith("adapt."):
            t.data = 0.05 * rng.standard_normal(t.data.shape)
    return model


def encoded_distances(model, vqa):
    """Every image and every query row encoded afresh in one batch each."""
    tok = Tokenizer(model.encoder.text_cfg.max_len)
    queries = [q for it in vqa for q in form_queries(it.question, it.candidates, tok)]
    tokens, lengths = tok.pad_batch(queries, width=tok.max_len)
    with no_grad():
        img = model.embed_image(np.stack([it.image for it in vqa])).data
        txt = model.embed_text(tokens, lengths).data.reshape(len(vqa), 4, -1)
        return geodesic_distance(img[:, None, :], txt, model.manifold.kappa).data


def distances(report):
    return np.array([rec["distances"] for rec in report.per_item])


def read_only(model):
    for _, t in model.store.items():
        if isinstance(t.data, np.ndarray):  # the optimizer leaves 0-d ones as numpy scalars
            t.data.flags.writeable = False
    return model


class TestQueryCache:
    """`evaluate` and `predict_answer` reuse each model's encoded query rows
    while its text-side parameter arrays stay the same objects."""

    def test_nothing_writes_into_a_parameter_array(self, tmp_path):
        # The cache's `is` rule holds only if every change to a parameter
        # assigns a new array, so all of these must run on read-only arrays.
        model = read_only(adapted_with_signal(seed=1))
        corpus = generate_corpus(seed=0, n_samples=16, glyph_set_size=8)
        adapt(corpus, model, TrainConfig(steps=2, batch_size=4, warmup_steps=1, seed=0), LossConfig())
        path = tmp_path / "adapted.npz"
        save_adapted(read_only(model), path)
        loaded = read_only(load_adapted(path))
        batch = CorpusBatcher(corpus, Tokenizer(), seed=0).gather(np.arange(4))
        lc = LossConfig()
        check_gradients(
            lambda: total_loss(loaded.embed_batch(batch), loaded.tau, loaded.manifold.kappa, lc)[0],
            trainable_params(loaded.store), n_probes=4)
        vqa = generate_vqa(seed=2, n_items=8)
        report = evaluate(vqa, loaded)
        tok = Tokenizer()
        for it, rec in zip(vqa, report.per_item):
            queries = form_queries(it.question, it.candidates, tok)
            assert predict_answer(it.image, queries, loaded, tok) == rec["predicted"]

    def test_distances_follow_every_parameter_change(self, tmp_path):
        model = adapted_with_signal(seed=2)
        vqa = generate_vqa(seed=6, n_items=24)
        start = distances(evaluate(vqa, model))
        assert np.array_equal(start, encoded_distances(model, vqa))
        path = tmp_path / "start.npz"
        save_adapted(model, path)

        corpus = generate_corpus(seed=1, n_samples=16, glyph_set_size=8)
        adapt(corpus, model, TrainConfig(steps=2, batch_size=4, warmup_steps=1, seed=0), LossConfig())
        trained = distances(evaluate(vqa, model))
        assert not np.array_equal(trained, start)
        assert np.array_equal(trained, encoded_distances(model, vqa))

        # A checkpoint load assigns each array, into a new model or this one.
        loaded = load_adapted(path)
        assert np.array_equal(distances(evaluate(vqa, loaded)), start)
        for name, t in loaded.store.items():
            model.store[name].data = t.data
        assert np.array_equal(distances(evaluate(vqa, model)), start)

        model.store["manifold.log_kappa"].data = np.array(0.3)
        assert np.array_equal(distances(evaluate(vqa, model)), encoded_distances(model, vqa))
        model.store["text.proj"].data = 2 * model.store["text.proj"].data
        assert np.array_equal(distances(evaluate(vqa, model)), encoded_distances(model, vqa))

    def test_one_item_scores_as_in_a_batch(self, monkeypatch):
        # Criterion 9 on distances. Two equal models keep separate caches, so
        # `predict_answer` encodes its own queries and `evaluate` its own.
        single, batched = adapted_with_signal(seed=3, n_layers=4), adapted_with_signal(seed=3, n_layers=4)
        vqa = generate_vqa(seed=8, n_items=200)
        images = np.stack([it.image for it in vqa])
        with no_grad():
            rows = batched.embed_image(images).data
            for image, row in zip(images, rows):
                assert np.array_equal(single.embed_image(image[None]).data[0], row)

        tok = Tokenizer()
        scored = []
        real = evaluation._candidate_distances
        monkeypatch.setattr(evaluation, "_candidate_distances",
                            lambda *args: scored.append(real(*args)) or scored[-1])
        for it in vqa:
            predict_answer(it.image, form_queries(it.question, it.candidates, tok), single, tok)
        monkeypatch.undo()
        report = evaluate(vqa, batched)
        assert np.array_equal(np.concatenate(scored), distances(report))


class TestGeometryReport:
    def test_structure_and_ranges(self, model):
        corpus = generate_corpus(seed=2, n_samples=40)
        rep = geometry_report(corpus, model, batch_size=16)
        assert set(rep["radius"]) == {"image", "text", "image_box", "text_box"}
        for stats in rep["radius"].values():
            assert stats["p25"] <= stats["p50"] <= stats["p75"]
            assert stats["mean"] > 0
        assert 0.0 <= rep["containment_rate"] <= 1.0
        assert rep["kappa"] > 0
        assert rep["n_samples"] == 40

    def test_batch_size_invariant(self, model):
        corpus = generate_corpus(seed=3, n_samples=30)
        a = geometry_report(corpus, model, batch_size=7)
        b = geometry_report(corpus, model, batch_size=30)
        np.testing.assert_allclose(a["containment_rate"], b["containment_rate"])
        for cat in a["radius"]:
            np.testing.assert_allclose(a["radius"][cat]["mean"],
                                       b["radius"][cat]["mean"], rtol=1e-9)

    def test_parent_at_the_origin_is_left_out(self, caplog):
        # A zero text head puts every text and text-box point at the origin,
        # so only the image_box -> image pairs keep a cone to score.
        model = assemble_adapted_model(DualEncoder(EncoderConfig(), EncoderConfig(), seed=0),
                                       PeftConfig(method="bias"), seed=0)
        model.store["text.proj"].data = np.zeros_like(model.store["text.proj"].data)
        corpus = generate_corpus(seed=3, n_samples=12)
        rep = geometry_report(corpus, model)
        assert "at origin" in caplog.text
        boxes_only = geometry_report(corpus, model, LossConfig(entailment_pairs=[["image_box", "image"]]))
        assert rep["containment_rate"] == boxes_only["containment_rate"]
        text_only = LossConfig(entailment_pairs=[["text", "image"], ["text_box", "text"]])
        assert np.isnan(geometry_report(corpus, model, text_only)["containment_rate"])

    def test_empty_sample_rejected(self, model):
        with pytest.raises(ValueError):
            geometry_report([], model)
