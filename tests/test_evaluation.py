"""VQA evaluation and geometry-report tests (untrained models: these check
the scoring machinery, not model quality)."""

import numpy as np
import pytest

from hyperlift.data import Tokenizer, VqaItem, generate_corpus, generate_vqa
from hyperlift.encoders import DualEncoder, EncoderConfig
from hyperlift.evaluation import (
    EvalReport,
    evaluate,
    form_queries,
    geometry_report,
    predict_answer,
)
from hyperlift.peft import PeftConfig, assemble_adapted_model


@pytest.fixture(scope="module")
def model():
    cfg = EncoderConfig()
    enc = DualEncoder(cfg, cfg, seed=0)
    peft = PeftConfig(method="bias", text_layers=(0, 1, 2, 3), vision_layers=(0, 1, 2, 3))
    return assemble_adapted_model(enc, peft, seed=0)


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

    def test_width_boundary_keeps_distances_and_predictions(self, model):
        # Criterion 9 across the trim boundary. A 9-token query makes
        # `evaluate` encode its chunk at width 16; beside 3-token queries only,
        # the 6-token queries of the item under test are encoded at width 8,
        # and so are they in `predict_answer`. Both chunks hold the same two
        # images, so that item's distances must keep every bit.
        # `predict_answer` scores one image, whose head is a matrix-vector
        # product that rounds otherwise, so against it only the predictions
        # are compared.
        tok = Tokenizer()
        first, second = generate_vqa(seed=3, n_items=2)

        def asking(it, question):
            return VqaItem(image=it.image, question=question, candidates=it.candidates,
                           gold_index=it.gold_index)

        long = asking(first, "what object is shown in the picture with")
        item = asking(second, "what object is shown with")
        assert {len(q) for q in form_queries(long.question, long.candidates, tok)} == {9}
        assert {len(q) for q in form_queries(item.question, item.candidates, tok)} == {6}
        wide = evaluate([long, item], model)
        narrow = evaluate([first, item], model)
        assert np.array_equal(wide.per_item[1]["distances"], narrow.per_item[1]["distances"])
        for it, rec in zip((long, item), wide.per_item):
            queries = form_queries(it.question, it.candidates, tok)
            assert predict_answer(it.image, queries, model, tok) == rec["predicted"]

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

    def test_empty_sample_rejected(self, model):
        with pytest.raises(ValueError):
            geometry_report([], model)
