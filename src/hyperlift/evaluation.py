"""Zero-shot multiple-choice VQA evaluation by hyperbolic distance matching,
plus a geometry report (radial statistics and cone-containment rates) for
inspecting the learned hierarchy.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from .autograd import no_grad
from .data import Tokenizer, VqaItem
from .manifold import geodesic_distance, lorentz_radius
from .objectives import POINT_SETS, LossConfig, entailment_hinges
from .peft import AdaptedModel
from .training import CorpusBatcher

log = logging.getLogger(__name__)


@dataclass
class EvalReport:
    accuracy: float
    n_items: int
    per_item: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def form_queries(question: str, candidates: list[str], tokenizer: Tokenizer) -> list[list[int]]:
    """Concatenate question + whitespace + candidate, tokenized. Candidate-side
    tokens are truncated (never the question) if the context overflows."""
    if len(candidates) != 4:
        raise ValueError("expected exactly 4 candidates")
    q_ids = tokenizer.encode(question, check_len=False)
    if len(q_ids) >= tokenizer.max_len:
        raise ValueError("question alone exceeds the context window")
    queries = []
    for cand in candidates:
        c_ids = tokenizer.encode(cand, check_len=False)
        room = tokenizer.max_len - len(q_ids)
        if len(c_ids) > room:
            log.warning("truncating candidate %r to fit context", cand)
            c_ids = c_ids[:room]
        queries.append(q_ids + c_ids)
    return queries


def _candidate_distances(model: AdaptedModel, images, token_batch, lengths) -> np.ndarray:
    """(n_items, 4) geodesic distances between each image and its 4 queries.
    VQA sets repeat a few question and answer strings, so the query points
    come from the model's memo (`AdaptedModel.text_points`)."""
    with no_grad():
        img_pts = model.embed_image(images).data                                 # (M, n+1)
        txt = model.text_points(token_batch, lengths).reshape(img_pts.shape[0], 4, -1)
        return geodesic_distance(img_pts[:, None, :], txt, model.manifold.kappa).data


def predict_answer(image, queries: list[list[int]], model: AdaptedModel,
                   tokenizer: Tokenizer) -> int:
    """Argmax over candidates of the negative geodesic distance to the image;
    ties resolve to the lowest index."""
    tokens, lengths = tokenizer.pad_batch(queries, width=tokenizer.max_len)
    d = _candidate_distances(model, np.asarray(image)[None], tokens, lengths)[0]
    return int(np.argmin(d))


def evaluate(vqa_set: list[VqaItem], model: AdaptedModel, tokenizer=None,
             batch_size: int = 256, keep_per_item: bool = True) -> EvalReport:
    """Batched evaluation; identical predictions to one-at-a-time scoring."""
    if not vqa_set:
        raise ValueError("empty VQA set")
    tokenizer = tokenizer or Tokenizer(model.encoder.text_cfg.max_len)
    n_correct = 0
    per_item = []
    for start in range(0, len(vqa_set), batch_size):
        chunk = vqa_set[start : start + batch_size]
        images = np.stack([it.image for it in chunk])
        queries = []
        for it in chunk:
            queries.extend(form_queries(it.question, it.candidates, tokenizer))
        tokens, lengths = tokenizer.pad_batch(queries, width=tokenizer.max_len)
        dists = _candidate_distances(model, images, tokens, lengths)
        preds = np.argmin(dists, axis=1)
        for offset, it in enumerate(chunk):
            pred = int(preds[offset])
            n_correct += pred == it.gold_index
            if keep_per_item:
                per_item.append({
                    "index": start + offset,
                    "predicted": pred,
                    "gold": it.gold_index,
                    "distances": [float(x) for x in dists[offset]],
                })
    return EvalReport(accuracy=n_correct / len(vqa_set), n_items=len(vqa_set), per_item=per_item)


def geometry_report(corpus_sample, model: AdaptedModel, loss: LossConfig | None = None,
                    batch_size: int = 256) -> dict:
    """Per-category Lorentz radii and the cone-containment rate over the true
    parent/child pairs of the run's entailment relations, with the run's cone
    (`loss.entailment_pairs` and `loss.cone_k`; the defaults when `loss` is
    None). A pair is contained when its `entailment_hinges` entry is 0; as in
    training, a pair whose parent sits at the origin is left out (the rate
    is NaN if every pair is)."""
    if len(corpus_sample) < 1:
        raise ValueError("empty corpus sample")
    loss = loss or LossConfig()
    batcher = CorpusBatcher(corpus_sample, Tokenizer(model.encoder.text_cfg.max_len), seed=0)
    radii = {name: [] for name in POINT_SETS}
    contained, total = 0, 0
    with no_grad():
        kappa = model.manifold.kappa
        for start in range(0, len(corpus_sample), batch_size):
            idx = np.arange(start, min(start + batch_size, len(corpus_sample)))
            emb = model.embed_batch(batcher.gather(idx))
            for name, r in radii.items():
                r.append(lorentz_radius(getattr(emb, name), kappa).data)
            for hinge in entailment_hinges(emb, kappa, loss):
                if hinge.ndim:  # 0-d when every parent sits at the origin: no pair to count
                    contained += int((hinge.data == 0).sum())
                    total += hinge.data.size
        report = {"n_samples": len(corpus_sample), "radius": {}, "kappa": kappa.item()}
        for name, chunks in radii.items():
            r = np.concatenate(chunks)
            report["radius"][name] = {
                "mean": float(r.mean()),
                "p25": float(np.percentile(r, 25)),
                "p50": float(np.percentile(r, 50)),
                "p75": float(np.percentile(r, 75)),
            }
        report["containment_rate"] = contained / total if total else float("nan")
    return report
