"""Zero-shot multiple-choice VQA evaluation by hyperbolic distance matching,
plus a geometry report (radial statistics and cone-containment rates) for
inspecting the learned hierarchy.
"""

from __future__ import annotations

import json
import logging
import weakref
from dataclasses import dataclass, field, asdict

import numpy as np

from .autograd import no_grad
from .data import Tokenizer, VqaItem
from .manifold import exterior_angle, geodesic_distance, half_aperture, lorentz_radius
from .objectives import POINT_SETS, LossConfig, pair_rows
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


# The parameters a lifted text point is a function of.
_TEXT_SIDE = ("text.", "adapt.text.", "manifold.")

# model -> (its text-side arrays, {query row bytes: lifted text point}). An
# entry holds while every text-side tensor holds the same `.data` object: the
# optimizer, checkpoint loads and head resets all assign a new array, and
# nothing writes into one. The entry keeps those arrays alive, so the `is`
# check cannot be fooled by a reused id.
_query_points: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _cached_points(model: AdaptedModel) -> dict:
    """The model's cache of lifted query points, emptied first if any
    text-side parameter array has been replaced since it was filled."""
    arrays = tuple(t.data for name, t in model.store.items() if name.startswith(_TEXT_SIDE))
    entry = _query_points.get(model)
    if (entry is None or len(entry[0]) != len(arrays)
            or any(old is not new for old, new in zip(entry[0], arrays))):
        entry = _query_points[model] = (arrays, {})
    return entry[1]


def _candidate_distances(model: AdaptedModel, images, token_batch, lengths) -> np.ndarray:
    """(n_items, 4) geodesic distances between each image and its 4 queries.
    VQA sets repeat a few question and answer strings, so the lifted point of
    each distinct query row is kept per model and encoded only the first
    time it is asked for. Rows encode independently of their batch, so a
    cached point has the bits of a fresh encode."""
    points = _cached_points(model)
    keys = [row.tobytes() for row in np.column_stack([token_batch, lengths])]
    missing = {}  # distinct uncached row bytes -> its first row
    for i, key in enumerate(keys):
        if key not in points:
            missing.setdefault(key, i)
    with no_grad():
        if missing:
            rows = list(missing.values())
            points.update(zip(missing, model.embed_text(token_batch[rows], lengths[rows]).data))
        img_pts = model.embed_image(images).data                                 # (M, n+1)
        txt = np.stack([points[key] for key in keys]).reshape(img_pts.shape[0], 4, -1)
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
    (`loss.entailment_pairs` and `loss.cone`; the defaults when `loss` is None)."""
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
            for parent_name, child_name in loss.entailment_pairs:
                ppts, cpts = pair_rows(getattr(emb, parent_name), getattr(emb, child_name),
                                       parent_name, emb.box_parent)
                ext = exterior_angle(ppts, cpts, kappa).data
                psi = half_aperture(ppts, kappa, loss.cone).data
                contained += int((ext <= psi).sum())
                total += len(ext)
        report = {"n_samples": len(corpus_sample), "radius": {}, "kappa": kappa.item()}
        for name, chunks in radii.items():
            r = np.concatenate(chunks)
            report["radius"][name] = {
                "mean": float(r.mean()),
                "p25": float(np.percentile(r, 25)),
                "p50": float(np.percentile(r, 50)),
                "p75": float(np.percentile(r, 75)),
            }
        report["containment_rate"] = contained / total
    return report
