"""Training objectives in hyperbolic space.

Two terms: a compositional contrastive loss (distance-based InfoNCE at scene
level and box level, both directions) and an entailment-cone violation hinge
aggregated over a configurable set of parent->child relations. Combined as
total = contrastive + lambda * entailment.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .manifold import (
    ORIGIN_EPS,
    exterior_angle,
    half_aperture,
    pairwise_geodesic_distance,
)

log = logging.getLogger(__name__)

# The lifted point sets of a batch (fields of `BatchEmbeddings`).
POINT_SETS = ("image", "text", "image_box", "text_box")
# parent -> child: the child should fall inside the parent's entailment cone.
DEFAULT_ENTAILMENT_PAIRS = (
    ("text", "image"),
    ("text_box", "text"),
    ("text_box", "image_box"),
    ("image_box", "image"),
)


@dataclass
class LossConfig:
    """Adaptation loss settings. `neftune_alpha` scales the NEFTune noise on
    text embeddings (0 turns it off). `cone_k` is the entailment cones'
    constant K (see `half_aperture`); `entailment_pairs` lists [parent, child]
    names of `POINT_SETS`."""

    lambda_entail: float = 0.1
    tau_init: float = 0.07
    neftune_alpha: float = 0.1
    cone_k: float = 0.1
    entailment_pairs: tuple = DEFAULT_ENTAILMENT_PAIRS

    def __post_init__(self):
        if self.lambda_entail < 0:
            raise ValueError("lambda_entail must be non-negative")
        if self.neftune_alpha < 0:
            raise ValueError("neftune_alpha must be non-negative")
        if not all(isinstance(v, (int, float)) and v > 0 for v in (self.tau_init, self.cone_k)):
            raise ValueError("tau_init and cone_k must be positive numbers")
        pairs = self.entailment_pairs
        if not isinstance(pairs, (list, tuple)) or not pairs or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(n in POINT_SETS for n in p)
                for p in pairs):
            raise ValueError(f"entailment_pairs must be a nonempty list of [parent, child] "
                             f"pairs of {POINT_SETS}")
        self.entailment_pairs = tuple(tuple(p) for p in pairs)


@dataclass
class BatchEmbeddings:
    """Lifted points for one batch. Scene-level tensors are (B, n+1); the box
    tensors are flattened over all boxes in the batch, with `box_parent`
    giving each box's sample index."""

    image: Tensor
    text: Tensor
    image_box: Tensor
    text_box: Tensor
    box_parent: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.image.shape[0]


def symmetric_info_nce(logits: Tensor) -> Tensor:
    """Symmetric InfoNCE (CLIP's loss): the mean of row-wise and column-wise
    cross-entropy of square `logits`, row i matched with column i."""
    idx = np.arange(logits.shape[0])
    row_ll = ag.log_softmax(logits, axis=1)[idx, idx]
    col_ll = ag.log_softmax(logits, axis=0)[idx, idx]
    return -(row_ll.mean() + col_ll.mean()) * 0.5


def contrastive_hcc(batch: BatchEmbeddings, tau: Tensor, kappa: Tensor) -> Tensor:
    """Scene-level plus box-level distance InfoNCE, averaged."""
    if batch.batch_size < 2:
        raise ValueError("contrastive loss needs batch size >= 2")
    scene = symmetric_info_nce(-pairwise_geodesic_distance(batch.image, batch.text, kappa) / tau)
    box = symmetric_info_nce(-pairwise_geodesic_distance(batch.image_box, batch.text_box, kappa) / tau)
    return (scene + box) * 0.5


def pair_rows(parent, child, parent_name: str, box_parent):
    """Align the rows of one parent->child relation. Scene and box rows differ
    in count; the scene side repeats its row once per box (`box_parent`)."""
    if parent.shape[0] != child.shape[0]:
        if parent_name.endswith("_box"):
            child = child[box_parent]
        else:
            parent = parent[box_parent]
    return parent, child


def entailment_violation(parent, child, kappa, cone_k: float) -> Tensor:
    """Per-pair hinge max(0, exterior_angle - half_aperture).

    Parents that sit numerically at the origin have no cone axis; they
    contribute zero with a logged warning rather than failing the step.
    """
    pdata = parent.data if isinstance(parent, Tensor) else np.asarray(parent)
    snorm = np.linalg.norm(pdata[..., :-1], axis=-1)
    degenerate = snorm < ORIGIN_EPS
    if degenerate.any():
        log.warning("entailment: %d parent point(s) at origin contribute zero", int(degenerate.sum()))
        keep = ~degenerate
        parent = parent[np.nonzero(keep)[0]]
        child = child[np.nonzero(keep)[0]]
        if not keep.any():
            return Tensor(0.0)
    ext = exterior_angle(parent, child, kappa)
    psi = half_aperture(parent, kappa, cone_k)
    return ag.relu(ext - psi)


def entailment_hinges(batch: BatchEmbeddings, kappa: Tensor, config: LossConfig) -> list[Tensor]:
    """The per-pair `entailment_violation` of each relation of
    `config.entailment_pairs`, in order (0-d when every parent of a relation
    sits at the origin)."""
    hinges = []
    for parent_name, child_name in config.entailment_pairs:
        parent, child = pair_rows(getattr(batch, parent_name), getattr(batch, child_name),
                                  parent_name, batch.box_parent)
        hinges.append(entailment_violation(parent, child, kappa, config.cone_k))
    return hinges


def entailment_hce(batch: BatchEmbeddings, kappa: Tensor, config: LossConfig) -> Tensor:
    """Cone-violation hinge averaged over the configured parent->child pairs."""
    return ag.stack([h.mean() for h in entailment_hinges(batch, kappa, config)]).mean()


def total_loss(batch: BatchEmbeddings, tau: Tensor, kappa: Tensor,
               config: LossConfig) -> tuple[Tensor, dict]:
    """contrastive + lambda * entailment; also returns scalar components."""
    hcc = contrastive_hcc(batch, tau, kappa)
    if config.lambda_entail > 0:
        hce = entailment_hce(batch, kappa, config)
        total = hcc + config.lambda_entail * hce
    else:
        hce = Tensor(0.0)
        total = hcc
    parts = {"loss": total.item(), "loss_hcc": hcc.item(), "loss_hce": hce.item()}
    return total, parts
