"""Optimization loop: AdamW with selective weight decay, linear warmup +
cosine decay, deterministic batch sampling, metrics emission, and NaN abort.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import ParamStore
from .data import CompositionalSample, Tokenizer, neftune_noise
from .objectives import LossConfig, symmetric_info_nce, total_loss
from .peft import AdaptedModel


class TrainingDiverged(RuntimeError):
    def __init__(self, step, batch_indices, parts):
        super().__init__(f"non-finite value at step {step}: {parts}")
        self.step = step
        self.batch_indices = list(map(int, batch_indices))
        self.parts = parts


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 64
    base_lr: float = 2.5e-4
    warmup_steps: int = 200
    weight_decay: float = 0.2
    betas: tuple = (0.9, 0.98)
    grad_clip: float = 1.0
    seed: int = 0
    log_every: int = 50

    def __post_init__(self):
        if min(self.steps, self.warmup_steps) < 0:
            raise ValueError("steps and warmup_steps must be >= 0")
        if self.steps > 0 and self.warmup_steps >= self.steps:
            raise ValueError("warmup_steps must be < steps")
        if min(self.base_lr, self.weight_decay, self.grad_clip) < 0:
            raise ValueError("base_lr, weight_decay and grad_clip must be >= 0")
        if not (isinstance(self.betas, (list, tuple)) and len(self.betas) == 2
                and all(type(b) in (int, float) and 0 <= b < 1 for b in self.betas)):
            raise ValueError(f"betas must be two numbers in [0, 1), got {self.betas!r}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> base_lr over warmup, then cosine decay to 0 at the
    final step."""
    if step < 0 or step > cfg.steps:
        raise ValueError(f"step {step} outside [0, {cfg.steps}]")
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    span = max(1, cfg.steps - cfg.warmup_steps)
    progress = (step - cfg.warmup_steps) / span
    return cfg.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled weight decay; decay skipped for parameters flagged no_decay
    (gains, biases, learnable scalars)."""

    def __init__(self, store: ParamStore, cfg: TrainConfig):
        self.store = store
        self.cfg = cfg
        self.t = 0
        # sorted: set iteration order varies with the per-process hash seed,
        # and the non-associative gradient-norm sum must not depend on it
        self.names = sorted(store.trainable)
        self.m = {n: np.zeros_like(store[n].data) for n in self.names}
        self.v = {n: np.zeros_like(store[n].data) for n in self.names}

    def clip_gradients(self):
        gsq = 0.0
        for name in self.names:
            g = self.store[name].grad
            if g is not None:
                gsq += float((g * g).sum())
        norm = math.sqrt(gsq)
        if self.cfg.grad_clip > 0 and norm > self.cfg.grad_clip:
            scale = self.cfg.grad_clip / norm
            for name in self.names:
                if self.store[name].grad is not None:
                    self.store[name].grad = self.store[name].grad * scale
        return norm

    def step(self, lr: float):
        b1, b2 = self.cfg.betas
        self.t += 1
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name in self.names:
            p = self.store[name]
            if p.grad is None:
                raise RuntimeError(f"trainable parameter {name!r} has no gradient")
            g = p.grad
            # arithmetic on 0-d arrays returns numpy scalars; asarray keeps
            # the 0-d parameters and moments arrays, and copies nothing
            self.m[name] = np.asarray(b1 * self.m[name] + (1 - b1) * g)
            self.v[name] = np.asarray(b2 * self.v[name] + (1 - b2) * g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            update = m_hat / (np.sqrt(v_hat) + 1e-8)
            if name not in self.store.no_decay and self.cfg.weight_decay > 0:
                update = update + self.cfg.weight_decay * p.data
            p.data = np.asarray(p.data - lr * update)


class MetricsLog:
    """Line-delimited JSON metrics, optionally mirrored to a file."""

    def __init__(self, path=None):
        self.path = path
        self.records = []
        if path is not None:
            open(path, "w").close()

    def emit(self, record: dict):
        self.records.append(record)
        if self.path is not None:
            with open(self.path, "a") as fh:
                fh.write(json.dumps(record) + "\n")


class CorpusBatcher:
    """Pre-tokenized corpus views with deterministic batch sampling."""

    def __init__(self, corpus: list[CompositionalSample], tokenizer: Tokenizer, seed: int):
        self.corpus = corpus
        self.tokenizer = tokenizer
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBA7C)))
        self.captions = [tokenizer.encode(s.caption) for s in corpus]
        self.box_captions = [[tokenizer.encode(c) for _, c in s.boxes] for s in corpus]

    def sample_indices(self, batch_size: int) -> np.ndarray:
        return self.rng.choice(len(self.corpus), size=batch_size, replace=False)

    def gather(self, indices):
        """Images, padded captions, and flattened boxes for a batch."""
        images = np.stack([self.corpus[i].image for i in indices])
        tokens, lengths = self.tokenizer.pad_batch([self.captions[i] for i in indices])
        box_images, box_tokens, box_parent = [], [], []
        for pos, i in enumerate(indices):
            for (box_img, _), toks in zip(self.corpus[i].boxes, self.box_captions[i]):
                box_images.append(box_img)
                box_tokens.append(toks)
                box_parent.append(pos)
        bt, bl = self.tokenizer.pad_batch(box_tokens)
        return {
            "images": images,
            "tokens": tokens,
            "lengths": lengths,
            "box_images": np.stack(box_images),
            "box_tokens": bt,
            "box_lengths": bl,
            "box_parent": np.asarray(box_parent, dtype=np.int64),
        }


def _train(corpus, store: ParamStore, cfg: TrainConfig, tokenizer, metrics_path,
           loss_fn, log_fields=dict) -> MetricsLog:
    """The loop both trainers share. Per step: sample, gather, zero-grad,
    `loss_fn(batch) -> (loss, parts)`, divergence check, backward, clip,
    step, then one metrics record of `parts`, step, lr and `log_fields()`.
    A non-finite loss or gradient norm raises before the update."""
    if not corpus:
        raise ValueError("corpus must be nonempty")
    batcher = CorpusBatcher(corpus, tokenizer, cfg.seed)
    optimizer = AdamW(store, cfg)
    metrics = MetricsLog(metrics_path)
    for step in range(cfg.steps):
        batch_idx = batcher.sample_indices(cfg.batch_size)
        batch = batcher.gather(batch_idx)
        store.zero_grads()
        loss, parts = loss_fn(batch)
        if not np.isfinite(loss.item()):
            raise TrainingDiverged(step, batch_idx, parts)
        loss.backward()
        grad_norm = optimizer.clip_gradients()
        if not math.isfinite(grad_norm):
            raise TrainingDiverged(step, batch_idx, {"grad_norm": grad_norm})
        optimizer.step(lr_schedule(step + 1, cfg))
        if step % cfg.log_every == 0 or step == cfg.steps - 1:
            parts.update(step=step, lr=lr_schedule(step + 1, cfg), **log_fields())
            metrics.emit(parts)
    return metrics


def pretrain_euclidean(corpus, model, cfg: TrainConfig, metrics_path=None) -> MetricsLog:
    """Train the Euclidean dual encoder with symmetric cosine-similarity
    contrastive loss; its checkpoint becomes the frozen adaptation backbone."""
    def loss_fn(batch):
        v_img = model.encode_image(batch["images"])
        v_txt = model.encode_text(batch["tokens"], batch["lengths"])
        v_img = v_img / ag.l2_norm(v_img, axis=-1, keepdims=True)
        v_txt = v_txt / ag.l2_norm(v_txt, axis=-1, keepdims=True)
        loss = symmetric_info_nce((v_img @ ag.transpose(v_txt, (1, 0))) * model.logit_scale())
        return loss, {"loss": loss.item()}

    return _train(corpus, model.store, cfg, Tokenizer(model.text_cfg.max_len), metrics_path, loss_fn)


def adapt(corpus, model: AdaptedModel, cfg: TrainConfig, loss_cfg: LossConfig,
          metrics_path=None) -> MetricsLog:
    """Hyperbolic adaptation: compositional contrastive + entailment hinge on
    the PEFT-wrapped model, with NEFTune noise of `loss_cfg.neftune_alpha` on
    the text embeddings. Frozen tensors are never updated."""
    noise_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x0E11)))

    def noise(x):
        return neftune_noise(x, loss_cfg.neftune_alpha, noise_rng)

    def loss_fn(batch):
        emb = model.embed_batch(batch, noise=noise)
        return total_loss(emb, model.tau, model.manifold.kappa, loss_cfg)

    def log_fields():
        return {
            "kappa": model.manifold.kappa.item(),
            "tau": model.tau.item(),
            "alpha_img": model.manifold.alpha("image").item(),
            "alpha_txt": model.manifold.alpha("text").item(),
        }

    return _train(corpus, model.store, cfg, Tokenizer(model.encoder.text_cfg.max_len), metrics_path,
                  loss_fn, log_fields)
