"""Toy dual encoder: a small pre-LN transformer for text and a patch
transformer for images, with final LayerNorm + linear projection heads into a
shared Euclidean space.

Adaptation (LoRA / adapters / bias / LayerNorm tuning) is injected through an
optional `adaptation` hook object so the backbone code stays method-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autograd as ag
from .autograd import ParamStore, Tensor

ATTN_MASK_VALUE = -1e9


@dataclass
class EncoderConfig:
    n_layers: int = 4
    d_model: int = 64
    n_heads: int = 4
    mlp_ratio: float = 4.0
    vocab_size: int = 64          # text
    max_len: int = 32             # text
    patch_grid: tuple = (4, 4)    # vision
    image_size: int = 16          # vision
    proj_dim: int = 32

    def __post_init__(self):
        if min(self.n_layers, self.d_model, self.n_heads) < 1:
            raise ValueError("n_layers, d_model and n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.proj_dim < 2:
            raise ValueError("proj_dim must be >= 2")
        self.patch_grid = tuple(self.patch_grid)
        if min(self.patch_grid) < 1 or any(self.image_size % g for g in self.patch_grid):
            raise ValueError("patch_grid entries must be >= 1 and divide image_size")

    @property
    def mlp_dim(self) -> int:
        return int(self.d_model * self.mlp_ratio)

    @property
    def n_patches(self) -> int:
        return self.patch_grid[0] * self.patch_grid[1]

    @property
    def patch_dim(self) -> int:
        gh, gw = self.patch_grid
        return (self.image_size // gh) * (self.image_size // gw)

    def to_dict(self) -> dict:
        return asdict(self)


def trunc_normal(rng: np.random.Generator, shape, std=0.02) -> np.ndarray:
    """Normal(0, std) truncated to +-2 std, the usual transformer init."""
    return np.clip(rng.standard_normal(shape), -2.0, 2.0) * std


def block_shapes(cfg: EncoderConfig) -> dict[str, tuple]:
    """Every parameter of one transformer block, `<sub>.<key>` -> shape, in
    creation order. Weights are (d_in, d_out) matrices; every 1-d entry is a
    LayerNorm gain or a bias."""
    d, m = cfg.d_model, cfg.mlp_dim
    shapes = {"ln1.gain": (d,), "ln1.bias": (d,)}
    for key in ("q", "k", "v", "o"):
        shapes[f"attn.w{key}"] = (d, d)
        shapes[f"attn.b{key}"] = (d,)
    shapes.update({"ln2.gain": (d,), "ln2.bias": (d,),
                   "mlp.fc1_w": (d, m), "mlp.fc1_b": (m,), "mlp.fc2_w": (m, d), "mlp.fc2_b": (d,)})
    return shapes


class DualEncoder:
    """Frozen-able dual encoder over a shared ParamStore.

    Parameter names follow `<side>.block<i>.<sub>.<key>`; the projection heads
    are `<side>.proj` and final LayerNorms `<side>.final_ln.{gain,bias}`.
    """

    def __init__(self, text_cfg: EncoderConfig, vision_cfg: EncoderConfig, seed: int = 0):
        self.text_cfg = text_cfg
        self.vision_cfg = vision_cfg
        self.seed = seed
        self.store = ParamStore()
        self.adaptation = None  # set by the PEFT assembler
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE0C)))
        self._init_side("text", text_cfg, rng)
        self._init_side("vision", vision_cfg, rng)
        # CLIP-style learnable inverse temperature for Euclidean pretraining.
        self.store.add("logit_scale", math.log(1.0 / 0.07), no_decay=True)

    # -- construction -------------------------------------------------------

    def _init_side(self, side: str, cfg: EncoderConfig, rng):
        add = self.store.add
        if side == "text":
            add("text.tok_emb", trunc_normal(rng, (cfg.vocab_size, cfg.d_model)), no_decay=True)
            add("text.pos_emb", trunc_normal(rng, (cfg.max_len, cfg.d_model)), no_decay=True)
        else:
            add("vision.patch_emb", trunc_normal(rng, (cfg.patch_dim, cfg.d_model)))
            add("vision.patch_bias", np.zeros(cfg.d_model), no_decay=True)
            add("vision.pos_emb", trunc_normal(rng, (cfg.n_patches, cfg.d_model)), no_decay=True)
        d = cfg.d_model
        shapes = block_shapes(cfg)
        for i in range(cfg.n_layers):
            for key, shape in shapes.items():
                if len(shape) > 1:
                    init = trunc_normal(rng, shape)
                else:
                    init = np.ones(shape) if key.endswith("gain") else np.zeros(shape)
                add(f"{side}.block{i}.{key}", init, no_decay=len(shape) == 1)
        add(f"{side}.final_ln.gain", np.ones(d), no_decay=True)
        add(f"{side}.final_ln.bias", np.zeros(d), no_decay=True)
        add(f"{side}.proj", trunc_normal(rng, (d, cfg.proj_dim)))

    def config_for(self, side: str) -> EncoderConfig:
        return self.text_cfg if side == "text" else self.vision_cfg

    # -- forward ------------------------------------------------------------

    def _weight(self, side: str, layer: int, sub: str, key: str) -> Tensor:
        name = f"{side}.block{layer}.{sub}.{key}"
        base = self.store[name]
        if self.adaptation is not None:
            return self.adaptation.effective_weight(side, layer, key, base)
        return base

    def _ln(self, x, side, layer, which) -> Tensor:
        p = f"{side}.block{layer}.{which}"
        return ag.layer_normalize(x, self.store[f"{p}.gain"], self.store[f"{p}.bias"])

    def _attention(self, x, side, layer, mask):
        cfg = self.config_for(side)
        B, L, d = x.shape
        h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads

        def heads(t):
            return ag.transpose(ag.reshape(t, (B, L, h, dh)), (0, 2, 1, 3))

        sb = self.store
        pre = f"{side}.block{layer}.attn"
        q = heads(ag.linear(x, self._weight(side, layer, "attn", "wq"), sb[f"{pre}.bq"]))
        k = heads(ag.linear(x, self._weight(side, layer, "attn", "wk"), sb[f"{pre}.bk"]))
        v = heads(ag.linear(x, self._weight(side, layer, "attn", "wv"), sb[f"{pre}.bv"]))
        scores = (q @ ag.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
        if mask is not None:
            scores = scores + mask
        attn = ag.softmax(scores, axis=-1)
        out = ag.reshape(ag.transpose(attn @ v, (0, 2, 1, 3)), (B, L, d))
        return ag.linear(out, self._weight(side, layer, "attn", "wo"), sb[f"{pre}.bo"])

    def _mlp(self, x, side, layer):
        pre = f"{side}.block{layer}.mlp"
        hidden = ag.gelu(ag.linear(x, self._weight(side, layer, "mlp", "fc1_w"),
                                   self.store[f"{pre}.fc1_b"]))
        return ag.linear(hidden, self._weight(side, layer, "mlp", "fc2_w"), self.store[f"{pre}.fc2_b"])

    def _block(self, x, side, layer, mask):
        ad = self.adaptation
        a_in = self._ln(x, side, layer, "ln1")
        attn_out = self._attention(a_in, side, layer, mask)
        if ad is not None:
            attn_out = ad.apply_sublayer(side, layer, "attn", a_in, attn_out)
        x = x + attn_out
        m_in = self._ln(x, side, layer, "ln2")
        mlp_out = self._mlp(m_in, side, layer)
        if ad is not None:
            mlp_out = ad.apply_sublayer(side, layer, "mlp", m_in, mlp_out)
        return x + mlp_out

    def _head(self, pooled, side) -> Tensor:
        pre = f"{side}.final_ln"
        normed = ag.layer_normalize(pooled, self.store[f"{pre}.gain"], self.store[f"{pre}.bias"])
        return normed @ self.store[f"{side}.proj"]

    def encode_text(self, tokens, lengths=None, noise=None) -> Tensor:
        """Encode padded token batches to (B, proj_dim) Euclidean vectors.

        Pooling takes the representation at the last real token; padding is
        masked out of attention. `lengths` (one per row, each in
        [1, width]) defaults to the count of non-pad tokens. Columns past
        the longest length are dropped down to the next multiple of 8 (at
        least 8) before encoding, so any wider padding costs nothing and
        changes no bit of the result. `noise`, if given, maps the token plus
        position embeddings, (B, L, d_model) at that trimmed width, to their
        training-time input (NEFTune noise in `training.adapt`).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        cfg = self.text_cfg
        if tokens.shape[1] > cfg.max_len:
            raise ValueError(f"sequence length {tokens.shape[1]} exceeds context {cfg.max_len}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ValueError("token id outside vocabulary")
        if lengths is None:
            nonpad = tokens != 0
            if not nonpad.any(axis=1).all():
                raise ValueError("empty token sequence")
            lengths = nonpad.sum(axis=1)
        lengths = np.asarray(lengths, dtype=np.int64)
        B, width = tokens.shape
        if lengths.shape != (B,):
            raise ValueError(f"lengths has shape {lengths.shape}, expected ({B},) for {B} rows")
        if (lengths < 1).any():
            raise ValueError("empty token sequence")
        if (lengths > width).any():
            raise ValueError(f"length {lengths.max()} exceeds the token width {width}")
        # Dropped columns only feed masked keys (softmax weight exactly 0.0)
        # and rows pooling never reads. numpy sums each softmax row in 8
        # lanes, to which they add exact zeros, so a multiple of 8 keeps
        # every bit; trimming to the longest length would not.
        L = min(width, max(8, -(-int(lengths.max()) // 8) * 8))
        tokens = tokens[:, :L]
        x = ag.embedding_lookup(self.store["text.tok_emb"], tokens)
        x = x + self.store["text.pos_emb"][:L]
        if noise is not None:
            x = noise(x)
        key_valid = np.arange(L)[None, :] < lengths[:, None]
        mask = np.where(key_valid, 0.0, ATTN_MASK_VALUE)[:, None, None, :]
        for layer in range(cfg.n_layers):
            x = self._block(x, "text", layer, mask)
        pooled = ag.gather_rows(x, lengths - 1)
        return self._head(pooled, "text")

    def check_images(self, images) -> np.ndarray:
        """`images` as a float64 (B, H, W) array (one (H, W) image becomes
        B=1); images of the wrong size raise ValueError."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim == 2:
            images = images[None, :, :]
        s = self.vision_cfg.image_size
        if images.shape[1:] != (s, s):
            raise ValueError(f"expected images of shape (B, {s}, {s}), got {images.shape}")
        return images

    def vision_prefix(self, images, depth: int) -> Tensor:
        """The patch embedding and vision blocks [0, depth) over (B, H, W)
        image grids: a (B, n_patches, d_model) hidden state."""
        images = self.check_images(images)
        cfg = self.vision_cfg
        gh, gw = cfg.patch_grid
        ph, pw = cfg.image_size // gh, cfg.image_size // gw
        B = images.shape[0]
        patches = (
            images.reshape(B, gh, ph, gw, pw)
            .transpose(0, 1, 3, 2, 4)
            .reshape(B, cfg.n_patches, cfg.patch_dim)
        )
        x = ag.linear(patches, self.store["vision.patch_emb"], self.store["vision.patch_bias"])
        x = x + self.store["vision.pos_emb"]
        for layer in range(depth):
            x = self._block(x, "vision", layer, None)
        return x

    def encode_image_tail(self, x, start: int) -> Tensor:
        """Vision blocks [start, n_layers) over a (B, n_patches, d_model)
        hidden state, then mean pooling and the head: (B, proj_dim)."""
        for layer in range(start, self.vision_cfg.n_layers):
            x = self._block(x, "vision", layer, None)
        return self._head(x.mean(axis=1), "vision")

    def encode_image(self, images) -> Tensor:
        """Encode (B, H, W) image grids to (B, proj_dim) via patch tokens and
        mean pooling."""
        return self.encode_image_tail(self.vision_prefix(images, 0), 0)

    # -- bookkeeping ---------------------------------------------------------

    def logit_scale(self) -> Tensor:
        return ag.exp(self.store["logit_scale"])

    def head_and_final_ln_names(self) -> list[str]:
        return [
            name
            for side in ("text", "vision")
            for name in (f"{side}.proj", f"{side}.final_ln.gain", f"{side}.final_ln.bias")
        ]
