"""Parameter-efficient adaptation of a frozen dual encoder.

Five methods: bias tuning, LayerNorm tuning, sequential adapters, parallel
adapters, and LoRA (optionally rank-stabilized). The assembler freezes the
backbone, re-initializes projection heads and final LayerNorms as fully
trainable, attaches the method's extra parameters on the selected layer
subsets, and adds the learnable manifold scalars plus a log-temperature.

`count_trainable_params` computes the same trainable set analytically from an
architecture description alone, so it also works for full-size symbolic
architectures that are never instantiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import ParamStore, Tensor
from .encoders import DualEncoder, EncoderConfig, block_shapes, trunc_normal
from .manifold import ManifoldParams, lift
from .objectives import BatchEmbeddings

PEFT_METHODS = ("bias", "layernorm", "seq_adapter", "par_adapter", "lora")
# LoRA target -> the block weight it adapts (a key of `block_shapes`)
LORA_SITES = {"q": "attn.wq", "k": "attn.wk", "v": "attn.wv", "o": "attn.wo",
              "fc1": "mlp.fc1_w", "fc2": "mlp.fc2_w"}


class ConfigError(ValueError):
    """An invalid run, PEFT or architecture configuration."""


@dataclass
class PeftConfig:
    method: str = "lora"
    vision_layers: tuple = ()           # block indices adapted in the vision encoder
    text_layers: tuple = ()             # block indices adapted in the text encoder
    bottleneck_dim: int = 16
    lora_rank: int = 8
    lora_alpha: float = 8
    lora_targets: tuple = ("q", "v")
    rank_stabilized: bool = True

    def __post_init__(self):
        if self.method not in PEFT_METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {PEFT_METHODS}")
        for name in ("vision_layers", "text_layers"):
            layers = tuple(getattr(self, name))
            if not all(type(i) is int for i in layers) or len(set(layers)) < len(layers):  # no bools
                raise ConfigError(f"{name} must list distinct int block indices, got {list(layers)}")
            setattr(self, name, tuple(sorted(layers)))
        if not all(type(n) is int and n >= 1 for n in (self.lora_rank, self.bottleneck_dim)):
            raise ConfigError("lora_rank and bottleneck_dim must be ints >= 1")
        if type(self.lora_alpha) not in (int, float) or not self.lora_alpha > 0:  # no bools, no NaN
            raise ConfigError(f"lora_alpha must be a positive number, got {self.lora_alpha!r}")
        if not isinstance(self.rank_stabilized, bool):
            raise ConfigError(f"rank_stabilized must be true or false, got {self.rank_stabilized!r}")
        if not isinstance(self.lora_targets, (list, tuple)):
            raise ConfigError(f"lora_targets must be a list of names, got {self.lora_targets!r}")
        self.lora_targets = tuple(self.lora_targets)
        if self.method == "lora":
            if not self.lora_targets:
                raise ConfigError("lora requires a non-empty target set")
            bad = set(self.lora_targets) - set(LORA_SITES)
            if bad:
                raise ConfigError(f"unknown lora targets {sorted(bad)}")

    def layers_for(self, side: str) -> tuple:
        return self.text_layers if side == "text" else self.vision_layers

    @property
    def lora_scale(self) -> float:
        r = self.lora_rank
        return self.lora_alpha / math.sqrt(r) if self.rank_stabilized else self.lora_alpha / r

    def validate_for(self, text_cfg: EncoderConfig, vision_cfg: EncoderConfig):
        if any(i < 0 or i >= vision_cfg.n_layers for i in self.vision_layers):
            raise ConfigError("vision layer index out of range")
        if any(i < 0 or i >= text_cfg.n_layers for i in self.text_layers):
            raise ConfigError("text layer index out of range")


def last_k_layers(n_layers: int, k: int) -> tuple:
    return tuple(range(max(0, n_layers - k), n_layers))


class Adaptation:
    """Runtime hook wired into the encoder's block forward. It holds the
    encoder's parameter store, not the encoder, so the two form no cycle."""

    def __init__(self, config: PeftConfig, store: ParamStore):
        self.config = config
        self.store = store
        # weight key within its sublayer ("wq", "fc1_w", ...) -> LoRA target
        self._lora_target = ({LORA_SITES[t].split(".")[1]: t for t in config.lora_targets}
                             if config.method == "lora" else {})

    def effective_weight(self, side, layer, key, base: Tensor) -> Tensor:
        cfg = self.config
        target = self._lora_target.get(key)
        if target is None or layer not in cfg.layers_for(side):
            return base
        a = self.store[f"adapt.{side}.block{layer}.lora_{target}.a"]  # (r, d_in)
        b = self.store[f"adapt.{side}.block{layer}.lora_{target}.b"]  # (d_out, r)
        return base + cfg.lora_scale * ag.transpose(b @ a, (1, 0))

    def apply_sublayer(self, side, layer, which, sub_input: Tensor, sub_output: Tensor) -> Tensor:
        cfg = self.config
        if cfg.method not in ("seq_adapter", "par_adapter") or layer not in cfg.layers_for(side):
            return sub_output
        p = f"adapt.{side}.block{layer}.{which}"
        src = sub_output if cfg.method == "seq_adapter" else sub_input
        bottleneck = ag.gelu(ag.linear(src, self.store[f"{p}.down_w"], self.store[f"{p}.down_b"]))
        delta = ag.linear(bottleneck, self.store[f"{p}.up_w"], self.store[f"{p}.up_b"])
        return sub_output + delta


def block_plan(enc_cfg: EncoderConfig, peft: PeftConfig) -> tuple[list, dict]:
    """What the method trains in one selected block: the `block_shapes` keys
    it unfreezes, and the tensors it adds as `{suffix: (shape, init)}` in
    creation order, with init "normal" (truncated) or "zeros".

    Down-projections / LoRA A start truncated-normal; up-projections / LoRA B
    start at zero, so adapted forwards reproduce the frozen forward at init.
    """
    shapes = block_shapes(enc_cfg)
    if peft.method == "bias":
        return [k for k, s in shapes.items() if len(s) == 1 and not k.endswith("gain")], {}
    if peft.method == "layernorm":
        return [k for k in shapes if k.startswith("ln")], {}
    added = {}
    if peft.method == "lora":
        r = peft.lora_rank
        for target in peft.lora_targets:
            d_in, d_out = shapes[LORA_SITES[target]]
            added[f"lora_{target}.a"] = ((r, d_in), "normal")
            added[f"lora_{target}.b"] = ((d_out, r), "zeros")
        return [], added
    d, k = enc_cfg.d_model, peft.bottleneck_dim
    for which in ("attn", "mlp"):  # one adapter per sublayer
        added.update({f"{which}.down_w": ((d, k), "normal"), f"{which}.down_b": ((k,), "zeros"),
                      f"{which}.up_w": ((k, d), "zeros"), f"{which}.up_b": ((d,), "zeros")})
    return [], added


def wrap_blocks(model: DualEncoder, config: PeftConfig, rng: np.random.Generator):
    """Apply `block_plan` to every selected layer: mark the backbone tensors
    the method tunes trainable and create the tensors it adds (1-d ones
    exempt from weight decay)."""
    store = model.store
    for side in ("text", "vision"):
        unfrozen, added = block_plan(model.config_for(side), config)
        for layer in config.layers_for(side):
            for key in unfrozen:
                store.set_trainable(f"{side}.block{layer}.{key}", True)
            for suffix, (shape, init) in added.items():
                data = trunc_normal(rng, shape) if init == "normal" else np.zeros(shape)
                store.add(f"adapt.{side}.block{layer}.{suffix}", data, no_decay=len(shape) == 1)
    model.adaptation = Adaptation(config, store)


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, inverse): `rows[firsts]` are the distinct rows (by bytes) in
    order of first appearance, and `rows[firsts][inverse]` equals `rows`."""
    slots = {}  # row bytes -> its position among the distinct rows
    inverse = np.array([slots.setdefault(row.tobytes(), len(slots)) for row in rows], dtype=np.int64)
    return np.unique(inverse, return_index=True)[1], inverse


class AdaptedModel:
    """A frozen dual encoder wrapped for hyperbolic training: PEFT parameters,
    fresh trainable heads and final LayerNorms, manifold scalars, and a
    learnable contrastive temperature (log-space, floored at `tau_min`)."""

    tau_min = 0.01

    def __init__(self, encoder: DualEncoder, peft: PeftConfig, manifold: ManifoldParams,
                 tau_init: float = 0.07):
        self.encoder = encoder
        self.peft = peft
        self.manifold = manifold
        self.store = encoder.store
        self.log_tau = self.store.add("loss.log_tau", math.log(tau_init), no_decay=True)
        self._memo = {}  # tag -> (the parameter arrays its rows depend on, {row bytes: row})

    @property
    def tau(self) -> Tensor:
        return ag.clamp(ag.exp(self.log_tau), lo=self.tau_min)

    def embed_text(self, tokens, lengths, noise=None) -> Tensor:
        v = self.encoder.encode_text(tokens, lengths, noise=noise)
        return lift(v, "text", self.manifold)

    def embed_image(self, images) -> Tensor:
        return lift(self.encoder.encode_image(images), "image", self.manifold)

    def vision_prefix_depth(self) -> int:
        """How many leading vision blocks hold no trainable tensor (adaptation
        tensors included): all of them when no vision layer trains, none when
        a vision embedding tensor trains. Up to there, the vision forward is
        a constant of each image while the trainable set stays as it is."""
        trainable = self.store.trainable
        if trainable & {"vision.patch_emb", "vision.patch_bias", "vision.pos_emb"}:
            return 0
        n_layers = self.encoder.vision_cfg.n_layers
        return next((layer for layer in range(n_layers) if any(
            name.startswith((f"vision.block{layer}.", f"adapt.vision.block{layer}."))
            for name in trainable)), n_layers)

    def embed_batch(self, batch: dict, noise=None) -> BatchEmbeddings:
        """Lift the four point sets of a `CorpusBatcher.gather` batch. Each
        distinct image (scene or box) is encoded once and gathered back per
        row, so the gather's backward sums the gradients of repeats. `noise`
        (see `DualEncoder.encode_text`) is applied in a fixed order: scene
        captions, then box captions. The frozen vision prefix of each image
        (`vision_prefix_depth` blocks) comes from the memo, and only the
        blocks after it run per call."""
        images = np.concatenate([batch["images"], batch["box_images"]])
        firsts, inverse = distinct_rows(images)
        depth = self.vision_prefix_depth()
        if depth:
            # sizes are checked first, so a wrong-size image cannot match a memo row's bytes
            images = self.encoder.check_images(images[firsts])
            frozen = ("vision.patch_", "vision.pos_emb") + tuple(
                f"{side}vision.block{layer}." for layer in range(depth) for side in ("", "adapt."))
            states = Tensor(self._memoized("vision", frozen, images,
                                           lambda rows: self.encoder.vision_prefix(images[rows], depth)))
            points = lift(self.encoder.encode_image_tail(states, depth), "image", self.manifold)
        else:
            points = self.embed_image(images[firsts])
        n_scenes = len(batch["images"])
        # Text stays one encode per row: NEFTune noise makes equal captions unequal inputs.
        return BatchEmbeddings(
            image=points[inverse[:n_scenes]],
            text=self.embed_text(batch["tokens"], batch["lengths"], noise=noise),
            image_box=points[inverse[n_scenes:]],
            text_box=self.embed_text(batch["box_tokens"], batch["box_lengths"], noise=noise),
            box_parent=batch["box_parent"],
        )

    def text_points(self, tokens, lengths) -> np.ndarray:
        """The lifted points of padded token rows, as an array, with each
        distinct row (its tokens and length) encoded once per model. Rows
        encode independently of their batch, so a memo row has the bits of
        a fresh encode."""
        tokens, lengths = np.asarray(tokens), np.asarray(lengths)
        return self._memoized("text", ("text.", "adapt.text.", "manifold."),
                              np.column_stack([tokens, lengths]),
                              lambda rows: self.embed_text(tokens[rows], lengths[rows]))

    def _memoized(self, tag: str, depends_on: tuple, inputs: np.ndarray, compute) -> np.ndarray:
        """`compute`'s output row for each row of `inputs` (by bytes), stacked;
        `compute(rows)` runs only on the distinct rows missing from the memo
        of `tag`. That memo is valid while every parameter whose name starts
        with `depends_on` holds the same `.data` object: nothing writes into
        one, and the memo keeps them alive, so no id is reused."""
        arrays = tuple(t.data for name, t in self.store.items() if name.startswith(depends_on))
        held, rows = self._memo.get(tag, (None, None))
        if held is None or len(held) != len(arrays) or any(a is not b for a, b in zip(held, arrays)):
            held, rows = self._memo[tag] = (arrays, {})
        keys = [row.tobytes() for row in inputs]
        missing = {}  # distinct row bytes not in the memo -> its first row
        for i, key in enumerate(keys):
            if key not in rows:
                missing.setdefault(key, i)
        if missing:
            with ag.no_grad():
                rows.update(zip(missing, compute(list(missing.values())).data))
        return np.stack([rows[key] for key in keys])


def assemble_adapted_model(encoder: DualEncoder, peft: PeftConfig, seed: int = 0,
                           init_kappa: float = 1.0, tau_init: float = 0.07) -> AdaptedModel:
    """Freeze the backbone, re-initialize heads and final LayerNorms as fully
    trainable, attach adaptation parameters, and add the manifold scalars."""
    peft.validate_for(encoder.text_cfg, encoder.vision_cfg)
    store = encoder.store
    store.freeze_all()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xADA)))
    for side in ("text", "vision"):
        cfg = encoder.config_for(side)
        store[f"{side}.proj"].data = trunc_normal(rng, (cfg.d_model, cfg.proj_dim))
        store[f"{side}.final_ln.gain"].data = np.ones(cfg.d_model)
        store[f"{side}.final_ln.bias"].data = np.zeros(cfg.d_model)
    for name in encoder.head_and_final_ln_names():
        store.set_trainable(name, True)
    wrap_blocks(encoder, peft, rng)
    manifold = ManifoldParams(encoder.text_cfg.proj_dim, init_kappa=init_kappa, store=store)
    return AdaptedModel(encoder, peft, manifold, tau_init=tau_init)


# -- analytic parameter counting ---------------------------------------------


N_SCALARS = 4  # curvature, two projection scalars, contrastive temperature


def count_trainable_params(text_cfg: EncoderConfig, vision_cfg: EncoderConfig,
                           peft: PeftConfig) -> int:
    """Exact analytic size of the trainable set defined by the assembler:
    adaptation parameters on the selected layers, projection heads, final
    LayerNorms, and the learnable scalars."""
    peft.validate_for(text_cfg, vision_cfg)
    total = N_SCALARS
    for cfg, layers in ((text_cfg, peft.text_layers), (vision_cfg, peft.vision_layers)):
        total += cfg.d_model * cfg.proj_dim  # projection head
        total += 2 * cfg.d_model             # final LayerNorm gain + bias
        shapes = block_shapes(cfg)
        unfrozen, added = block_plan(cfg, peft)
        per_block = (sum(math.prod(shapes[k]) for k in unfrozen)
                     + sum(math.prod(shape) for shape, _ in added.values()))
        total += len(layers) * per_block
    return total
