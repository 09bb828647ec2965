"""Run configuration: one JSON document validated into typed sub-configs.
Unknown keys are rejected so a typo cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields

from .data import GLYPH_NAMES, IMAGE_SIZE, MAX_CAPTION_TOKENS, VOCAB
from .encoders import EncoderConfig
from .objectives import LossConfig
from .peft import ConfigError, PeftConfig
from .training import TrainConfig


@dataclass
class DataConfig:
    corpus_seed: int = 0
    n_samples: int = 4000
    glyph_set_size: int = 8
    vqa_seed: int = 1
    n_vqa: int = 2000

    def __post_init__(self):
        if not 4 <= self.glyph_set_size <= len(GLYPH_NAMES):
            raise ValueError(f"glyph_set_size must be in [4, {len(GLYPH_NAMES)}]")
        if self.n_samples < 1 or self.n_vqa < 1:
            raise ValueError("n_samples and n_vqa must be >= 1")


@dataclass
class RunConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    text_encoder: EncoderConfig = field(default_factory=EncoderConfig)
    vision_encoder: EncoderConfig = field(default_factory=EncoderConfig)
    peft: PeftConfig = field(default_factory=PeftConfig)
    pretrain: TrainConfig = field(default_factory=TrainConfig)
    adapt: TrainConfig = field(default_factory=TrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    init_kappa: float = 1.0


def _check_types(cls, d: dict):
    """Raise a ConfigError for a value of `d` that its field's declared type
    rules out: an `int` field takes only an int (not 2.0 or true), and a
    `float` field a finite int or float (not true, NaN or infinity)."""
    hints = typing.get_type_hints(cls)
    for key, value in d.items():
        kind = hints.get(key)
        if kind is int and type(value) is not int:
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if kind is float and (type(value) not in (int, float) or not math.isfinite(value)):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")


def build_section(cls, d: dict, path: str):
    """`cls(**d)`, with a bad document or value (see `_check_types`) raised as
    a ConfigError that names the section."""
    if not isinstance(d, dict):
        raise ConfigError(f"section {path!r} must be an object")
    try:
        _check_types(cls, d)
        return cls(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"in section {path!r}: {exc}") from None


_SECTIONS = {f.name for f in fields(RunConfig)}


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("a run config must be a JSON object")
    unknown = set(doc) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    _check_types(RunConfig, doc)  # the sections are objects, checked as they are built
    # every field with a default_factory is a section, built by its class
    sections = {f.name: build_section(f.default_factory, doc.get(f.name, {}), f.name)
                for f in fields(RunConfig) if f.default_factory is not MISSING}
    cfg = RunConfig(**{**doc, **sections})
    if cfg.init_kappa <= 0:
        raise ConfigError(f"init_kappa must be positive, got {cfg.init_kappa!r}")
    for name in ("pretrain", "adapt"):
        train = getattr(cfg, name)
        if train.steps > 0 and train.batch_size > cfg.data.n_samples:
            raise ConfigError(f"in section {name!r}: batch_size {train.batch_size} exceeds "
                              f"data.n_samples {cfg.data.n_samples}")
    if cfg.text_encoder.vocab_size < len(VOCAB):
        raise ConfigError(f"in section 'text_encoder': vocab_size {cfg.text_encoder.vocab_size} "
                          f"is below the tokenizer's {len(VOCAB)} words")
    if cfg.text_encoder.max_len < MAX_CAPTION_TOKENS:
        raise ConfigError(f"in section 'text_encoder': max_len {cfg.text_encoder.max_len} "
                          f"is below the longest caption's {MAX_CAPTION_TOKENS} tokens")
    if cfg.text_encoder.proj_dim != cfg.vision_encoder.proj_dim:
        raise ConfigError("text and vision encoders must share proj_dim")
    if cfg.vision_encoder.image_size != IMAGE_SIZE:
        raise ConfigError(f"vision_encoder.image_size must be {IMAGE_SIZE}, the generated image size")
    return cfg


def load_json(path):
    """The JSON document at `path`; a missing file or bad JSON is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """The run config at `path`. Each `(section, key): value` of `overrides`
    whose value is not None (section None for a top-level key) is written
    into the document first, so command-line values meet the same checks."""
    doc = load_json(path)
    if isinstance(doc, dict):
        for (section, key), value in (overrides or {}).items():
            if value is None:
                continue
            target = doc if section is None else doc.setdefault(section, {})
            if isinstance(target, dict):
                target[key] = value
    return run_config_from_dict(doc)
