"""Checkpoint container: a single .npz holding every named float64 tensor
plus a JSON metadata block (configs, seed, trainable/no-decay sets, and for
adapted models the PEFT config). Round-trips bit-exactly.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict

import numpy as np

from .encoders import DualEncoder, EncoderConfig
from .peft import AdaptedModel, PeftConfig, assemble_adapted_model

FORMAT_VERSION = 1
_META_KEY = "__meta__"


def _write(model: DualEncoder, kind: str, path, extra=None):
    """Write every tensor plus the metadata block. The archive goes to a
    temporary file first and replaces `path` only once complete, so a failed
    or killed save leaves any previous checkpoint intact."""
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "seed": model.seed,
        "text_cfg": asdict(model.text_cfg),
        "vision_cfg": asdict(model.vision_cfg),
        "trainable": sorted(model.store.trainable),
        "no_decay": sorted(model.store.no_decay),
        **(extra or {}),
    }
    arrays = {name: t.data for name, t in model.store.items()}
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        # a file handle, not a name: np.savez appends ".npz" to names
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_euclidean(model: DualEncoder, path):
    _write(model, "euclidean", path)


def save_adapted(model: AdaptedModel, path):
    _write(model.encoder, "adapted", path, {"peft": asdict(model.peft)})


def _read(path):
    try:
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
    except zipfile.BadZipFile as exc:  # e.g. a truncated file
        raise ValueError(f"{path} is not a readable checkpoint: {exc}") from exc
    if _META_KEY not in arrays:
        raise ValueError(f"{path} is not a hyperlift checkpoint: it has no {_META_KEY!r} entry")
    meta = json.loads(bytes(arrays.pop(_META_KEY)).decode())
    if meta["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {meta['format_version']}")
    return meta, arrays


def _restore_store(model: DualEncoder, meta, arrays):
    store = model.store
    expected = set(store.names())
    saved = set(arrays)
    if expected != saved:
        missing, surplus = expected - saved, saved - expected
        raise ValueError(f"checkpoint/architecture mismatch (missing={sorted(missing)[:3]}, "
                         f"surplus={sorted(surplus)[:3]})")
    for name, arr in arrays.items():
        store[name].data = np.asarray(arr, dtype=np.float64)
    trainable = set(meta["trainable"])
    for name in store.names():
        store.set_trainable(name, name in trainable)
    store.no_decay = set(meta["no_decay"])


def _rebuild(path, kind: str):
    """Read a checkpoint of `kind` and a fresh encoder of its architecture."""
    meta, arrays = _read(path)
    if meta["kind"] != kind:
        raise ValueError(f"expected a {kind!r} checkpoint, got {meta['kind']!r}")
    enc = DualEncoder(
        EncoderConfig(**meta["text_cfg"]), EncoderConfig(**meta["vision_cfg"]), seed=meta["seed"]
    )
    return meta, arrays, enc


def load_euclidean(path) -> DualEncoder:
    meta, arrays, model = _rebuild(path, "euclidean")
    _restore_store(model, meta, arrays)
    return model


def load_adapted(path) -> AdaptedModel:
    meta, arrays, enc = _rebuild(path, "adapted")
    peft = PeftConfig(**meta["peft"])
    # Rebuilding through the assembler recreates the exact parameter name set
    # (adaptation tensors, manifold scalars, temperature); arrays overwrite it.
    model = assemble_adapted_model(enc, peft, seed=meta["seed"])
    _restore_store(enc, meta, arrays)
    return model
