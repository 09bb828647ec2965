"""Checkpoint container: a single .npz holding every named float64 tensor
plus a JSON metadata block (format version, kind, seed, encoder configs, and
for adapted models the PEFT config). Round-trips bit-exactly. The trainable
and no-decay sets are not stored: loading rebuilds the model from the
metadata, which makes the same sets, and then assigns the arrays.
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


def _rebuild(path, kind: str):
    """The arrays of the checkpoint of `kind` at `path`, a fresh encoder of its
    architecture and, for an adapted checkpoint, its PEFT config. Metadata of
    the wrong form (a missing key, a wrong type, an unknown config field) is a
    ValueError that names the file."""
    try:
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
    except zipfile.BadZipFile as exc:  # e.g. a truncated file
        raise ValueError(f"{path} is not a readable checkpoint: {exc}") from exc
    if _META_KEY not in arrays:
        raise ValueError(f"{path} is not a hyperlift checkpoint: it has no {_META_KEY!r} entry")
    meta = json.loads(bytes(arrays.pop(_META_KEY)).decode())
    try:
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {meta['format_version']}")
        if meta["kind"] != kind:
            raise ValueError(f"expected a {kind!r} checkpoint, got {meta['kind']!r}")
        enc = DualEncoder(EncoderConfig(**meta["text_cfg"]), EncoderConfig(**meta["vision_cfg"]),
                          seed=meta["seed"])
        peft = PeftConfig(**meta["peft"]) if kind == "adapted" else None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} has malformed {_META_KEY!r} metadata: "
                         f"{type(exc).__name__}: {exc}") from exc
    return arrays, enc, peft


def _restore_store(model: DualEncoder, arrays):
    store = model.store
    expected = set(store.names())
    saved = set(arrays)
    if expected != saved:
        missing, surplus = expected - saved, saved - expected
        raise ValueError(f"checkpoint/architecture mismatch (missing={sorted(missing)[:3]}, "
                         f"surplus={sorted(surplus)[:3]})")
    for name, arr in arrays.items():
        store[name].data = np.asarray(arr, dtype=np.float64)


def load_euclidean(path) -> DualEncoder:
    arrays, model, _ = _rebuild(path, "euclidean")
    _restore_store(model, arrays)
    return model


def load_adapted(path) -> AdaptedModel:
    arrays, enc, peft = _rebuild(path, "adapted")
    # Rebuilding through the assembler recreates the exact parameter name set
    # (adaptation tensors, manifold scalars, temperature); arrays overwrite it.
    model = assemble_adapted_model(enc, peft, seed=enc.seed)
    _restore_store(enc, arrays)
    return model
