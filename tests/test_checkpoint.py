"""Checkpoint round-trip tests for both model kinds."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from hyperlift.checkpoint import (
    _write,
    load_adapted,
    load_euclidean,
    save_adapted,
    save_euclidean,
)
from hyperlift.encoders import DualEncoder, EncoderConfig
from hyperlift.peft import PeftConfig, assemble_adapted_model


def checkpoint_kind(path) -> str:
    with np.load(path) as blob:
        return json.loads(bytes(blob["__meta__"]).decode())["kind"]


def euclidean_model(seed=0):
    cfg = EncoderConfig()
    return DualEncoder(cfg, cfg, seed=seed)


def adapted_model(seed=0, method="lora"):
    peft = PeftConfig(method=method, text_layers=(1, 3), vision_layers=(0, 2),
                      lora_rank=4, lora_alpha=8)
    return assemble_adapted_model(euclidean_model(seed), peft, seed=seed,
                                  init_kappa=1.5, tau_init=0.05)


class TestEuclidean:
    def test_roundtrip_bitexact(self, tmp_path):
        model = euclidean_model(seed=3)
        path = tmp_path / "euc.npz"
        save_euclidean(model, path)
        loaded = load_euclidean(path)
        assert set(loaded.store.names()) == set(model.store.names())
        for name, t in model.store.items():
            assert np.array_equal(loaded.store[name].data, t.data), name
        assert loaded.text_cfg == model.text_cfg
        assert loaded.vision_cfg == model.vision_cfg

    def test_kind_dispatch(self, tmp_path):
        path = tmp_path / "euc.npz"
        save_euclidean(euclidean_model(), path)
        assert checkpoint_kind(path) == "euclidean"
        with pytest.raises(ValueError, match="euclidean"):
            load_adapted(path)


class TestAdapted:
    def test_roundtrip_bitexact_with_flags(self, tmp_path):
        model = adapted_model(seed=4)
        # move some state so we don't just test init values
        model.store["loss.log_tau"].data = np.array(-2.5)
        model.store["manifold.log_kappa"].data = np.array(0.4)
        path = tmp_path / "adapted.npz"
        save_adapted(model, path)
        loaded = load_adapted(path)
        assert set(loaded.store.names()) == set(model.store.names())
        for name, t in model.store.items():
            assert np.array_equal(loaded.store[name].data, t.data), name
        assert loaded.store.trainable == model.store.trainable
        assert loaded.store.no_decay == model.store.no_decay
        assert loaded.peft == model.peft
        assert loaded.tau_min == model.tau_min

    def test_loads_a_checkpoint_that_carries_tau_min(self, tmp_path):
        # Older checkpoints wrote the class constant `tau_min`; the key is ignored.
        model = adapted_model(seed=4)
        path = tmp_path / "old.npz"
        _write(model.encoder, "adapted", path, {"peft": asdict(model.peft), "tau_min": 0.01})
        loaded = load_adapted(path)
        assert loaded.tau_min == model.tau_min
        for name, t in model.store.items():
            assert np.array_equal(loaded.store[name].data, t.data), name
        save_adapted(loaded, path)
        with np.load(path) as blob:
            assert "tau_min" not in json.loads(bytes(blob["__meta__"]).decode())

    def test_loads_a_checkpoint_that_carries_the_trainable_sets(self, tmp_path):
        # Older checkpoints wrote the trainable and no-decay sets; loading rebuilds both.
        model = adapted_model(seed=4)
        model.store["manifold.log_kappa"].data = np.array(0.4)
        path = tmp_path / "old.npz"
        _write(model.encoder, "adapted", path, {
            "peft": asdict(model.peft),
            "trainable": sorted(model.store.trainable),
            "no_decay": sorted(model.store.no_decay),
        })
        loaded = load_adapted(path)
        for name, t in model.store.items():
            assert np.array_equal(loaded.store[name].data, t.data), name
        assert loaded.store.trainable == model.store.trainable
        assert loaded.store.no_decay == model.store.no_decay
        save_adapted(loaded, path)
        with np.load(path) as blob:
            meta = json.loads(bytes(blob["__meta__"]).decode())
        assert not {"trainable", "no_decay"} & set(meta)

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = adapted_model(seed=5, method="seq_adapter")
        path = tmp_path / "adapted.npz"
        save_adapted(model, path)
        loaded = load_adapted(path)
        tokens = np.array([[3, 5, 7]])
        from hyperlift.autograd import no_grad
        with no_grad():
            a = model.embed_text(tokens, np.array([3])).data
            b = loaded.embed_text(tokens, np.array([3])).data
        assert np.array_equal(a, b)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "adapted.npz"
        save_adapted(adapted_model(), path)
        assert checkpoint_kind(path) == "adapted"
        with pytest.raises(ValueError, match="adapted"):
            load_euclidean(path)


class TestAtomicSave:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "euc.npz"
        model = euclidean_model(seed=3)
        save_euclidean(model, path)
        real_savez = np.savez

        def interrupted_savez(file, **arrays):
            real_savez(file, **dict(list(arrays.items())[:1]))  # a truncated archive
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", interrupted_savez)
        with pytest.raises(OSError, match="disk full"):
            save_euclidean(euclidean_model(seed=4), path)
        monkeypatch.undo()
        loaded = load_euclidean(path)
        for name, t in model.store.items():
            assert np.array_equal(loaded.store[name].data, t.data), name
        assert [p.name for p in tmp_path.iterdir()] == ["euc.npz"]
