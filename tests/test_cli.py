"""End-to-end CLI tests: the full pipeline on tiny settings, exit codes, and
config validation."""

import json

import numpy as np
import pytest

from hyperlift.autograd import no_grad
from hyperlift.checkpoint import load_adapted, load_euclidean
from hyperlift.cli import main
from hyperlift.config import ConfigError, load_run_config, run_config_from_dict
from hyperlift.data import Tokenizer, generate_corpus
from hyperlift.evaluation import geometry_report
from hyperlift.manifold import exterior_angle, half_aperture
from hyperlift.objectives import LossConfig
from hyperlift.training import CorpusBatcher
from reference import n_trainable


def checkpoint_kind(path) -> str:
    with np.load(path) as blob:
        return json.loads(bytes(blob["__meta__"]).decode())["kind"]


TINY_DOC = {
    "seed": 0,
    "data": {"corpus_seed": 0, "n_samples": 48, "glyph_set_size": 8,
             "vqa_seed": 1, "n_vqa": 24},
    "peft": {"method": "lora", "text_layers": [2, 3], "vision_layers": [2, 3],
             "lora_rank": 4, "lora_alpha": 4},
    "pretrain": {"steps": 4, "batch_size": 4, "warmup_steps": 1, "log_every": 1},
    "adapt": {"steps": 4, "batch_size": 4, "warmup_steps": 1, "log_every": 1},
    "loss": {"lambda_entail": 0.1},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(TINY_DOC))
    return str(path)


class TestRunConfig:
    def test_defaults_from_empty_document(self):
        cfg = run_config_from_dict({})
        assert cfg.seed == 0
        assert cfg.pretrain.steps == 2000

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            run_config_from_dict({"sedd": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="pretrain"):
            run_config_from_dict({"pretrain": {"step": 5}})

    @pytest.mark.parametrize("doc, section", [
        ({"peft": {"method": "nope"}}, "peft"),
        ({"pretrain": {"log_every": 0}}, "pretrain"),
        ({"text_encoder": {"n_heads": 0}}, "text_encoder"),
        ({"text_encoder": {"d_model": 0}}, "text_encoder"),
        ({"text_encoder": {"n_layers": -1}}, "text_encoder"),
        ({"vision_encoder": {"image_size": 15}}, "vision_encoder"),
        ({"vision_encoder": {"patch_grid": [5, 5]}}, "vision_encoder"),
        ({"vision_encoder": {"image_size": 32}}, "vision_encoder"),
        ({"pretrain": {"base_lr": -1}}, "pretrain"),
        ({"data": {"glyph_set_size": 3}}, "data"),
        ({"data": {"glyph_set_size": 17}}, "data"),
        ({"data": {"n_samples": 0}}, "data"),
        ({"data": {"n_vqa": 0}}, "data"),
        ({"seed": "abc"}, "seed"),
        ({"init_kappa": "one"}, "init_kappa"),
        ([], "object"),
        ({"pretrain": {"steps": -5}}, "pretrain"),
        ({"adapt": {"steps": 10, "warmup_steps": -1}}, "adapt"),
        ({"adapt": {"neftune_alpha": -0.1}}, "adapt"),
        ({"pretrain": {"neftune_alpha": 0.1}}, "pretrain"),
        ({"loss": {"neftune_alpha": -0.1}}, "loss"),
        ({"text_encoder": {"vocab_size": 16}}, "text_encoder"),
        ({"text_encoder": {"mlp_ratio": 0.001}}, "text_encoder"),
        ({"text_encoder": {"max_len": 4}}, "text_encoder"),
        ({"data": {"n_samples": 8}, "pretrain": {"steps": 3, "batch_size": 16, "warmup_steps": 1}},
         "pretrain"),
        ({"data": {"n_samples": 8}, "pretrain": {"steps": 0},
          "adapt": {"steps": 3, "batch_size": 16, "warmup_steps": 1}}, "adapt"),
        ({"loss": []}, "loss"),
        ({"loss": {"tau_min": 0.05}}, "loss"),
        ({"loss": {"tau_min": 5.0}}, "loss"),
        ({"loss": {"tau_min": -3}}, "loss"),
        ({"loss": {"cone_k": 0}}, "loss"),
        ({"loss": {"cone_k": "abc"}}, "loss"),
        ({"loss": {"entailment_pairs": 5}}, "loss"),
        ({"loss": {"entailment_pairs": [["text", "bogus"]]}}, "loss"),
        ({"loss": {"entailment_pairs": []}}, "loss"),
        ({"loss": {"entailment_pairs": [["text_box", "text", "image"]]}}, "loss"),
        ({"peft": {"text_layers": [0, 0]}}, "peft"),
        ({"peft": {"text_layers": "01"}}, "peft"),
        ({"peft": {"text_layers": [0.5]}}, "peft"),
        ({"peft": {"vision_layers": [True]}}, "peft"),
        ({"peft": {"lora_rank": 2.5}}, "peft"),
        ({"peft": {"bottleneck_dim": True}}, "peft"),
        ({"peft": {"lora_alpha": -8}}, "peft"),
        ({"peft": {"lora_targets": "qv"}}, "peft"),
        ({"peft": {"rank_stabilized": "no"}}, "peft"),
        ({"adapt": {"betas": 5}}, "adapt"),
        ({"adapt": {"betas": [0.9]}}, "adapt"),
        ({"adapt": {"betas": [0.9, 1.0]}}, "adapt"),
        ({"adapt": {"weight_decay": -0.1}}, "adapt"),
        ({"pretrain": {"grad_clip": -1}}, "pretrain"),
        ({"loss": {"lambda_entail": float("nan")}}, "loss"),
        ({"adapt": {"grad_clip": float("nan")}}, "adapt"),
        ({"adapt": {"weight_decay": float("nan")}}, "adapt"),
        ({"pretrain": {"base_lr": float("inf")}}, "pretrain"),
        ({"init_kappa": float("-inf")}, "init_kappa"),
        ({"init_kappa": 0}, "init_kappa"),
        ({"init_kappa": -2}, "init_kappa"),
        ({"adapt": {"betas": [False, 0.9]}}, "adapt"),
    ], ids=["peft-method", "pretrain-log_every", "text_encoder-n_heads", "text_encoder-d_model",
            "text_encoder-n_layers", "vision_encoder-image_size", "vision_encoder-patch_grid",
            "vision_encoder-image_size_not_corpus", "pretrain-base_lr", "data-glyph_set_size_small",
            "data-glyph_set_size_large", "data-n_samples", "data-n_vqa", "seed-not_a_number",
            "init_kappa-not_a_number", "document-not_an_object", "pretrain-steps_negative",
            "adapt-warmup_steps_negative", "adapt-neftune_alpha_negative",
            "pretrain-neftune_alpha", "loss-neftune_alpha_negative",
            "text_encoder-vocab_size_below_tokenizer", "text_encoder-mlp_dim_zero",
            "text_encoder-max_len_below_caption",
            "pretrain-batch_size_above_n_samples", "adapt-batch_size_above_n_samples",
            "loss-not_an_object", "loss-tau_min", "loss-tau_min_large", "loss-tau_min_negative",
            "loss-cone_k_zero", "loss-cone_k_not_a_number", "loss-pairs_not_a_list",
            "loss-pairs_unknown_name", "loss-pairs_empty", "loss-pairs_three_names",
            "peft-layers_repeated", "peft-layers_string", "peft-layers_float", "peft-layers_bool",
            "peft-lora_rank_float", "peft-bottleneck_dim_bool", "peft-lora_alpha_negative",
            "peft-lora_targets_string", "peft-rank_stabilized_string",
            "adapt-betas_not_a_list", "adapt-betas_one", "adapt-betas_at_one",
            "adapt-weight_decay_negative", "pretrain-grad_clip_negative", "loss-lambda_entail_nan",
            "adapt-grad_clip_nan", "adapt-weight_decay_nan", "pretrain-base_lr_inf",
            "init_kappa-negative_inf", "init_kappa-zero", "init_kappa-negative",
            "adapt-betas_bool"])
    def test_invalid_value_surfaces_section(self, doc, section):
        with pytest.raises(ConfigError, match=section):
            run_config_from_dict(doc)

    def test_zero_steps_is_valid_whatever_the_batch_size(self):
        cfg = run_config_from_dict({"data": {"n_samples": 8},
                                    "pretrain": {"steps": 0, "warmup_steps": 0},
                                    "adapt": {"steps": 0, "batch_size": 16}})
        assert cfg.pretrain.steps == cfg.adapt.steps == 0

    def test_proj_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="proj_dim"):
            run_config_from_dict({"text_encoder": {"proj_dim": 16},
                                  "vision_encoder": {"proj_dim": 32}})

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "nope.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)

    def test_float_settings_take_ints(self):
        cfg = run_config_from_dict({"init_kappa": 2, "loss": {"lambda_entail": 1},
                                    "peft": {"lora_alpha": 4.5}})
        assert (cfg.init_kappa, cfg.loss.lambda_entail, cfg.peft.lora_alpha) == (2.0, 1, 4.5)

    def test_cone_k_and_pairs_are_parsed(self):
        cfg = run_config_from_dict({"loss": {"cone_k": 0.2,
                                             "entailment_pairs": [["text", "image"]]}})
        assert cfg.loss.cone_k == 0.2
        assert cfg.loss.entailment_pairs == (("text", "image"),)


class TestExitCodes:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["gen-data", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_value_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"peft": {"method": "nope"}}))
        assert main(["pretrain", "--config", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("doc", [
        [], {"seed": "abc"}, {"data": {"glyph_set_size": 3}}, {"data": {"n_samples": 0}},
        {"pretrain": {"steps": 2.5, "warmup_steps": 0}}, {"data": {"n_samples": 8.5}},
        {"text_encoder": {"n_layers": 2.5}}, {"pretrain": {"batch_size": 4.0}}, {"seed": 1.7},
        {"seed": True}, {"init_kappa": True}, {"loss": {"lambda_entail": True}},
        {"vision_encoder": {"patch_grid": [4.0, 4.0]}}, {"text_encoder": {"mlp_ratio": 0.001}},
        {"text_encoder": {"max_len": 4}}, {"init_kappa": 0}, {"init_kappa": -2},
    ], ids=["list", "seed", "glyph_set_size", "n_samples", "steps_float", "n_samples_float",
            "n_layers_float", "batch_size_float", "seed_float", "seed_bool", "init_kappa_bool",
            "lambda_entail_bool", "patch_grid_float", "mlp_dim_zero", "max_len_below_caption",
            "init_kappa_zero", "init_kappa_negative"])
    def test_malformed_config_exits_2_before_writing(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_batch_larger_than_corpus_exits_2_before_writing(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"data": {"n_samples": 8},
                                    "pretrain": {"steps": 3, "batch_size": 16, "warmup_steps": 1}}))
        assert main(["pretrain", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "n_samples" in capsys.readouterr().err
        assert not (tmp_path / "pretrain_metrics.jsonl").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("pretrain", ["--steps", "-5"], "section 'pretrain': steps"),
        ("pretrain", ["--steps", "3"], "section 'pretrain': warmup_steps must be < steps"),
        ("pretrain", ["--steps", "300"], "section 'pretrain': batch_size 16 exceeds"),
        ("adapt", ["--steps", "-5"], "section 'adapt': steps"),
        ("adapt", ["--steps", "3"], "section 'adapt': warmup_steps must be < steps"),
        ("adapt", ["--lambda", "-1"], "section 'loss': lambda_entail must be non-negative"),
        ("adapt", ["--lambda", "nan"], "section 'loss': lambda_entail must be a finite number"),
    ], ids=["pretrain-steps_negative", "pretrain-steps_below_warmup",
            "pretrain-steps_with_batch_above_n_samples", "adapt-steps_negative",
            "adapt-steps_below_warmup", "adapt-lambda_negative", "adapt-lambda_nan"])
    def test_override_flag_is_validated_before_writing(self, tmp_path, capsys, command, flags,
                                                       message):
        # warmup_steps keeps its default 200, so a 3-step override must fail;
        # a steps: 0 section may hold any batch size until --steps makes it train
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"data": {"n_samples": 8},
                                    "pretrain": {"steps": 0, "batch_size": 16},
                                    "adapt": {"steps": 0, "batch_size": 16}}))
        out = tmp_path / "out"
        argv = [command, "--config", str(path), "--out", str(out), *flags]
        if command == "adapt":
            argv += ["--checkpoint", str(tmp_path / "euclidean.npz")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("arch", [[], {"text": {"n_layers": 2}}], ids=["list", "no-vision"])
    def test_count_params_bad_arch_document_exits_2(self, tmp_path, capsys, arch):
        (tmp_path / "arch.json").write_text(json.dumps(arch))
        (tmp_path / "peft.json").write_text(json.dumps({"method": "bias"}))
        assert main(["count-params", "--arch", str(tmp_path / "arch.json"),
                     "--peft", str(tmp_path / "peft.json")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value", [
        ("loss", {"entailment_pairs": [["text", "bogus"]]}),
        ("peft", {"method": "lora", "text_layers": [0.5]}),
        ("adapt", {"steps": 4, "batch_size": 4, "warmup_steps": 1, "betas": 5}),
    ], ids=["loss", "peft", "adapt"])
    def test_bad_section_exits_2_before_writing(self, tmp_path, capsys, section, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY_DOC, section: value}))
        out = tmp_path / "out"
        assert main(["adapt", "--config", str(path), "--checkpoint", str(tmp_path / "nope.npz"),
                     "--out", str(out)]) == 2
        assert f"section {section!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("peft", [{}, {"method": "lora", "text_layers": [7]}],
                             ids=["missing_checkpoint", "layer_out_of_range"])
    def test_adapt_config_error_writes_no_output_dir(self, tmp_path, peft):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY_DOC, "peft": peft}))
        ckpt = tmp_path / "euclidean.npz"
        if peft:
            assert main(["pretrain", "--config", str(path), "--out", str(tmp_path),
                         "--steps", "0"]) == 0
        out = tmp_path / "out"
        assert main(["adapt", "--config", str(path), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_checkpoint_exits_2(self, config_path, tmp_path):
        assert main(["adapt", "--config", config_path,
                     "--checkpoint", str(tmp_path / "nope.npz"),
                     "--out", str(tmp_path)]) == 2

    def test_wrong_checkpoint_kind_exits_3(self, config_path, tmp_path, capsys):
        assert main(["pretrain", "--config", config_path, "--out", str(tmp_path),
                     "--steps", "0"]) == 0
        # eval expects an adapted checkpoint
        vqa = tmp_path / "vqa.jsonl"
        assert main(["gen-data", "--config", config_path, "--out", str(tmp_path)]) == 0
        assert main(["eval", "--checkpoint", str(tmp_path / "euclidean.npz"),
                     "--vqa", str(tmp_path / "vqa.jsonl"),
                     "--report", str(tmp_path / "rep.json")]) == 3

    @pytest.mark.parametrize("command", ["eval", "adapt"])
    def test_npz_that_is_not_a_checkpoint_exits_3(self, config_path, tmp_path, capsys, command):
        path = tmp_path / "other.npz"
        np.savez(path, weights=np.zeros(3))
        out = tmp_path / "out"
        argv = {"eval": ["--vqa", str(tmp_path / "vqa.jsonl"), "--report", str(out / "rep.json")],
                "adapt": ["--config", config_path, "--out", str(out)]}[command]
        assert main([command, "--checkpoint", str(path), *argv]) == 3
        assert "not a hyperlift checkpoint" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("meta", [
        {}, {"format_version": 1},
        {"format_version": 1, "kind": "adapted", "seed": 0, "text_cfg": {"bogus": 1},
         "vision_cfg": {}, "peft": {}},
        [1],
    ], ids=["empty", "no_kind", "unknown_text_cfg_key", "list"])
    def test_malformed_checkpoint_metadata_exits_3(self, tmp_path, capsys, meta):
        path = tmp_path / "bad.npz"
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        report = tmp_path / "rep.json"
        assert main(["eval", "--checkpoint", str(path), "--vqa", str(tmp_path / "vqa.jsonl"),
                     "--report", str(report)]) == 3
        assert f"{path} has malformed '__meta__' metadata" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("command", ["eval", "adapt"])
    def test_truncated_checkpoint_exits_3(self, config_path, tmp_path, capsys, command):
        assert main(["pretrain", "--config", config_path, "--out", str(tmp_path),
                     "--steps", "0"]) == 0
        path = tmp_path / "truncated.npz"
        path.write_bytes((tmp_path / "euclidean.npz").read_bytes()[:20000])
        out = tmp_path / "out"
        argv = {"eval": ["--vqa", str(tmp_path / "vqa.jsonl"), "--report", str(out / "rep.json")],
                "adapt": ["--config", config_path, "--out", str(out)]}[command]
        assert main([command, "--checkpoint", str(path), *argv]) == 3
        assert f"{path} is not a readable checkpoint" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        (lambda rec: rec.pop("image"), "line 2: missing key 'image'"),
        (lambda rec: rec.update(v=2), "line 2: schema version 2"),
    ], ids=["missing_key", "unknown_version"])
    def test_malformed_vqa_record_exits_3(self, config_path, tmp_path, capsys, change, message):
        assert main(["gen-data", "--config", config_path, "--out", str(tmp_path)]) == 0
        assert main(["pretrain", "--config", config_path, "--out", str(tmp_path),
                     "--steps", "0"]) == 0
        assert main(["adapt", "--config", config_path, "--out", str(tmp_path), "--steps", "0",
                     "--checkpoint", str(tmp_path / "euclidean.npz")]) == 0
        vqa = tmp_path / "vqa.jsonl"
        records = [json.loads(line) for line in vqa.read_text().splitlines()]
        change(records[1])
        vqa.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert main(["eval", "--checkpoint", str(tmp_path / "adapted.npz"), "--vqa", str(vqa),
                     "--report", str(tmp_path / "rep.json")]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()


class TestPipeline:
    def test_full_pipeline(self, config_path, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["gen-data", "--config", config_path, "--out", out]) == 0
        assert (tmp_path / "corpus.jsonl").exists()
        assert (tmp_path / "vqa.jsonl").exists()

        assert main(["pretrain", "--config", config_path, "--out", out]) == 0
        assert checkpoint_kind(tmp_path / "euclidean.npz") == "euclidean"
        assert (tmp_path / "pretrain_metrics.jsonl").exists()

        assert main(["adapt", "--config", config_path,
                     "--checkpoint", str(tmp_path / "euclidean.npz"),
                     "--out", out, "--method", "seq_adapter"]) == 0
        model = load_adapted(tmp_path / "adapted.npz")
        assert model.peft.method == "seq_adapter"
        assert (tmp_path / "adapt_metrics.jsonl").exists()

        assert main(["eval", "--checkpoint", str(tmp_path / "adapted.npz"),
                     "--vqa", str(tmp_path / "vqa.jsonl"),
                     "--report", str(tmp_path / "report.json"), "--per-item"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert len(report["per_item"]) == 24

        assert main(["geometry", "--config", config_path,
                     "--checkpoint", str(tmp_path / "adapted.npz"),
                     "--report", str(tmp_path / "geometry.json")]) == 0
        geo = json.loads((tmp_path / "geometry.json").read_text())
        assert set(geo["radius"]) == {"image", "text", "image_box", "text_box"}

    @staticmethod
    def geometry_of_untrained_run(tmp_path, loss):
        """`hyperlift geometry` on a run config with this `loss` section and an
        untrained adapted model; returns the report, the corpus and the model."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY_DOC, "loss": loss}))
        out = str(tmp_path)
        assert main(["pretrain", "--config", str(path), "--out", out, "--steps", "0"]) == 0
        assert main(["adapt", "--config", str(path), "--checkpoint", str(tmp_path / "euclidean.npz"),
                     "--out", out, "--steps", "0"]) == 0
        assert main(["geometry", "--config", str(path), "--checkpoint", str(tmp_path / "adapted.npz"),
                     "--report", str(tmp_path / "geometry.json")]) == 0
        corpus = generate_corpus(0, TINY_DOC["data"]["n_samples"], TINY_DOC["data"]["glyph_set_size"])
        return (json.loads((tmp_path / "geometry.json").read_text()), corpus,
                load_adapted(tmp_path / "adapted.npz"))

    # On this untrained model 0.5 gives the same containment rate as the
    # default 0.1, and 0.02 a different one, so 0.02 shows a cone_k ignored.
    @pytest.mark.parametrize("cone_k", [0.5, 0.02])
    def test_geometry_uses_the_run_cone_k(self, tmp_path, cone_k):
        geo, corpus, model = self.geometry_of_untrained_run(tmp_path, {"cone_k": cone_k})
        expected = geometry_report(corpus, model, loss=LossConfig(cone_k=cone_k))
        assert geo["containment_rate"] == expected["containment_rate"]

    def test_geometry_scores_only_the_run_entailment_pairs(self, tmp_path):
        geo, corpus, model = self.geometry_of_untrained_run(
            tmp_path, {"entailment_pairs": [["text", "image"]]})
        # text -> image pairs each scene's caption with its own image only
        with no_grad():
            batcher = CorpusBatcher(corpus, Tokenizer(model.encoder.text_cfg.max_len), seed=0)
            emb = model.embed_batch(batcher.gather(np.arange(len(corpus))))
            kappa = model.manifold.kappa
            inside = (exterior_angle(emb.text, emb.image, kappa).data
                      <= half_aperture(emb.text, kappa, LossConfig().cone_k).data)
        assert geo["containment_rate"] == inside.mean()

    def test_pretrain_steps_zero_writes_init_checkpoint(self, config_path, tmp_path):
        assert main(["pretrain", "--config", config_path, "--out", str(tmp_path),
                     "--steps", "0"]) == 0
        model = load_euclidean(tmp_path / "euclidean.npz")
        assert n_trainable(model.store) > 0

    def test_adapt_lambda_override(self, config_path, tmp_path):
        out = str(tmp_path)
        assert main(["pretrain", "--config", config_path, "--out", out,
                     "--steps", "0"]) == 0
        assert main(["adapt", "--config", config_path,
                     "--checkpoint", str(tmp_path / "euclidean.npz"),
                     "--out", out, "--lambda", "0.0", "--steps", "2"]) == 0
        metrics = [json.loads(l) for l in
                   (tmp_path / "adapt_metrics.jsonl").read_text().splitlines()]
        assert all(rec["loss_hce"] == 0.0 for rec in metrics)

    def test_count_params_clip_b_lora(self, tmp_path, capsys):
        arch = {
            "text": {"n_layers": 12, "d_model": 512, "n_heads": 8, "proj_dim": 512,
                     "vocab_size": 49408, "max_len": 77},
            "vision": {"n_layers": 12, "d_model": 768, "n_heads": 12, "proj_dim": 512,
                       "patch_grid": [14, 14], "image_size": 224},
        }
        peft = {"method": "lora", "lora_rank": 128, "lora_alpha": 128,
                "lora_targets": ["q", "k", "v", "o"],
                "text_layers": [4, 5, 6, 7, 8, 9, 10, 11],
                "vision_layers": [8, 9, 10, 11]}
        (tmp_path / "arch.json").write_text(json.dumps(arch))
        (tmp_path / "peft.json").write_text(json.dumps(peft))
        assert main(["count-params", "--arch", str(tmp_path / "arch.json"),
                     "--peft", str(tmp_path / "peft.json")]) == 0
        out = capsys.readouterr().out
        millions = float(out.split("(")[1].split()[0])
        assert abs(millions - 8.0) / 8.0 < 0.05

    def test_determinism_across_reruns(self, config_path, tmp_path):
        # two full pipelines, same seeds: array-identical checkpoints and
        # byte-identical reports
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            out.mkdir()
            assert main(["gen-data", "--config", config_path, "--out", str(out)]) == 0
            assert main(["pretrain", "--config", config_path, "--out", str(out)]) == 0
            assert main(["adapt", "--config", config_path,
                         "--checkpoint", str(out / "euclidean.npz"),
                         "--out", str(out)]) == 0
            assert main(["eval", "--checkpoint", str(out / "adapted.npz"),
                         "--vqa", str(out / "vqa.jsonl"),
                         "--report", str(out / "report.json")]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "corpus.jsonl").read_bytes() == (b / "corpus.jsonl").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        ma, mb = load_adapted(a / "adapted.npz"), load_adapted(b / "adapted.npz")
        for name, t in ma.store.items():
            assert np.array_equal(t.data, mb.store[name].data), name
