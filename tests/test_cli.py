import json

import numpy as np
import pytest

from audioretrieval.cli import main
from audioretrieval.config import ConfigError, load_config, parse_config


def write_config(tmp_path, **overrides):
    doc = {
        "seed": 0,
        "paths": {"out_dir": str(tmp_path / "out")},
        "data": {"synthetic": {
            "n_classes": 3, "n_train": 18, "n_val": 9, "n_test": 9, "duration": 0.2,
        }},
        "optim": {"epochs": 2, "batch_size": 6},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config({"bogus": 1})

    def test_unknown_nested_key_path(self):
        with pytest.raises(ConfigError, match="optim.warmup"):
            parse_config({"optim": {"warmup": 5}})

    def test_section_value_validation(self):
        with pytest.raises(ConfigError, match="optim"):
            parse_config({"optim": {"batch_size": 1}})

    def test_vocab_size_not_configurable(self):
        with pytest.raises(ConfigError, match="vocab_size"):
            parse_config({"model": {"vocab_size": 50}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.json")

    def test_augmentation_sections_optional(self):
        cfg = parse_config({})
        assert cfg.audio_aug is None and cfg.text_aug is None

    def test_defaults_fill_in(self):
        cfg = parse_config({})
        assert cfg.optim.batch_size == 30
        assert cfg.features.n_mels == 64

    def test_smbo_section_unknown(self):
        # smbo reads --n-init / --n-trials only; a config section would be ignored
        with pytest.raises(ConfigError, match="smbo: unknown key"):
            parse_config({"smbo": {"n_trials": 5}})


class TestTrain:
    def test_invalid_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nonsense": True}))
        assert main(["train", "--config", str(path)]) == 2

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, data=None)
        assert main(["train", "--config", str(path)]) == 2
        assert "paths.dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [
        ("model", "vocab_size"), ("model", "n_mels"), ("optim", "seed"),
    ])
    def test_derived_key_exit_2(self, tmp_path, capsys, section, key):
        path = write_config(tmp_path, **{section: {key: 32}})
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: derived from "):
            load_config(path)
        assert main(["train", "--config", str(path)]) == 2
        assert f"{section}.{key}: derived from" in capsys.readouterr().err

    def test_artifacts_written(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "run_result.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.json").exists()
        doc = json.loads((out / "run_result.json").read_text())
        assert "config_hash" in doc and len(doc["train_losses"]) == 2

    def test_single_clip_train_split_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, data={"synthetic": {
            "n_classes": 3, "n_train": 1, "n_val": 9, "n_test": 9, "duration": 0.2,
        }})
        assert main(["train", "--config", str(path)]) == 2
        assert "train split has 1 clip" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run_result.json").exists()

    def test_rerun_byte_identical_csv(self, tmp_path):
        path = write_config(tmp_path)
        main(["train", "--config", str(path)])
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        main(["train", "--config", str(path)])
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first


class TestEval:
    def test_eval_after_train(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg)])
        ckpt = tmp_path / "out" / "checkpoint.json"
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--split", "test"]) == 0
        out = capsys.readouterr().out
        assert "mAP@10" in out and "test" in out
        assert (tmp_path / "out" / "eval_test.json").exists()

    def test_empty_split_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg)])
        ckpt = tmp_path / "out" / "checkpoint.json"
        empty = write_config(tmp_path, data={"synthetic": {
            "n_classes": 3, "n_train": 18, "n_val": 9, "n_test": 0, "duration": 0.2,
        }})
        assert main(["eval", "--config", str(empty), "--checkpoint", str(ckpt),
                     "--split", "test"]) == 2

    def test_dim_mismatch_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg)])
        ckpt = tmp_path / "out" / "checkpoint.json"
        other = write_config(tmp_path, features={"n_mels": 32})
        assert main(["eval", "--config", str(other), "--checkpoint", str(ckpt)]) == 2
        assert "n_mels" in capsys.readouterr().err

    def test_unreadable_checkpoint_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "missing.json")]) == 2

    def test_train_manifest_order_does_not_matter(self, tmp_path):
        main(["synth-data", "--config", str(write_config(tmp_path)),
              "--out", str(tmp_path / "ds")])
        cfg = write_config(tmp_path, data=None, paths={
            "out_dir": str(tmp_path / "out"),
            **{key: str(tmp_path / "ds" / f"{split}.jsonl") for key, split in
               (("dataset", "train"), ("val_dataset", "val"), ("test_dataset", "test"))},
        })
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "out" / "checkpoint.json"
        sidecar = tmp_path / "out" / "eval_test.json"
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
        before = json.loads(sidecar.read_text())
        manifest = tmp_path / "ds" / "train.jsonl"
        manifest.write_text("".join(reversed(manifest.read_text().splitlines(True))))
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
        assert json.loads(sidecar.read_text()) == before
        manifest.unlink()  # eval reads only the split it scores
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
        assert json.loads(sidecar.read_text()) == before

    def test_val_eval_reproduces_best_val_map(self, tmp_path):
        cfg = write_config(tmp_path, optim={"epochs": 4, "batch_size": 6, "lr0": 1e-2})
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.json"),
                     "--split", "val"]) == 0
        best = json.loads((out / "run_result.json").read_text())["best_val_map"]
        assert json.loads((out / "eval_val.json").read_text())["map10"] == best

    def test_feature_mismatch_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg)])
        ckpt = tmp_path / "out" / "checkpoint.json"
        other = write_config(tmp_path, features={"hop": 160})
        assert main(["eval", "--config", str(other), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "features.hop" in err and "160" in err and "320" in err

    def test_version_1_checkpoint_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg)])
        ckpt = tmp_path / "out" / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        v1 = {"dims": doc["dims"], "arrays": doc["arrays"], "version": 1}
        ckpt.write_text(json.dumps(v1))
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        assert "retrain" in capsys.readouterr().err


class TestSmbo:
    def test_zero_trials_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["smbo", "--config", str(cfg), "--n-trials", "0"]) == 2

    def test_toy_objective(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["smbo", "--config", str(cfg), "--objective", "synthetic-quadratic",
                     "--n-init", "10", "--n-trials", "40"]) == 0
        out = capsys.readouterr().out
        assert "parameter" in out and "best" in out
        trials = (tmp_path / "out" / "trials.jsonl").read_text().splitlines()
        assert len(trials) == 40

    def test_toy_objective_near_optimum(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["smbo", "--config", str(cfg), "--objective", "synthetic-quadratic",
              "--n-init", "10", "--n-trials", "60"])
        best = None
        for line in (tmp_path / "out" / "trials.jsonl").read_text().splitlines():
            rec = json.loads(line)
            if best is None or rec["objective"] > best["objective"]:
                best = rec
        assert abs(best["config"]["x"] - 0.7) < 0.05
        assert abs(best["config"]["y"] - 0.7) < 0.05

    def test_resume_reaches_requested_count(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["smbo", "--config", str(cfg), "--objective", "synthetic-quadratic",
              "--n-init", "5", "--n-trials", "12"])
        assert main(["smbo", "--config", str(cfg), "--objective", "synthetic-quadratic",
                     "--n-init", "5", "--n-trials", "20", "--resume"]) == 0
        trials = (tmp_path / "out" / "trials.jsonl").read_text().splitlines()
        assert len(trials) == 20

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, data=None)
        assert main(["smbo", "--config", str(cfg), "--n-init", "2", "--n-trials", "3"]) == 2
        assert "error: paths.dataset: required" in capsys.readouterr().err

    def test_resume_after_torn_last_line(self, tmp_path, capsys):
        def smbo(out, n_trials, *extra):
            cfg = write_config(tmp_path, paths={"out_dir": str(tmp_path / out)})
            return main(["smbo", "--config", str(cfg), "--objective", "synthetic-quadratic",
                         "--n-init", "5", "--n-trials", str(n_trials), *extra])

        assert smbo("full", 18) == 0
        full = (tmp_path / "full" / "trials.jsonl").read_bytes()
        assert smbo("torn", 7) == 0
        log = tmp_path / "torn" / "trials.jsonl"
        record = full.splitlines(keepends=True)[7]
        with open(log, "ab") as fh:
            fh.write(record[: len(record) // 2])  # a write cut off halfway
        capsys.readouterr()
        assert smbo("torn", 18, "--resume") == 0
        assert "dropped the torn last line" in capsys.readouterr().err
        assert log.read_bytes() == full

    @pytest.mark.parametrize("space", [
        [], {"x": 1}, "x", [1],
        [{"name": "x", "kind": "uniform_float", "lo": 0.0, "hi": 1.0, "step": 0.1}],
        [{"kind": "uniform_float", "lo": 0.0, "hi": 1.0}],
        [{"name": "x", "kind": "uniform_float", "lo": "0", "hi": "1"}],
        [{"name": "x", "kind": "choice", "values": 5}],
    ])
    def test_malformed_space_exit_2(self, tmp_path, capsys, space):
        cfg = write_config(tmp_path)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space))
        assert main(["smbo", "--config", str(cfg), "--objective", "synthetic-quadratic",
                     "--space", str(path), "--n-init", "2", "--n-trials", "3"]) == 2
        assert "error: invalid search space:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trials.jsonl").exists()

    def test_corrupt_log_on_resume_exit_3(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "trials.jsonl").write_text('{"schema": 7, "oops": true}\n')
        assert main(["smbo", "--config", str(cfg), "--objective", "synthetic-quadratic",
                     "--n-trials", "5", "--resume"]) == 3


class TestAugmentPreview:
    def test_text_stage_listing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text_aug={
            "p_eda": 1.0, "p_syn": 0.3, "p_del": 0.3, "p_ins": 0.3, "p_swp": 0.3,
            "p_bt": 1.0,
        })
        assert main(["augment-preview", "--config", str(cfg), "--mode", "text",
                     "--input", "The rain pours down.", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for stage in ("Original", "Back Translation", "Insert", "Delete", "Swap", "Synonym"):
            assert stage in out

    def test_zero_probabilities_identical_lines(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text_aug={})
        main(["augment-preview", "--config", str(cfg), "--mode", "text",
              "--input", "a dog barks", "--seed", "0"])
        # stage labels are padded to 16 columns; the text starts at column 17
        lines = [l[17:] for l in capsys.readouterr().out.splitlines()]
        assert len(set(lines)) == 1

    def test_same_seed_same_preview(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text_aug={"p_eda": 1.0, "p_del": 0.3})
        main(["augment-preview", "--config", str(cfg), "--mode", "text",
              "--input", "one two three four five", "--seed", "9"])
        first = capsys.readouterr().out
        main(["augment-preview", "--config", str(cfg), "--mode", "text",
              "--input", "one two three four five", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_audio_mode_writes_csvs(self, tmp_path):
        from audioretrieval.data import save_wav, synth_dataset

        ds = synth_dataset(2, 1, 0, duration=0.2)
        wav = tmp_path / "clip.wav"
        save_wav(wav, ds.items[0][1])
        cfg = write_config(tmp_path, audio_aug={"g_max": 3, "n_f": 1, "w_f": 4})
        assert main(["augment-preview", "--config", str(cfg), "--mode", "audio",
                     "--input", str(wav), "--seed", "0"]) == 0
        assert (tmp_path / "out" / "preview_before.csv").exists()
        assert (tmp_path / "out" / "preview_after.csv").exists()

    def test_missing_audio_input_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["augment-preview", "--config", str(cfg), "--mode", "audio",
                     "--input", str(tmp_path / "none.wav")]) == 2


class TestBtCache:
    def test_mock_cardinality(self, tmp_path, capsys):
        caps = tmp_path / "caps.txt"
        caps.write_text("one\ntwo\nthree\n")
        out = tmp_path / "cache.jsonl"
        assert main(["bt-cache", "--captions", str(caps), "--out", str(out), "--mock"]) == 0
        assert "9 new entries" in capsys.readouterr().out

    def test_rerun_zero_new(self, tmp_path, capsys):
        caps = tmp_path / "caps.txt"
        caps.write_text("one\n")
        out = tmp_path / "cache.jsonl"
        main(["bt-cache", "--captions", str(caps), "--out", str(out), "--mock"])
        capsys.readouterr()
        main(["bt-cache", "--captions", str(caps), "--out", str(out), "--mock"])
        assert "0 new entries" in capsys.readouterr().out

    def test_empty_captions_ok(self, tmp_path):
        caps = tmp_path / "caps.txt"
        caps.write_text("")
        out = tmp_path / "cache.jsonl"
        assert main(["bt-cache", "--captions", str(caps), "--out", str(out), "--mock"]) == 0
        assert out.exists()

    def test_no_provider_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv("AUDIORETRIEVAL_BT_URL", raising=False)
        caps = tmp_path / "caps.txt"
        caps.write_text("one\n")
        assert main(["bt-cache", "--captions", str(caps),
                     "--out", str(tmp_path / "c.jsonl")]) == 2


class TestSynthData:
    def test_writes_manifests_and_wavs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "dataset"
        assert main(["synth-data", "--config", str(cfg), "--out", str(out)]) == 0
        for split, n in (("train", 18), ("val", 9), ("test", 9)):
            manifest = out / f"{split}.jsonl"
            assert manifest.exists()
            assert len(manifest.read_text().splitlines()) == n

    def test_manifest_loads_back(self, tmp_path):
        from audioretrieval.data import load_manifest

        cfg = write_config(tmp_path)
        out = tmp_path / "dataset"
        main(["synth-data", "--config", str(cfg), "--out", str(out)])
        ds = load_manifest(out / "val.jsonl", audio_root=out)
        assert len(ds) == 9
        assert all(caps for _, _, caps in ds.items)
