import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import audioretrieval
from audioretrieval import audio_aug, cli, data, smbo, text_aug
from audioretrieval.cli import main
from audioretrieval.config import ConfigError, load_config, parse_config
from audioretrieval.data import Waveform, save_wav, synth_dataset

from aug_reference import spec_augment


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


def canonical_hash(path) -> str:
    """The provenance hash of the config document in ``path``: of its canonical JSON."""
    canon = json.dumps(json.loads(Path(path).read_text()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_manifest_config(tmp_path, **overrides):
    """A config reading the synthetic splits from JSONL manifests under tmp_path/ds."""
    main(["synth-data", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "ds")])
    return write_config(tmp_path, data=None, paths={
        "out_dir": str(tmp_path / "out"),
        **{key: str(tmp_path / "ds" / f"{split}.jsonl") for key, split in
           (("dataset", "train"), ("val_dataset", "val"), ("test_dataset", "test"))},
    }, **overrides)


def write_config_with_bt_cache(tmp_path, **overrides):
    """``write_config``'s config with ``paths.bt_cache`` set to a ``bt-cache`` cache of
    its train captions, which a search needs: the default space samples ``p_bt > 0``."""
    cfg = load_config(write_config(tmp_path, **overrides))
    captions = tmp_path / "captions.txt"
    captions.write_text("".join(c + "\n" for _, _, caps in cli._load_split(cfg, "train")
                                for c in caps))
    cache = tmp_path / "bt.jsonl"
    assert main(["bt-cache", "--captions", str(captions), "--out", str(cache)]) == 0
    paths = {"out_dir": str(tmp_path / "out"), **overrides.pop("paths", {}),
             "bt_cache": str(cache)}
    return write_config(tmp_path, paths=paths, **overrides)


def write_one_entry_cache_config(tmp_path, monkeypatch, **overrides):
    """``write_config``'s config with a ``paths.bt_cache`` holding only the first training
    caption under the first pivot; returns the config, the cache, that caption, and the
    splits that ``prepare_split`` is called on, in order."""
    caption = next(iter(cli._load_split(load_config(write_config(tmp_path)), "train")))[2][0]
    cache = tmp_path / "bt.jsonl"
    cache.write_text(json.dumps({"source": caption, "pivot": text_aug.PIVOTS[0],
                                 "result": caption}) + "\n")
    prepared, prepare_split = [], cli.trainer.prepare_split
    monkeypatch.setattr(cli.trainer, "prepare_split",
                        lambda *a: prepared.append(a) or prepare_split(*a))
    path = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"),
                                         "bt_cache": str(cache)}, **overrides)
    return path, cache, caption, prepared


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
        with pytest.raises(ConfigError, match=r"^model\.vocab_size: unknown key$"):
            parse_config({"model": {"vocab_size": 50}})

    @pytest.mark.parametrize("section,value", [
        ("audio_aug", False), ("optim", []), ("text_aug", 0), ("model", ""),
    ])
    def test_falsy_section_not_an_object(self, section, value):
        """Only an absent or null section means the defaults."""
        with pytest.raises(ConfigError, match=rf"^{section}: expected an object$"):
            parse_config({section: value})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.json")

    def test_augmentation_sections_optional(self):
        # absent, null and {} are one config: the defaults, which draw nothing
        for doc in ({}, {"audio_aug": None, "text_aug": None}, {"audio_aug": {}, "text_aug": {}}):
            cfg = parse_config(doc)
            assert cfg.audio_aug == audio_aug.AudioAugConfig()
            assert cfg.text_aug == text_aug.TextAugConfig()
            assert not (cfg.audio_aug.draws or cfg.text_aug.draws)

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
        """The program works these out itself (from the features, the training captions
        and the top-level seed), so no section has them."""
        path = write_config(tmp_path, **{section: {key: 32}})
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown key$"):
            load_config(path)
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {section}.{key}: unknown key\n"

    def test_falsy_section_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, audio_aug=False)
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: audio_aug: expected an object\n"
        assert not (tmp_path / "out").exists()

    def test_zero_epochs_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, optim={"epochs": 0, "batch_size": 6})
        assert main(["train", "--config", str(path)]) == 2
        assert "optim: epochs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run_result.json").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("model", "embed_dim", 8.5), ("model", "audio_hidden", True),
        ("optim", "batch_size", 6.0), ("optim", "epochs", True), ("optim", "patience", "2"),
    ])
    def test_non_integer_dimension_exit_2(self, tmp_path, capsys, section, key, value):
        doc = {"model": {}, "optim": {"epochs": 2, "batch_size": 6}}
        doc[section][key] = value
        path = write_config(tmp_path, **doc)
        with pytest.raises(ConfigError, match=rf"^{section}: {key} must be an integer"):
            load_config(path)
        assert main(["train", "--config", str(path)]) == 2
        assert f"{section}: {key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("n_train", 12.5, "n_train must be an integer, got 12.5"),
        ("n_classes", 1, "n_classes must be >= 2"),
        ("duration", -1, "duration must be a finite number > 0, got -1"),
        ("captions_per_item", 0, "captions_per_item must be >= 1"),
        ("sample_rate", 0, "sample_rate must be >= 1"),
    ])
    def test_bad_synthetic_setting_exit_2(self, tmp_path, capsys, key, value, message):
        synthetic = {"n_classes": 3, "n_train": 18, "n_val": 9, "n_test": 9, "duration": 0.2}
        path = write_config(tmp_path, data={"synthetic": {**synthetic, key: value}})
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: data.synthetic: {message}\n"

    @pytest.mark.parametrize("key,value", [("n_t", 1.5), ("n_f", 1.0), ("g_max", True)])
    def test_non_integer_augmentation_setting_exit_2(self, tmp_path, monkeypatch, capsys,
                                                     key, value):
        prepared = []
        monkeypatch.setattr(cli.trainer, "prepare_split", lambda *a: prepared.append(a))
        path = write_config(tmp_path, audio_aug={key: value})
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"error: audio_aug: {key} must be an integer, got {value!r}\n"
        assert prepared == []

    @pytest.mark.parametrize("section,key,value,message", [
        ("audio_aug", "p_ms", True, "p_ms must be a number, got True"),
        ("audio_aug", "alpha", True, "alpha must be a number, got True"),
        ("text_aug", "p_eda", True, "p_eda must be a number, got True"),
        ("text_aug", "p_bt", False, "p_bt must be a number, got False"),
        ("text_aug", "p_syn", "0.1", "p_syn must be a number, got '0.1'"),
        ("text_aug", "p_del", None, "p_del must be a number, got None"),
        ("audio_aug", "p_ms", 1.5, "p_ms outside [0, 1]"),
        ("audio_aug", "alpha", 0, "alpha outside (0, 1]"),
        ("audio_aug", "alpha", float("nan"), "alpha outside (0, 1]"),
        ("text_aug", "p_swp", 0.31, "p_swp outside [0, 0.3]"),
    ])
    def test_bad_augmentation_probability_exit_2(self, tmp_path, monkeypatch, capsys, section,
                                                  key, value, message):
        prepared = []
        monkeypatch.setattr(cli.trainer, "prepare_split", lambda *a: prepared.append(a))
        path = write_config(tmp_path, **{section: {key: value}})
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {section}: {message}\n"
        assert prepared == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("out_dir", 5), ("out_dir", None), ("dataset", 7), ("val_dataset", ["v.jsonl"]),
        ("audio_root", False), ("synonym_lexicon", 0), ("bt_cache", 2),
    ])
    def test_non_string_path_exit_2(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)  # a relative out_dir would be made here
        path = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"), key: value})
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"error: paths: {key} must be a string, got {value!r}\n"
        assert os.listdir(tmp_path) == ["config.json"]

    def test_back_translation_without_cache_exit_2(self, tmp_path, monkeypatch, capsys):
        prepared = []
        monkeypatch.setattr(cli.trainer, "prepare_split", lambda *a: prepared.append(a))
        path = write_config(tmp_path, text_aug={"p_bt": 0.5})
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: text_aug.p_bt > 0 needs paths.bt_cache\n"
        assert prepared == []

    @pytest.mark.parametrize("command,message", [
        ("train", "text_aug.p_bt > 0 needs paths.bt_cache"),
        ("smbo", "the search space can sample p_bt > 0, which needs paths.bt_cache"),
    ])
    def test_back_translation_without_cache_generates_no_clip(self, tmp_path, monkeypatch,
                                                              capsys, command, message):
        generated, synth = [], cli.data.synth_dataset

        def recording(*args, **kwargs):  # records each clip as it is made
            for record in synth(*args, **kwargs):
                generated.append(record[0])
                yield record
        monkeypatch.setattr(cli.data, "synth_dataset", recording)
        path = write_config(tmp_path, text_aug={"p_bt": 0.5})  # synthetic, no paths.bt_cache
        argv = ["--n-init", "2", "--n-trials", "3"] if command == "smbo" else []
        assert main([command, "--config", str(path), *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert generated == [] and os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("change", ["deleted", "rewritten"])
    def test_config_hash_of_the_config_that_ran(self, tmp_path, monkeypatch, change):
        """A config file removed or rewritten during training changes neither the run
        nor its artifacts: the hash is of the document the run parsed."""
        path = write_config(tmp_path)
        digest, train_run = canonical_hash(path), cli.trainer.train_run

        def changing(*args, **kwargs):
            if change == "deleted":
                path.unlink()
            else:
                write_config(tmp_path, seed=1)
            return train_run(*args, **kwargs)
        monkeypatch.setattr(cli.trainer, "train_run", changing)
        assert main(["train", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == ["checkpoint.json", "metrics.csv", "run_result.json"]
        assert json.loads((out / "run_result.json").read_text())["config_hash"] == digest

    def test_back_translation_cache_miss_exit_2(self, tmp_path, monkeypatch, capsys):
        path, cache, caption, prepared = write_one_entry_cache_config(
            tmp_path, monkeypatch, text_aug={"p_bt": 0.5})
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: paths.bt_cache: {cache}: no entry for ({caption!r}, 'fr'); every training "
            "caption needs one per pivot\n")
        assert len(prepared) == 1  # the train split only: val is not featurized
        assert os.listdir(tmp_path / "out") == []  # made first, and nothing written

    @pytest.mark.parametrize("aug,kept", [(None, False), ({"p_eda": 0.5}, False),
                                          ({"p_bt": 0.5}, True)])
    def test_cache_kept_only_for_back_translation(self, tmp_path, monkeypatch, aug, kept):
        """The cache is read and checked either way; training gets it only with p_bt > 0."""
        providers, train_run = [], cli.trainer.train_run
        monkeypatch.setattr(cli.trainer, "train_run", lambda *a, **kw: providers.append(
            kw["provider"]) or train_run(*a, **kw))
        path = write_config_with_bt_cache(tmp_path, text_aug=aug)
        assert main(["train", "--config", str(path)]) == 0
        [provider] = providers
        assert isinstance(provider, text_aug.TranslationCache) if kept else provider is None

    @pytest.mark.parametrize("doc,message", [
        ({"seed": -1}, "seed: seed must be >= 0"),
        ({"seed": True}, "seed: seed must be an integer, got True"),
        ({"optim": {"lr0": float("nan")}}, "optim: lr0 must be a finite number > 0, got nan"),
        ({"optim": {"lr0": float("inf")}}, "optim: lr0 must be a finite number > 0, got inf"),
        ({"optim": {"lr0": True}}, "optim: lr0 must be a finite number > 0, got True"),
        ({"optim": {"lr0": "1e-3"}}, "optim: lr0 must be a finite number > 0, got '1e-3'"),
    ])
    def test_bad_seed_or_learning_rate_exit_2(self, tmp_path, capsys, doc, message):
        if "optim" in doc:
            doc = {"optim": {"epochs": 2, "batch_size": 6, **doc["optim"]}}
        path = write_config(tmp_path, **doc)
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("n_fft", 1023, "n_fft must be even"),  # 0.2 s clips: hop divides their length
        ("hop", 0, "hop must be >= 1"),
        ("n_fft", 1024.5, "n_fft must be an integer"),
        ("n_mels", 8.0, "n_mels must be an integer"),
    ])
    def test_bad_feature_setting_exit_2(self, tmp_path, capsys, key, value, message):
        path = write_config(tmp_path, features={key: value})
        assert main(["train", "--config", str(path)]) == 2
        assert f"error: features: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("f_min", 0.0), ("f_max", 16000.0),
                                           ("log_floor", 1e-10)])
    def test_fixed_feature_key_exit_2(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, features={key: value})
        assert main(["train", "--config", str(path)]) == 2
        assert f"error: features.{key}: unknown key" in capsys.readouterr().err

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

    @pytest.mark.parametrize("off,active", [
        ("audio_aug", {"text_aug": {"p_eda": 0.5, "p_syn": 0.2, "p_del": 0.2}}),
        ("text_aug", {"audio_aug": {"g_max": 3, "n_f": 1, "w_f": 4, "p_ms": 0.5}}),
    ])
    def test_empty_augmentation_section_trains_as_an_absent_one(self, tmp_path, off, active):
        """``{}`` draws nothing, so the other section's draws are unmoved: the checkpoint
        and the metrics keep their bytes (run_result.json's config_hash differs)."""
        artifacts = []
        for name, section in (("absent", {}), ("null", {off: None}), ("empty", {off: {}})):
            out = tmp_path / name
            path = write_config(tmp_path, paths={"out_dir": str(out)}, **active, **section)
            assert main(["train", "--config", str(path)]) == 0
            artifacts.append([(out / f).read_bytes() for f in ("checkpoint.json", "metrics.csv")])
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_rerun_byte_identical_csv(self, tmp_path):
        path = write_config(tmp_path)
        main(["train", "--config", str(path)])
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        main(["train", "--config", str(path)])
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first

    def test_peak_memory_grows_by_no_clip_audio(self, tmp_path):
        """A synthetic split streams through preparation as a manifest does: each extra
        clip adds its statistics and captions to the peak (about 2 KB), not its 128 KB
        of float64 audio (0.5 s at 32 kHz)."""
        def traced_peak(n_train):
            path = write_config(tmp_path, data={"synthetic": {
                "n_classes": 3, "n_train": n_train, "n_val": 9, "n_test": 9, "duration": 0.5}},
                optim={"epochs": 1, "batch_size": 6})
            tracemalloc.start()
            try:
                assert main(["train", "--config", str(path)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(6)  # what the first run allocates once (caches, lazy imports) is not per clip
        per_clip = (traced_peak(72) - traced_peak(24)) / 48
        assert per_clip < 16 * 1024, f"the peak grows by {per_clip / 1024:.1f} KB per clip"

    @pytest.mark.parametrize("lr0,what", [(1e300, "non-finite loss"),
                                          (1e100, "non-finite embedding norm")])
    def test_diverged_run_fails_in_one_line(self, tmp_path, capsys, lr0, what):
        """At 1e100 the loss stays finite: the embeddings' norms overflow, so every row
        divides to 0 and the run would go on training nothing."""
        path = write_config(tmp_path, optim={"epochs": 2, "batch_size": 6, "lr0": lr0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would raise here
            assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: training diverged at epoch 0: {what}\n"
        assert not (tmp_path / "out" / "run_result.json").exists()


def write_manifest(path: Path, items) -> Path:
    """A JSONL manifest at ``path`` of ``items``' clips, each saved as a WAV beside it."""
    with open(path, "w") as fh:
        for audio_id, w, caps in items:
            save_wav(path.parent / f"{audio_id}.wav", w)
            fh.write(json.dumps({"audio": f"{audio_id}.wav", "captions": caps}) + "\n")
    return path


def traced_peak(argv: list[str]) -> int:
    """The tracemalloc peak, in bytes, of one successful command."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """eval and smbo keep per clip its statistics (3 x 64 float64 and a count, 1.5 KB) and its
    captions, whatever the split's size; each extra clip of a manifest adds about that to the
    peak. The first run of each test is not measured: what it allocates once (caches, lazy
    imports) is not per clip."""

    def test_eval_grows_by_statistics_and_captions(self, tmp_path):
        """Queries are scored TEXT_BLOCK at a time: 1.9 KB per clip of five captions, where a
        [queries, clips] score matrix grew the peak by 21 KB per clip at 100 to 200 clips."""
        assert main(["train", "--config", str(write_config(tmp_path))]) == 0
        checkpoint = str(tmp_path / "out" / "checkpoint.json")
        clips = list(synth_dataset(3, 200, 7, split="test", duration=0.05, captions_per_item=5))

        def peak(n):
            manifest = write_manifest(tmp_path / f"test_{n}.jsonl", clips[:n])
            cfg = write_config(tmp_path, data=None, paths={"out_dir": str(tmp_path / "out"),
                                                           "test_dataset": str(manifest)})
            return traced_peak(["eval", "--config", str(cfg), "--checkpoint", checkpoint])

        peak(20)
        per_clip = (peak(200) - peak(100)) / 100
        assert per_clip < 8 * 1024, f"the peak grows by {per_clip / 1024:.1f} KB per clip"

    def test_smbo_grows_by_statistics_and_captions(self, tmp_path):
        """A search keeps the training frames in a file: 3.1 KB per 0.5 s clip with its
        back-translation cache entries, where frames in RAM grew the peak by 29 KB."""
        clips = list(synth_dataset(3, 72, 7, duration=0.5, captions_per_item=1))
        val = write_manifest(tmp_path / "val.jsonl", synth_dataset(3, 9, 8, split="val",
                                                                   duration=0.2))

        def peak(n):
            captions = tmp_path / "captions.txt"
            captions.write_text("".join(c + "\n" for _, _, caps in clips[:n] for c in caps))
            cache = tmp_path / f"bt_{n}.jsonl"
            assert main(["bt-cache", "--captions", str(captions), "--out", str(cache)]) == 0
            cfg = write_config(tmp_path, data=None, optim={"epochs": 1, "batch_size": 6}, paths={
                "out_dir": str(tmp_path / f"out_{n}"), "val_dataset": str(val),
                "dataset": str(write_manifest(tmp_path / f"train_{n}.jsonl", clips[:n])),
                "bt_cache": str(cache)})
            return traced_peak(["smbo", "--config", str(cfg), "--n-init", "1", "--n-trials", "1"])

        peak(12)
        per_clip = (peak(72) - peak(36)) / 36
        assert per_clip < 8 * 1024, f"the peak grows by {per_clip / 1024:.1f} KB per clip"


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

    def test_config_hash_of_the_config_that_ran(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        digest, score_split = canonical_hash(cfg), cli.trainer.score_split
        monkeypatch.setattr(cli.trainer, "score_split",
                            lambda *a: cfg.unlink() or score_split(*a))
        ckpt = tmp_path / "out" / "checkpoint.json"
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
        assert json.loads((tmp_path / "out" / "eval_test.json").read_text())["config_hash"] \
            == digest

    def test_empty_split_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg)])
        ckpt = tmp_path / "out" / "checkpoint.json"
        empty = write_config(tmp_path, data={"synthetic": {
            "n_classes": 3, "n_train": 18, "n_val": 9, "n_test": 0, "duration": 0.2,
        }})
        assert main(["eval", "--config", str(empty), "--checkpoint", str(ckpt),
                     "--split", "test"]) == 2

    @pytest.mark.parametrize("features", [{"n_mels": 32}, {"hop": 160}], ids=["n_mels", "hop"])
    def test_features_from_the_checkpoint(self, tmp_path, features):
        """eval featurizes the split with the checkpoint's features; the config's play no
        part, so the metrics are those under the config the model was trained with."""
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = str(tmp_path / "out" / "checkpoint.json")
        same, other = tmp_path / "same.json", tmp_path / "other.json"
        assert main(["eval", "--config", str(cfg), "--checkpoint", ckpt, "--out", str(same)]) == 0
        cfg = write_config(tmp_path, features=features)
        assert main(["eval", "--config", str(cfg), "--checkpoint", ckpt, "--out", str(other)]) == 0
        same, other = (json.loads(path.read_text()) for path in (same, other))
        assert same.pop("config_hash") != other.pop("config_hash")
        assert other == same and sorted(same) == ["map10", "r1", "r10", "r5"]

    def test_unreadable_checkpoint_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "missing.json")]) == 2

    def test_train_manifest_order_does_not_matter(self, tmp_path):
        cfg = write_manifest_config(tmp_path)
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

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_versions_exit_2(self, tmp_path, capsys, version):
        """Versions 1 and 2 kept a ``dims`` record of widths that the arrays also hold
        (version 1 had no vocabulary or feature config): neither is read."""
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "out" / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        dims = {"n_mels": doc["features"]["n_mels"], "vocab_size": len(doc["vocab"]) + 2}
        old = {"dims": dims, "arrays": doc["arrays"]} if version == 1 else {"dims": dims, **doc}
        ckpt.write_text(json.dumps({**old, "version": version}))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot read checkpoint: unsupported checkpoint version {version}; retrain\n"

    @pytest.mark.parametrize("spoil", ["missing", "features", "norm_var", "norm_mean"])
    def test_checkpoint_checked_before_the_split_is_decoded(self, tmp_path, monkeypatch,
                                                            capsys, spoil):
        """A checkpoint that is missing or does not hold together exits 2 with one line before
        any clip is decoded. The three edits used to pass the loader: ``features.n_mels`` 32
        beside 64-bin arrays ended in a broadcast traceback, a ``norm_var`` of -1 scored 100
        on every metric, and a ``norm_mean`` one bin short failed only once scored."""
        cfg = write_manifest_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "out" / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        if spoil == "features":
            doc["features"]["n_mels"] = 32
        elif spoil == "norm_var":
            doc["arrays"]["norm_var"]["data"][0] = -1.0
        elif spoil == "norm_mean":  # shape and data alike
            mean = doc["arrays"]["norm_mean"]
            mean["data"].pop()
            mean["shape"] = [len(mean["data"])]
        ckpt.write_text(json.dumps(doc))
        if spoil == "missing":
            ckpt.unlink()
        decoded = []
        real = data.load_wav
        monkeypatch.setattr(data, "load_wav", lambda path: decoded.append(path) or real(path))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read checkpoint: ") and err.count("\n") == 1
        assert {"missing": "No such file", "features": "do not fit n_mels 32",
                "norm_var": "norm_var holds a variance < 0",
                "norm_mean": "'norm_mean': (63,)"}[spoil] in err
        assert decoded == []


@pytest.fixture
def toy_objective(monkeypatch):
    """Search a quadratic with its maximum at 0.7 on every axis instead of training."""
    def quadratic(cfg: dict, trial_id: int, seed: int):
        x = np.array([float(cfg[k]) for k in sorted(cfg)])
        return -float(((x - 0.7) ** 2).sum()), "completed", 1
    monkeypatch.setattr(cli, "_training_objective",
                        lambda cfg, out_dir: contextlib.nullcontext(quadratic))


class TestSmbo:
    def test_zero_trials_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["smbo", "--config", str(cfg), "--n-trials", "0"]) == 2

    def test_toy_objective(self, tmp_path, capsys, toy_objective):
        cfg = write_config(tmp_path)
        assert main(["smbo", "--config", str(cfg),
                     "--n-init", "10", "--n-trials", "40"]) == 0
        out = capsys.readouterr().out
        assert "parameter" in out and "best" in out
        trials = (tmp_path / "out" / "trials.jsonl").read_text().splitlines()
        assert len(trials) == 40

    def test_toy_objective_near_optimum(self, tmp_path, monkeypatch, toy_objective):
        monkeypatch.setattr(smbo, "SPACE", tuple(smbo.ParamSpec(n, "uniform_float", 0.0, 1.0)
                                                 for n in ("x", "y")))
        cfg = write_config(tmp_path)
        main(["smbo", "--config", str(cfg), "--n-init", "10", "--n-trials", "60"])
        best = None
        for line in (tmp_path / "out" / "trials.jsonl").read_text().splitlines():
            rec = json.loads(line)
            if best is None or rec["objective"] > best["objective"]:
                best = rec
        assert abs(best["config"]["x"] - 0.7) < 0.05
        assert abs(best["config"]["y"] - 0.7) < 0.05

    def test_resume_reaches_requested_count(self, tmp_path, toy_objective):
        cfg = write_config(tmp_path)
        main(["smbo", "--config", str(cfg),
              "--n-init", "5", "--n-trials", "12"])
        assert main(["smbo", "--config", str(cfg),
                     "--n-init", "5", "--n-trials", "20", "--resume"]) == 0
        trials = (tmp_path / "out" / "trials.jsonl").read_text().splitlines()
        assert len(trials) == 20

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, data=None)
        assert main(["smbo", "--config", str(cfg), "--n-init", "2", "--n-trials", "3"]) == 2
        assert "error: paths.dataset: required" in capsys.readouterr().err

    def test_back_translation_without_cache_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # no paths.bt_cache, and the default space samples p_bt
        assert main(["smbo", "--config", str(cfg), "--n-init", "2", "--n-trials", "3"]) == 2
        assert capsys.readouterr().err == ("error: the search space can sample p_bt > 0, "
                                           "which needs paths.bt_cache\n")
        assert not (tmp_path / "out" / "trials.jsonl").exists()

    def test_back_translation_without_cache_decodes_no_clip(self, tmp_path, monkeypatch,
                                                              capsys):
        cfg = write_manifest_config(tmp_path)  # no paths.bt_cache
        decoded = []
        monkeypatch.setattr(cli.data, "load_wav", lambda *a: decoded.append(a))
        assert main(["smbo", "--config", str(cfg), "--n-init", "2", "--n-trials", "3"]) == 2
        assert capsys.readouterr().err == ("error: the search space can sample p_bt > 0, "
                                           "which needs paths.bt_cache\n")
        assert decoded == [] and os.listdir(tmp_path / "out") == []

    def test_back_translation_cache_miss_exit_2(self, tmp_path, monkeypatch, capsys):
        cfg, cache, caption, prepared = write_one_entry_cache_config(tmp_path, monkeypatch)
        assert main(["smbo", "--config", str(cfg), "--n-init", "2", "--n-trials", "3"]) == 2
        assert capsys.readouterr().err == (
            f"error: paths.bt_cache: {cache}: no entry for ({caption!r}, 'fr'); every training "
            "caption needs one per pivot\n")
        assert len(prepared) == 1  # the train split only: val is not featurized
        assert not (tmp_path / "out" / "trials.jsonl").exists()

    def test_resume_after_torn_last_line(self, tmp_path, capsys, toy_objective):
        def smbo(out, n_trials, *extra):
            cfg = write_config(tmp_path, paths={"out_dir": str(tmp_path / out)})
            return main(["smbo", "--config", str(cfg),
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

    def test_existing_log_without_resume_exit_2(self, tmp_path, capsys, toy_objective):
        cfg = write_config(tmp_path)
        argv = ["smbo", "--config", str(cfg),
                "--n-init", "2", "--n-trials", "3"]
        assert main(argv) == 0
        log = tmp_path / "out" / "trials.jsonl"
        before = log.read_bytes()
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: trials log {log} exists; pass --resume to continue\n"
        assert log.read_bytes() == before

    def test_resume_below_logged_trials_exit_2(self, tmp_path, capsys, toy_objective):
        cfg = write_config(tmp_path)
        argv = ["smbo", "--config", str(cfg),
                "--n-init", "2"]
        assert main(argv + ["--n-trials", "5"]) == 0
        log = tmp_path / "out" / "trials.jsonl"
        before = log.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--n-trials", "3", "--resume"]) == 2
        assert capsys.readouterr().err == \
            f"error: {log} holds 5 trials, more than --n-trials 3\n"
        assert log.read_bytes() == before

    def test_log_errors_before_any_clip_is_decoded(self, tmp_path, monkeypatch, capsys):
        manifest_paths = json.loads(write_manifest_config(tmp_path).read_text())["paths"]
        cfg = write_config_with_bt_cache(tmp_path, data=None, paths=manifest_paths)
        log = tmp_path / "out" / "trials.jsonl"
        log.parent.mkdir()
        log.write_text("".join(smbo.TrialRecord(i, {"p_eda": 0.5}, 0.1, "completed", 1)
                               .to_json() + "\n" for i in range(5)))
        before = log.read_bytes()
        decoded = []

        def load_wav(path):
            decoded.append(path)
            raise OSError("decoded")
        monkeypatch.setattr(cli.data, "load_wav", load_wav)
        argv = ["smbo", "--config", str(cfg), "--n-init", "2"]
        capsys.readouterr()
        assert main(argv + ["--n-trials", "8"]) == 2
        assert capsys.readouterr().err == \
            f"error: trials log {log} exists; pass --resume to continue\n"
        assert main(argv + ["--n-trials", "3", "--resume"]) == 2
        assert capsys.readouterr().err == \
            f"error: {log} holds 5 trials, more than --n-trials 3\n"
        assert decoded == [] and log.read_bytes() == before
        # a log that passes every rule: the first clip is decoded next
        assert main(argv + ["--n-trials", "8", "--resume"]) == 2
        assert "cannot read" in capsys.readouterr().err and len(decoded) == 1

    def test_corrupt_log_on_resume_exit_3(self, tmp_path, toy_objective):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "trials.jsonl").write_text('{"schema": 7, "oops": true}\n')
        assert main(["smbo", "--config", str(cfg),
                     "--n-trials", "5", "--resume"]) == 3

    @pytest.mark.parametrize("second,reason", [
        ("5", "not a trial record: '5'"),
        (smbo.TrialRecord(2, {"x": 0.5}, 0.1, "completed", 1).to_json(),
         "line 2 holds trial 2 where trial 1 belongs")], ids=["not an object", "gap"])
    def test_log_that_is_not_trials_in_order_exit_3(self, tmp_path, capsys, toy_objective,
                                                   second, reason):
        """A line that is JSON but no record, or a record out of its place, is corrupt; the
        log keeps its bytes."""
        cfg = write_config(tmp_path)
        log = tmp_path / "out" / "trials.jsonl"
        log.parent.mkdir()
        first = smbo.TrialRecord(0, {"x": 0.5}, 0.1, "completed", 1).to_json()
        log.write_text(f"{first}\n{second}\n")
        before = log.read_bytes()
        capsys.readouterr()
        assert main(["smbo", "--config", str(cfg), "--n-trials", "5", "--resume"]) == 3
        assert capsys.readouterr().err == f"error: corrupt trials log {log}: {reason}\n"
        assert log.read_bytes() == before

    def test_resume_parses_each_logged_record_once(self, tmp_path, monkeypatch,
                                                     toy_objective):
        cfg = write_config(tmp_path)
        argv = ["smbo", "--config", str(cfg), "--n-init", "2"]
        assert main(argv + ["--n-trials", "3"]) == 0
        parsed, from_json = [], smbo.TrialRecord.from_json
        monkeypatch.setattr(smbo.TrialRecord, "from_json",
                            staticmethod(lambda line: parsed.append(line) or from_json(line)))
        assert main(argv + ["--n-trials", "5", "--resume"]) == 0
        assert len(parsed) == 3
        assert len((tmp_path / "out" / "trials.jsonl").read_text().splitlines()) == 5

    def test_objective_option_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(["smbo", "--config", str(cfg), "--objective", "synthetic-quadratic"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --objective" in capsys.readouterr().err

    def test_space_option_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(["smbo", "--config", str(cfg), "--space", "f.json"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --space" in capsys.readouterr().err

    def test_all_trials_failed_exit_1(self, tmp_path, monkeypatch, capsys):
        def failing(cfg, trial_id, seed):
            raise RuntimeError("diverged")
        monkeypatch.setattr(cli, "_training_objective",
                            lambda cfg, out_dir: contextlib.nullcontext(failing))
        cfg = write_config(tmp_path)
        assert main(["smbo", "--config", str(cfg), "--n-init", "2", "--n-trials", "3"]) == 1
        assert capsys.readouterr().err == "error: all trials failed\n"
        trials = smbo.open_log(tmp_path / "out" / "trials.jsonl", 3, resume=True)[0]
        assert [(t.status, t.error) for t in trials] == [("failed", "RuntimeError: diverged")] * 3

    def test_trial_is_a_train_run(self, tmp_path):
        """A trial trains as ``train`` does with the trial's values and seed
        ``seed * 100003 + trial_id``, here 0 * 100003 + 0."""
        cfg = write_config_with_bt_cache(tmp_path)
        assert main(["smbo", "--config", str(cfg), "--n-init", "1", "--n-trials", "1"]) == 0
        [trial] = smbo.open_log(tmp_path / "out" / "trials.jsonl", 1, resume=True)[0]
        assert trial.status != "failed"
        doc = json.loads(cfg.read_text())
        assert doc["seed"] == 0 * 100003 + 0
        for section, C in (("audio_aug", audio_aug.AudioAugConfig),
                           ("text_aug", text_aug.TextAugConfig)):
            doc[section] = {f.name: trial.config[f.name] for f in fields(C)}
        doc["paths"]["out_dir"] = str(tmp_path / "train")
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 0
        result = json.loads((tmp_path / "train" / "run_result.json").read_text())
        assert (result["best_val_map"], result["epochs_run"]) == \
            (trial.objective, trial.epochs_run)

    def test_trial_configs_built_by_field_name(self, tmp_path, monkeypatch):
        """Each trial trains on configs whose fields are the trial's values, with the five
        integer settings as ints, for random and TPE-suggested trials alike."""
        built = []
        train_run = cli.trainer.train_run

        def capture(train, val, dims, audio_cfg, text_cfg, *args, **kwargs):
            built.append({**asdict(audio_cfg), **asdict(text_cfg)})
            return train_run(train, val, dims, audio_cfg, text_cfg, *args, **kwargs)
        monkeypatch.setattr(cli.trainer, "train_run", capture)
        cfg = write_config_with_bt_cache(tmp_path)
        assert main(["smbo", "--config", str(cfg), "--n-init", "2", "--n-trials", "3"]) == 0
        trials = smbo.open_log(tmp_path / "out" / "trials.jsonl", 3, resume=True)[0]
        assert built == [t.config for t in trials]
        for values in built:
            assert all(type(values[k]) is int for k in ("g_max", "n_f", "w_f", "n_t", "w_t"))


def _cli_command(argv: list[str], **env) -> dict:
    """Arguments for running the CLI module in a subprocess that sees this source tree."""
    src = str(Path(audioretrieval.__file__).resolve().parents[1])
    return dict(args=[sys.executable, "-m", "audioretrieval.cli", *argv],
                env=dict(os.environ, PYTHONPATH=src, **env),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _run_cli(argv: list[str]) -> int:
    return subprocess.run(**_cli_command(argv), timeout=300).returncode


def _start_cli(argv: list[str]) -> subprocess.Popen:
    return subprocess.Popen(**_cli_command(argv))


def test_run_result_records_the_environment(tmp_path):
    """run_result.json names what the bytes depend on besides (config, seed): two trains
    that differ only in the BLAS thread count record just that difference."""
    records = []
    for threads in ("1", "2"):
        cfg = write_config(tmp_path, paths={"out_dir": str(tmp_path / threads)})
        run = subprocess.run(**_cli_command(["train", "--config", str(cfg)],
                                            OPENBLAS_NUM_THREADS=threads), timeout=300)
        assert run.returncode == 0
        records.append(json.loads((tmp_path / threads / "run_result.json").read_text())
                       ["environment"])
    one, two = records
    assert {k for k in one if one[k] != two[k]} == {"OPENBLAS_NUM_THREADS"}
    assert (one["OPENBLAS_NUM_THREADS"], two["OPENBLAS_NUM_THREADS"]) == ("1", "2")
    assert one.keys() == {"numpy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS"}
    assert one["numpy"] == np.__version__
    assert one["blas"] is None or set(one["blas"]) == {"name", "version"}
    assert all(one[name] == os.environ.get(name) for name in ("OMP_NUM_THREADS",
                                                              "MKL_NUM_THREADS"))


# Runs the CLI with sys.argv[4:] after replacing trainer.<sys.argv[1]> by a wrapper that
# lets sys.argv[2] calls through, then touches the file sys.argv[3] and waits to be killed.
_HELD_CLI = """
import sys, time
from pathlib import Path
from audioretrieval import cli, trainer
*owner, name = sys.argv[1].split(".")
owner = getattr(trainer, owner[0]) if owner else trainer
real, calls = getattr(owner, name), []

def held(*args, **kwargs):
    calls.append(None)
    if len(calls) > int(sys.argv[2]):
        Path(sys.argv[3]).touch()
        time.sleep(300)
    return real(*args, **kwargs)
setattr(owner, name, held)
sys.exit(cli.main(sys.argv[4:]))
"""


def _start_cli_held(argv: list[str], target: str, calls: int, marker: Path,
                    **env) -> subprocess.Popen:
    """Start the CLI, to stop inside call ``calls + 1`` of ``trainer.<target>`` and touch
    ``marker`` there."""
    command = _cli_command(argv, **env)
    command["args"] = [sys.executable, "-c", _HELD_CLI, target, str(calls), str(marker), *argv]
    return subprocess.Popen(**command)


def _kill_once(proc: subprocess.Popen, ready) -> bool:
    """SIGKILL ``proc`` as soon as ``ready()`` holds; whether it was still running then."""
    deadline = time.monotonic() + 120
    while not ready() and proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.002)
    proc.send_signal(signal.SIGKILL)
    return proc.wait(timeout=60) == -signal.SIGKILL


class TestKilledRun:
    """A run killed with SIGKILL leaves each artifact whole or absent, and a killed
    search resumes to the log of an uninterrupted one."""

    OPTIM = {"epochs": 20, "batch_size": 6, "patience": 20}  # trials long enough to kill one

    def test_smbo_resumes_exactly(self, tmp_path):
        def argv(out, *extra):
            cfg = write_config_with_bt_cache(tmp_path, optim=self.OPTIM,
                                             paths={"out_dir": str(tmp_path / out)})
            return ["smbo", "--config", str(cfg), "--n-init", "3", "--n-trials", "6", *extra]

        assert _run_cli(argv("full")) == 0
        full = (tmp_path / "full" / "trials.jsonl").read_bytes()
        log = tmp_path / "killed" / "trials.jsonl"
        proc = _start_cli(argv("killed"))
        assert _kill_once(proc, lambda: log.exists() and log.read_bytes().count(b"\n") >= 2)
        assert log.read_bytes().count(b"\n") < 6
        assert _run_cli(argv("killed", "--resume")) == 0
        assert log.read_bytes() == full

    @pytest.mark.parametrize("when", ["training", "writing"])
    def test_train_artifacts_whole_or_absent(self, tmp_path, when):
        out, marker = tmp_path / "out", tmp_path / "held"
        cfg = write_config(tmp_path, optim=self.OPTIM)
        argv = ["train", "--config", str(cfg)]
        if when == "training":  # stopped at the fourth Adam step
            proc, trigger = _start_cli_held(argv, "adam_step", 3, marker), marker
        else:  # train writes the checkpoint first
            proc, trigger = _start_cli(argv), out / "checkpoint.json"
        killed = _kill_once(proc, trigger.exists)
        assert killed or when == "writing"
        for name in ("checkpoint.json", "run_result.json"):
            if (out / name).exists():
                json.loads((out / name).read_text())
        csv = out / "metrics.csv"
        if csv.exists():
            assert len(csv.read_text().splitlines()) == 1 + self.OPTIM["epochs"]

    @pytest.mark.parametrize("when,target", [("preparing", "FrameStore.append"),
                                             ("training", "adam_step")])
    def test_time_striped_train_leaves_no_stray_file(self, tmp_path, when, target):
        """The training frames are in a file without a name: it shows neither in out_dir
        nor in TMPDIR while the run holds it, nor once the run is killed."""
        out, tmp, marker = tmp_path / "out", tmp_path / "tmp", tmp_path / "held"
        tmp.mkdir()
        cfg = write_config(tmp_path, optim=self.OPTIM, audio_aug={"n_t": 2, "w_t": 4})
        proc = _start_cli_held(["train", "--config", str(cfg)], target, 5, marker,
                               TMPDIR=str(tmp))
        seen = []  # out_dir and TMPDIR while the run is held

        def held():
            if marker.exists():
                seen.append((os.listdir(out), os.listdir(tmp)))
            return bool(seen)
        assert _kill_once(proc, held)
        assert seen == [([], [])]
        assert os.listdir(out) == [] and os.listdir(tmp) == []


class TestFramesKept:
    """Only a training split whose augmentation reads log-mel frames (time stripes)
    keeps them; validation never does."""

    @staticmethod
    def _splits_trained_on(monkeypatch):
        seen = []
        train_run = cli.trainer.train_run

        def capture(train, val, *args, **kwargs):
            seen.append((train, val))
            return train_run(train, val, *args, **kwargs)
        monkeypatch.setattr(cli.trainer, "train_run", capture)
        return seen

    @staticmethod
    def _stores(monkeypatch):
        """The directory and the store of each FrameStore made from here on."""
        made = []

        class Recorded(cli.trainer.FrameStore):
            def __init__(self, directory, n_mels):
                super().__init__(directory, n_mels)
                made.append((Path(directory), self))
        monkeypatch.setattr(cli.trainer, "FrameStore", Recorded)
        return made

    @pytest.mark.parametrize("audio_aug,kept", [
        (None, False),
        ({}, False),
        ({"n_f": 1, "w_f": 4, "p_ms": 0.5, "alpha": 0.3}, False),
        ({"g_max": 3}, False),
        ({"n_t": 2, "w_t": 4}, True),
    ])
    def test_train(self, tmp_path, monkeypatch, audio_aug, kept):
        seen, stores = self._splits_trained_on(monkeypatch), self._stores(monkeypatch)
        extra = {} if audio_aug is None else {"audio_aug": audio_aug}
        assert main(["train", "--config", str(write_config(tmp_path, **extra))]) == 0
        [(train, val)] = seen
        assert (train.mels is not None) == kept
        assert val.mels is None
        out = tmp_path / "out"
        assert stores == ([(out, train.mels)] if kept else [])
        if kept:  # and closed once training is done
            assert train.mels._file.closed
        assert sorted(os.listdir(out)) == ["checkpoint.json", "metrics.csv", "run_result.json"]

    def test_smbo_space_reads_frames(self, tmp_path, monkeypatch):
        """The search samples time stripes, so smbo keeps the training frames."""
        seen, stores = self._splits_trained_on(monkeypatch), self._stores(monkeypatch)
        cfg = write_config_with_bt_cache(tmp_path)
        assert main(["smbo", "--config", str(cfg), "--n-init", "2", "--n-trials", "2"]) == 0
        assert len(seen) == 2
        assert all(train.mels is not None and val.mels is None for train, val in seen)
        assert stores == [(tmp_path / "out", seen[0][0].mels)] and seen[0][0].mels._file.closed
        assert os.listdir(tmp_path / "out") == ["trials.jsonl"]

    def test_closed_when_preparation_fails(self, tmp_path, monkeypatch, capsys):
        """A time-striped train whose third clip cannot be read stops at that record; the
        store it opened is closed, and out_dir holds nothing."""
        cfg = write_manifest_config(tmp_path, audio_aug={"n_t": 2, "w_t": 4})
        manifest = tmp_path / "ds" / "train.jsonl"
        audio = json.loads(manifest.read_text().splitlines()[2])["audio"]
        (tmp_path / "ds" / audio).unlink()
        stores = self._stores(monkeypatch)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: line 3: cannot read {audio!r}: ")
        assert len(err.splitlines()) == 1
        [(directory, store)] = stores
        assert directory == tmp_path / "out" and len(store) == 2 and store._file.closed
        assert os.listdir(tmp_path / "out") == []


class TestManifestSplits:
    """Manifest splits are decoded one record at a time, and a bad record stops the
    command at that record."""

    @staticmethod
    def _spoil(tmp_path, split, record):
        """Replace line 2 of the split's manifest with ``record``; line 3's WAV goes missing."""
        manifest = tmp_path / "ds" / f"{split}.jsonl"
        lines = manifest.read_text().splitlines()
        (tmp_path / "ds" / json.loads(lines[2])["audio"]).unlink()
        manifest.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
        return manifest

    @pytest.mark.parametrize("command,split", [("train", "train"), ("train", "val"),
                                               ("eval", "test"), ("smbo", "train")])
    def test_record_without_captions_exit_2(self, tmp_path, capsys, command, split):
        cfg = write_manifest_config(tmp_path)
        if command == "eval":  # eval reads the checkpoint before the split
            assert main(["train", "--config", str(cfg)]) == 0
        if command == "smbo":  # a search needs a cache before it decodes any clip
            doc = json.loads(cfg.read_text())
            doc["paths"]["bt_cache"] = str(tmp_path / "bt.jsonl")
            (tmp_path / "bt.jsonl").write_text("")
            cfg.write_text(json.dumps(doc))
        manifest = self._spoil(tmp_path, split, {"audio": f"{split}/x.wav", "captions": []})
        argv = {"train": [], "eval": ["--checkpoint", str(tmp_path / "out" / "checkpoint.json")],
                "smbo": ["--n-init", "2", "--n-trials", "3"]}[command]
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {manifest}: line 2: item '{split}/x.wav' has no captions\n"

    @pytest.mark.parametrize("dataset", ["", "ds"])
    def test_manifest_that_cannot_be_opened_exit_2(self, tmp_path, monkeypatch, capsys,
                                                   dataset):
        """An empty path reads as the current directory; a directory is no manifest."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ds").mkdir()
        cfg = write_config(tmp_path, data=None, paths={"out_dir": str(tmp_path / "out"),
                                                       "dataset": dataset})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: {Path(dataset)}: cannot open the manifest: Is a directory\n"
        assert os.listdir(tmp_path / "out") == []

    def test_unreadable_wav_exit_2(self, tmp_path, capsys):
        cfg = write_manifest_config(tmp_path)
        rec = json.loads((tmp_path / "ds" / "train.jsonl").read_text().splitlines()[1])
        manifest = self._spoil(tmp_path, "train", rec)
        (tmp_path / "ds" / rec["audio"]).write_bytes(b"RIFF but not a wave file")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}: line 2: cannot read {rec['audio']!r}: ")

    @pytest.mark.parametrize("command,split", [("train", "train"), ("eval", "test")])
    def test_non_finite_sample_exit_2(self, tmp_path, capsys, command, split):
        """One NaN sample stops the command at its record. Let through, it ranked its
        clip first for every query in eval (NaN compares false), and ended train in a
        non-finite loss."""
        cfg = write_manifest_config(tmp_path)
        if command == "eval":  # eval reads the checkpoint before the split
            assert main(["train", "--config", str(cfg)]) == 0
        manifest = tmp_path / "ds" / f"{split}.jsonl"
        audio = json.loads(manifest.read_text().splitlines()[1])["audio"]
        wav = data.load_wav(tmp_path / "ds" / audio)
        wav.samples[100] = np.nan
        save_wav(tmp_path / "ds" / audio, wav)
        checkpoint = tmp_path / "out" / "checkpoint.json"
        argv = ["--checkpoint", str(checkpoint)] if command == "eval" else []
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 2: cannot read {audio!r}: non-finite sample (NaN or "
            f"infinity) in {tmp_path / 'ds' / audio}\n")
        assert not (tmp_path / "out" / "eval_test.json").exists()

    def test_wav_shorter_than_a_hop_exit_2(self, tmp_path, capsys):
        cfg = write_manifest_config(tmp_path)
        rec = json.loads((tmp_path / "ds" / "val.jsonl").read_text().splitlines()[1])
        save_wav(tmp_path / "ds" / rec["audio"], Waveform(np.full(100, 0.1), 32000))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"error: clip {rec['audio']!r}: waveform of 100 "
                                           "samples shorter than one hop (320)\n")

    def test_split_is_prepared_one_clip_at_a_time(self, tmp_path):
        (tmp_path / "train").mkdir()
        with open(tmp_path / "train.jsonl", "w") as fh:
            for audio_id, w, caps in synth_dataset(3, 40, 0, sample_rate=44100, duration=1.0):
                save_wav(tmp_path / "train" / f"{audio_id}.wav", w)
                fh.write(json.dumps({"audio": f"train/{audio_id}.wav", "captions": caps}) + "\n")
        cfg = load_config(write_config(tmp_path, data=None, paths={
            "dataset": str(tmp_path / "train.jsonl")}))
        clip = w.samples.nbytes  # decoded float64 bytes of one clip
        del w
        tracemalloc.start()
        try:
            split = cli.trainer.prepare_split(cli._load_split(cfg, "train"), cfg.features)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(split) == 40
        # decoding the whole split first would hold all 40 clips at once
        assert peak - kept < 6 * clip

    @staticmethod
    def _no_c_library(name):
        raise OSError("no C library")

    @pytest.mark.parametrize("libc", [lambda name: SimpleNamespace(),  # no mallopt in it
                                      _no_c_library])
    def test_runs_without_mallopt(self, tmp_path, monkeypatch, libc):
        monkeypatch.setattr(cli.ctypes, "CDLL", libc)
        assert main(["train", "--config", str(write_config(tmp_path))]) == 0

    def test_heap_top_pad_set_once_per_command(self, tmp_path, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert main(["train", "--config", str(write_config(tmp_path))]) == 0
        assert calls == [(-2, 16 << 20)]


class TestOutsideFiles:
    """A lexicon or back-translation cache that cannot be used stops the command
    with exit 2, naming the key and the file."""

    @pytest.mark.parametrize("key,text,message", [
        ("synonym_lexicon", '{"rain": ["drizzle"', "Expecting ',' delimiter"),
        ("synonym_lexicon", '["rain"]', "expected a JSON object of word -> list of synonyms"),
        ("bt_cache", '{"source": "a", "pivot": "de", "result": "a"}\n{"source": ',
         "line 2: bad record: JSONDecodeError"),
        ("bt_cache", '{"source": "a", "result": "a"}\n', "line 1: bad record: KeyError('pivot')"),
        ("synonym_lexicon", '{"rain": ["drizzle", 7]}', "list of synonyms (strings)"),
        ("bt_cache", '{"source": "a", "pivot": "de", "result": 5}\n',
         "line 1: bad record: TypeError('source, pivot and result must be strings')"),
    ])
    @pytest.mark.parametrize("command", ["train", "smbo"])
    def test_malformed_file_exit_2(self, tmp_path, capsys, key, text, message, command):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        cfg = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"), key: str(bad)})
        argv = ["--n-init", "2", "--n-trials", "3"] if command == "smbo" else []
        assert main([command, "--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: paths.{key}: {bad}: ") and message in err
        assert not any((tmp_path / "out" / name).exists() for name in ("run_result.json",
                                                                       "trials.jsonl"))

    @pytest.mark.parametrize("command", ["augment-preview", "bt-cache"])
    def test_non_string_cache_result_exit_2(self, tmp_path, capsys, command):
        """A cache whose results are not strings stops the command as it is loaded, not
        where a back translation would first be used."""
        cfg = write_config(tmp_path)
        captions = [c for _, _, caps in cli._load_split(load_config(cfg), "train") for c in caps]
        cache = tmp_path / "bt.jsonl"
        cache.write_text("".join(json.dumps({"source": c, "pivot": p, "result": 5}) + "\n"
                                 for c in captions for p in text_aug.PIVOTS))
        (tmp_path / "captions.txt").write_text(captions[0] + "\n")
        cfg = write_config(tmp_path, text_aug={"p_bt": 1.0},
                           paths={"out_dir": str(tmp_path / "out"), "bt_cache": str(cache)})
        argv = {"augment-preview": ["augment-preview", "--config", str(cfg), "--mode", "text",
                                    "--input", captions[0]],
                "bt-cache": ["bt-cache", "--captions", str(tmp_path / "captions.txt"),
                             "--out", str(cache)]}[command]
        assert main(argv) == 2
        key = "paths.bt_cache: " if command == "augment-preview" else ""
        assert capsys.readouterr().err == (f"error: {key}{cache}: line 1: bad record: "
                                           "TypeError('source, pivot and result must be strings')\n")


class TestUnusableOutDir:
    """A ``paths.out_dir`` that names a file, or a path under one, stops train, smbo and
    augment-preview with exit 2 before any clip is decoded."""

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["train", "smbo", "augment-preview"])
    def test_exit_2_before_decoding(self, tmp_path, monkeypatch, capsys, command, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker / "out" if under else blocker
        cfg = str(write_config(tmp_path, paths={"out_dir": str(out)}))
        wav = tmp_path / "clip.wav"
        save_wav(wav, Waveform(np.zeros(1600), 16000))
        decoded = []
        monkeypatch.setattr(cli, "_load_split", lambda *a: decoded.append(a))
        monkeypatch.setattr(cli.data, "load_wav", lambda *a: decoded.append(a))
        argv = {"train": ["train", "--config", cfg],
                "smbo": ["smbo", "--config", cfg, "--n-init", "2", "--n-trials", "2"],
                "augment-preview": ["augment-preview", "--config", cfg, "--mode", "audio",
                                    "--input", str(wav)]}[command]
        assert main(argv) == 2
        reason = "Not a directory" if under else "File exists"
        assert capsys.readouterr().err == f"error: paths.out_dir: {out}: {reason}\n"
        assert decoded == []
        assert blocker.read_text() == "not a directory"


def one_error_line(capsys) -> str:
    """The one line that a failed command wrote to stderr, which starts with ``error: ``."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err.rstrip("\n")


class TestUsageErrors:
    """Input that a command cannot take ends it with exit 2 and one ``error:`` line naming
    the path or flag, not with a traceback."""

    def test_preview_caption_missing_from_cache(self, tmp_path, capsys):
        cache = tmp_path / "bt.jsonl"
        cache.write_text(json.dumps({"source": "x", "pivot": "es", "result": "y"}) + "\n")
        cfg = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"),
                                            "bt_cache": str(cache)}, text_aug={"p_bt": 1.0})
        assert main(["augment-preview", "--config", str(cfg), "--mode", "text",
                     "--input", "rain falls"]) == 2
        assert one_error_line(capsys) == \
            f"error: paths.bt_cache: {cache}: no entry for ('rain falls', 'es')"

    @pytest.mark.parametrize("command", ["augment-preview", "bt-cache"])
    def test_text_input_not_utf8(self, tmp_path, capsys, command):
        bad = tmp_path / "captions.txt"
        bad.write_bytes(b"\xff\xfe")
        cfg = str(write_config(tmp_path))
        argv, flag = {
            "augment-preview": (["--config", cfg, "--mode", "text", "--input", str(bad)],
                                "--input"),
            "bt-cache": (["--captions", str(bad), "--out", str(tmp_path / "c.jsonl")],
                         "--captions")}[command]
        assert main([command, *argv]) == 2
        assert one_error_line(capsys).startswith(f"error: {flag}: {bad}: not UTF-8 text: ")
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_bt_cache_out_unusable(self, tmp_path, capsys, where):
        captions = tmp_path / "captions.txt"
        captions.write_text("rain falls\n")
        out = tmp_path / "adir" if where == "directory" else tmp_path / "nodir" / "c.jsonl"
        (tmp_path / "adir").mkdir()
        assert main(["bt-cache", "--captions", str(captions), "--out", str(out)]) == 2
        reason = "Is a directory" if where == "directory" else f"no directory {out.parent}"
        assert one_error_line(capsys) == f"error: --out: {out}: {reason}"
        assert os.listdir(tmp_path / "adir") == [] and not (tmp_path / "nodir").exists()

    def test_eval_out_is_a_directory(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        monkeypatch.setattr(cli, "_load_split", lambda *a: pytest.fail("split decoded"))
        capsys.readouterr()
        adir = tmp_path / "adir"
        adir.mkdir()
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "out" / "checkpoint.json"), "--out", str(adir)]) == 2
        assert one_error_line(capsys) == f"error: --out: {adir}: Is a directory"

    def test_synth_data_out_is_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        assert main(["synth-data", "--config", str(write_config(tmp_path)),
                     "--out", str(afile)]) == 2
        assert one_error_line(capsys) == f"error: --out: {afile}: File exists"
        assert afile.read_text() == "kept"

    def test_preview_negative_seed(self, tmp_path, capsys):
        assert main(["augment-preview", "--config", str(write_config(tmp_path)), "--mode", "text",
                     "--input", "rain", "--seed", "-1"]) == 2
        assert one_error_line(capsys) == "error: --seed: must be >= 0, got -1"

    @pytest.mark.parametrize("flag", ["--n-trials", "--n-init"])
    def test_smbo_count_below_one(self, tmp_path, capsys, flag):
        assert main(["smbo", "--config", str(write_config(tmp_path)), flag, "0"]) == 2
        assert one_error_line(capsys) == f"error: {flag}: must be >= 1, got 0"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "synth-data"])
    def test_synthetic_clip_of_no_samples(self, tmp_path, capsys, command):
        assert main(["train", "--config", str(write_config(tmp_path))]) == 0  # eval's checkpoint
        cfg = write_config(tmp_path, paths={"out_dir": str(tmp_path / "bad")}, data={
            "synthetic": {"n_train": 4, "n_val": 2, "n_test": 2, "duration": 1e-9}})
        argv = {"train": [], "synth-data": ["--out", str(tmp_path / "ds")],
                "eval": ["--checkpoint", str(tmp_path / "out" / "checkpoint.json")]}[command]
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *argv]) == 2
        assert one_error_line(capsys) == ("error: data.synthetic: duration 1e-09 s at "
                                          "sample_rate 32000 gives a clip of no samples")
        assert not (tmp_path / "bad").exists() and not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("command", ["train", "smbo"])
    @pytest.mark.parametrize("sizes,message", [
        ({"n_val": 0}, "val split is empty"),
        ({"n_train": 1}, "train split has 1 clip(s); contrastive training needs >= 2"),
    ], ids=["empty val", "one train clip"])
    def test_splits_no_run_can_train_on(self, tmp_path, capsys, command, sizes, message):
        """smbo stops before its first trial, as train does, and writes no trials log."""
        synthetic = {"n_classes": 3, "n_train": 18, "n_val": 9, "n_test": 9, "duration": 0.2}
        cfg = write_config_with_bt_cache(tmp_path, data={"synthetic": {**synthetic, **sizes}})
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--n-init", "1", "--n-trials", "2"]
                    if command == "smbo" else [command, "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == f"error: {message}"
        assert os.listdir(tmp_path / "out") == []


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
        """With gain alone, every value of the preview moves by one g ln(10) / 10; frequency
        stripes then zero whole bins of that same gained log-mel."""
        wav = tmp_path / "clip.wav"
        save_wav(wav, next(synth_dataset(2, 1, 0, duration=0.2))[1])

        def preview(audio_aug):
            cfg = write_config(tmp_path, audio_aug=audio_aug)
            assert main(["augment-preview", "--config", str(cfg), "--mode", "audio",
                         "--input", str(wav), "--seed", "0"]) == 0
            return [np.loadtxt(tmp_path / "out" / f"preview_{name}.csv", delimiter=",")
                    for name in ("before", "after")]

        before, gained = preview({"g_max": 6})
        moved = gained - before
        assert before.shape == gained.shape and before.size > 0
        assert np.ptp(moved) <= 1e-12 and 0.0 < abs(moved[0, 0]) <= 6 * np.log(10.0) / 10.0
        _, striped = preview({"g_max": 6, "n_f": 1, "w_f": 4})
        zeroed = np.all(striped == 0.0, axis=1)
        assert 1 <= zeroed.sum() <= 4
        assert np.array_equal(striped[~zeroed], gained[~zeroed])

    def test_audio_mode_draws_as_training_does(self, tmp_path):
        """The preview draws a clip's gain and then its stripes from its seed, as training
        does: its CSVs are the log-mel, and that log-mel shifted by the gain with each stripe
        zeroed as it is drawn, byte for byte."""
        wav = tmp_path / "clip.wav"
        save_wav(wav, next(synth_dataset(2, 1, 0, duration=0.3))[1])
        cfg = write_config(tmp_path, audio_aug={"g_max": 6, "n_f": 1, "w_f": 8, "n_t": 3,
                                                "w_t": 10})
        assert main(["augment-preview", "--config", str(cfg), "--mode", "audio",
                     "--input", str(wav), "--seed", "5"]) == 0
        feat = load_config(cfg).features
        before = data.logmel(data.resample_linear(data.load_wav(wav), feat.target_sr), feat).values
        rng = np.random.default_rng(5)
        gained = before + audio_aug.LOG_MEL_PER_DB * audio_aug.sample_gain(rng, 6)
        after = spec_augment(gained, 1, 8, 3, 10, rng)
        assert np.any(after == 0.0) and np.any(after != gained)
        for name, values in (("before", before), ("after", after)):
            expected = io.StringIO()
            np.savetxt(expected, values, delimiter=",")
            assert (tmp_path / "out" / f"preview_{name}.csv").read_text() == expected.getvalue()

    def test_missing_audio_input_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["augment-preview", "--config", str(cfg), "--mode", "audio",
                     "--input", str(tmp_path / "none.wav")]) == 2

    def test_audio_input_not_a_wav_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        text = tmp_path / "notes.txt"
        text.write_text("not audio")
        assert main(["augment-preview", "--config", str(cfg), "--mode", "audio",
                     "--input", str(text)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot use {text}: ")
        assert os.listdir(tmp_path / "out") == []  # made first, and nothing written


class TestBtCache:
    def test_mock_cardinality(self, tmp_path, capsys):
        caps = tmp_path / "caps.txt"
        caps.write_text("one\ntwo\nthree\n")
        out = tmp_path / "cache.jsonl"
        assert main(["bt-cache", "--captions", str(caps), "--out", str(out)]) == 0
        assert "9 new entries" in capsys.readouterr().out
        assert text_aug.TranslationCache.load(out).entries == {
            (c, p): f"{c} via {p}" for c in ("one", "two", "three") for p in text_aug.PIVOTS}

    def test_rerun_zero_new(self, tmp_path, capsys):
        caps = tmp_path / "caps.txt"
        caps.write_text("one\n")
        out = tmp_path / "cache.jsonl"
        main(["bt-cache", "--captions", str(caps), "--out", str(out)])
        capsys.readouterr()
        main(["bt-cache", "--captions", str(caps), "--out", str(out)])
        assert "0 new entries" in capsys.readouterr().out

    def test_empty_captions_ok(self, tmp_path):
        caps = tmp_path / "caps.txt"
        caps.write_text("")
        out = tmp_path / "cache.jsonl"
        assert main(["bt-cache", "--captions", str(caps), "--out", str(out)]) == 0
        assert out.exists()

    def test_malformed_existing_cache_exit_2(self, tmp_path, capsys):
        caps = tmp_path / "caps.txt"
        caps.write_text("one\n")
        out = tmp_path / "cache.jsonl"
        out.write_text('{"source": "one", "pivot": "de"}\n')
        assert main(["bt-cache", "--captions", str(caps), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {out}: line 1: bad record: KeyError('result')\n"
        assert out.read_text() == '{"source": "one", "pivot": "de"}\n'


class TestSynthData:
    def test_writes_manifests_and_wavs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "dataset"
        assert main(["synth-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "train: 18 items\nval: 9 items\ntest: 9 items\n"
        for split, n in (("train", 18), ("val", 9), ("test", 9)):
            manifest = out / f"{split}.jsonl"
            assert manifest.exists()
            assert len(manifest.read_text().splitlines()) == n

    def test_manifest_bytes(self, tmp_path):
        """The manifests hold one JSON line per clip, in the split's order."""
        cfg = write_config(tmp_path)
        out = tmp_path / "dataset"
        assert main(["synth-data", "--config", str(cfg), "--out", str(out)]) == 0
        for split in ("train", "val", "test"):
            expected = "".join(
                json.dumps({"audio": f"{split}/{audio_id}.wav", "captions": caps}) + "\n"
                for audio_id, _, caps in cli._load_split(load_config(cfg), split))
            assert (out / f"{split}.jsonl").read_bytes() == expected.encode()

    def test_failed_clip_leaves_no_manifest(self, tmp_path, monkeypatch):
        saved, real = [], data.save_wav

        def save_wav(path, w):
            if len(saved) == 2:
                raise OSError("disk full")
            saved.append(path)
            real(path, w)
        monkeypatch.setattr(data, "save_wav", save_wav)
        cfg = write_config(tmp_path)
        out = tmp_path / "dataset"
        with pytest.raises(OSError, match="disk full"):
            main(["synth-data", "--config", str(cfg), "--out", str(out)])
        assert sorted(p.name for p in out.iterdir()) == ["train"]
        assert len(list((out / "train").iterdir())) == 2

    def test_manifest_loads_back(self, tmp_path):
        from audioretrieval.data import load_manifest

        cfg = write_config(tmp_path)
        out = tmp_path / "dataset"
        main(["synth-data", "--config", str(cfg), "--out", str(out)])
        ds = load_manifest(out / "val.jsonl", audio_root=out)
        assert len(ds) == 9
        assert all(caps for _, _, caps in ds.items)


_WITHOUT_SCIPY = """
import importlib.abc, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
from audioretrieval.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules
                if m.partition(".")[0] in ("scipy", "ssl") or m == "urllib.request")
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _run_without_scipy(commands: list[list[str]]) -> dict:
    src = str(Path(audioretrieval.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(commands)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_run_without_scipy(tmp_path):
    """The program needs numpy and the standard library only: with scipy blocked, the
    commands run on WAV files they wrote, and neither scipy nor ssl is ever loaded."""
    synthetic = write_config(tmp_path)
    (tmp_path / "manifest").mkdir()
    cfg = write_config(tmp_path / "manifest", data=None, paths={
        "out_dir": str(tmp_path / "out"), "bt_cache": str(tmp_path / "bt.jsonl"),
        **{key: str(tmp_path / "ds" / f"{split}.jsonl") for key, split in
           (("dataset", "train"), ("val_dataset", "val"), ("test_dataset", "test"))},
    })
    ds = tmp_path / "ds"
    assert _run_without_scipy([["synth-data", "--config", str(synthetic), "--out", str(ds)]]) == {
        "codes": [0], "loaded": []}
    records = [json.loads(line) for line in (ds / "train.jsonl").read_text().splitlines()]
    (tmp_path / "captions.txt").write_text("".join(c + "\n" for r in records for c in r["captions"]))
    result = _run_without_scipy([
        ["bt-cache", "--captions", str(tmp_path / "captions.txt"), "--out",
         str(tmp_path / "bt.jsonl")],
        ["train", "--config", str(cfg)],
        ["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "out" / "checkpoint.json")],
        ["smbo", "--config", str(cfg), "--n-init", "2", "--n-trials", "3"],
    ])
    assert result == {"codes": [0, 0, 0, 0], "loaded": []}
    trials = (tmp_path / "out" / "trials.jsonl").read_text().splitlines()
    assert [json.loads(t)["status"] != "failed" for t in trials] == [True] * 3
