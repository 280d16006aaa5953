import os
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from audioretrieval.data import (
    STFT_BLOCK,
    FeatureConfig,
    ManifestError,
    MelSpectrogram,
    NormStats,
    Waveform,
    build_vocab,
    _filterbank,
    freq_normalize,
    iter_manifest,
    load_manifest,
    load_wav,
    logmel,
    mel_filterbank,
    mel_stats,
    preprocess_caption,
    resample_linear,
    save_wav,
    synth_dataset,
    tokenize,
    write_atomic,
)

import stft_reference
from frame_reference import apply_map


class TestLoadWav:
    def test_int16_fullscale(self, tmp_path):
        path = tmp_path / "a.wav"
        wavfile.write(path, 8000, np.array([32767, -32768, 0], dtype=np.int16))
        w = load_wav(path)
        assert w.sample_rate == 8000
        assert w.samples[0] == pytest.approx(32767 / 32768)
        assert w.samples[1] == -1.0

    def test_all_zero(self, tmp_path):
        path = tmp_path / "z.wav"
        wavfile.write(path, 8000, np.zeros(100, dtype=np.int16))
        assert np.all(load_wav(path).samples == 0.0)

    def test_stereo_downmix(self, tmp_path):
        path = tmp_path / "s.wav"
        frames = np.array([[1.0, -1.0], [0.5, 0.5]], dtype=np.float32)
        wavfile.write(path, 8000, frames)
        w = load_wav(path)
        assert w.samples[0] == 0.0
        assert w.samples[1] == 0.5

    def test_int32(self, tmp_path):
        path = tmp_path / "i.wav"
        wavfile.write(path, 8000, np.array([2**31 - 1, 0], dtype=np.int32))
        assert load_wav(path).samples[0] == pytest.approx(1.0, abs=1e-6)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a riff file at all")
        with pytest.raises(ValueError):
            load_wav(path)


class TestResample:
    def test_identity_rate(self):
        w = Waveform(np.array([0.1, 0.2, 0.3]), 8000)
        out = resample_linear(w, 8000)
        assert np.array_equal(out.samples, w.samples)

    def test_constant_signal(self):
        w = Waveform(np.full(100, 0.25), 8000)
        out = resample_linear(w, 12000)
        assert np.allclose(out.samples, 0.25)

    def test_ramp_midpoints(self):
        w = Waveform(np.array([0.0, 1.0, 2.0, 3.0]), 1000)
        out = resample_linear(w, 2000)
        # positions 0, 0.5, 1.0, ... -> midpoints between neighbors
        assert out.samples[1] == pytest.approx(0.5)
        assert out.samples[3] == pytest.approx(1.5)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            resample_linear(Waveform(np.ones(4), 8000), 0)


class TestLogmel:
    def test_frame_count_one_second(self):
        w = Waveform(np.random.default_rng(0).normal(0, 0.1, 32000), 32000)
        m = logmel(w, FeatureConfig())
        assert m.values.shape == (64, 101)
        assert m.n_frames_valid == 101

    def test_silence_hits_floor(self):
        w = Waveform(np.zeros(3200), 32000)
        m = logmel(w, FeatureConfig())
        assert np.allclose(m.values, np.log(1e-10))

    def test_power_scaling(self):
        t = np.arange(32000) / 32000
        w = Waveform(0.05 * np.sin(2 * np.pi * 1000 * t), 32000)
        cfg = FeatureConfig()
        m1 = logmel(w, cfg)
        m2 = logmel(Waveform(w.samples * 10, 32000), cfg)
        # only compare cells far from the additive floor
        strong = m1.values > np.log(1e-10) + 8
        assert strong.any()
        diff = m2.values[strong] - m1.values[strong]
        assert np.allclose(diff, np.log(100), atol=1e-3)

    def test_too_short(self):
        with pytest.raises(ValueError):
            logmel(Waveform(np.ones(100), 32000), FeatureConfig())

    def test_rate_mismatch(self):
        with pytest.raises(ValueError):
            logmel(Waveform(np.ones(32000), 16000), FeatureConfig())

    def test_hop_shift_covariance(self):
        rng = np.random.default_rng(3)
        cfg = FeatureConfig()
        x = rng.normal(0, 0.1, 32000)
        m1 = logmel(Waveform(x, 32000), cfg)
        m2 = logmel(Waveform(x[cfg.hop :], 32000), cfg)
        # interior frames of the shifted signal equal shifted columns
        n = m2.values.shape[1]
        assert np.allclose(m1.values[:, 3 : n - 2], m2.values[:, 2 : n - 3], atol=1e-6)

    def test_filterbank_cached_read_only(self):
        cfg = FeatureConfig(n_mels=40)
        fb = mel_filterbank(cfg)
        assert mel_filterbank(FeatureConfig(n_mels=40)) is fb
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0
        fresh = _filterbank.__wrapped__(cfg.n_fft, cfg.n_mels, cfg.target_sr)
        assert fresh is not fb and np.array_equal(fb, fresh)
        assert mel_filterbank(FeatureConfig(n_mels=32)).shape == (32, 513)

    @given(st.integers(min_value=320, max_value=50000))
    @settings(max_examples=25, deadline=None)
    def test_frame_count_formula(self, n):
        cfg = FeatureConfig()
        w = Waveform(np.ones(n) * 0.1, 32000)
        m = logmel(w, cfg)
        assert m.values.shape[1] == 1 + n // cfg.hop

    @given(blocks=st.integers(0, 4), off=st.sampled_from([-1, 0, 1]),
           extra=st.integers(0, 10**6), seed=st.integers(0, 2**32 - 1),
           cfg=st.sampled_from([FeatureConfig(), FeatureConfig(n_fft=256, hop=64, n_mels=16),
                                FeatureConfig(n_fft=400, hop=160, n_mels=40)]))
    @settings(max_examples=60, deadline=None)
    def test_blocked_stft_equals_one_block(self, blocks, off, extra, seed, cfg):
        # frame counts at, just below and just above a multiple of STFT_BLOCK
        n_frames = max(2, blocks * STFT_BLOCK + off)
        n = (n_frames - 1) * cfg.hop + extra % cfg.hop
        w = Waveform(np.random.default_rng(seed).normal(0, 0.3, size=n), cfg.target_sr)
        m = logmel(w, cfg)
        assert m.n_frames_valid == n_frames
        assert np.array_equal(m.values, stft_reference.logmel_values(w, cfg))


class TestFreqNormalize:
    def test_standard_stats_near_identity(self):
        rng = np.random.default_rng(0)
        m = MelSpectrogram(rng.normal(size=(4, 10)), 10)
        stats = NormStats(np.zeros(4), np.ones(4), 1)
        out = apply_map(m, *freq_normalize(mel_stats([m]), stats))
        assert np.allclose(out.values, m.values, atol=5e-6)

    def test_constant_bin_centered(self):
        m = MelSpectrogram(np.full((3, 5), 2.5), 5)
        stats = NormStats(np.full(3, 2.5), np.zeros(3), 1)
        out = apply_map(m, *freq_normalize(mel_stats([m]), stats))
        assert np.allclose(out.values, 0.0)

    def test_update_zero_means_batch(self):
        rng = np.random.default_rng(1)
        m = MelSpectrogram(rng.normal(3, 2, size=(4, 20)), 20)
        stats = NormStats.fresh(4)
        out = apply_map(m, *freq_normalize(mel_stats([m]), stats, update=True))
        assert np.allclose(out.values.mean(axis=1), 0.0, atol=1e-6)
        assert stats.count == 20

    def test_update_ignores_padding(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(4, 10))
        padded = np.concatenate([base, np.zeros((4, 6))], axis=1)
        s1, s2 = NormStats.fresh(4), NormStats.fresh(4)
        freq_normalize(mel_stats([MelSpectrogram(base, 10)]), s1, update=True)
        freq_normalize(mel_stats([MelSpectrogram(padded, 10)]), s2, update=True)
        assert np.allclose(s1.mean, s2.mean)
        assert np.allclose(s1.var, s2.var)


class TestWriteAtomic:
    def test_writes_text(self, tmp_path):
        write_atomic(tmp_path / "a.json", "old")
        write_atomic(tmp_path / "a.json", "new")
        assert (tmp_path / "a.json").read_text() == "new"
        assert os.listdir(tmp_path) == ["a.json"]

    @pytest.mark.parametrize("old", [None, "old bytes"])
    @pytest.mark.parametrize("failure", ["replace", "write"])
    def test_failed_write_leaves_old_file_and_no_temporary(self, tmp_path, old, failure):
        target = tmp_path / "checkpoint.json"
        if old is not None:
            target.write_text(old)
        if failure == "replace":
            with mock.patch.object(os, "replace", side_effect=OSError("disk full")):
                with pytest.raises(OSError):
                    write_atomic(target, "new")
        else:  # the write fails once the temporary file exists
            with pytest.raises(UnicodeEncodeError):
                write_atomic(target, "x" * 100_000 + "\ud800")
        assert os.listdir(tmp_path) == ([] if old is None else ["checkpoint.json"])
        if old is not None:
            assert target.read_text() == old


class TestCaptions:
    def test_table_style_example(self):
        assert preprocess_caption("The rain pours down.") == "the rain pours down"

    def test_empty(self):
        assert preprocess_caption("") == ""

    def test_punctuation_and_case(self):
        assert preprocess_caption("It's RAINING!!") == "its raining"

    def test_whitespace_collapse(self):
        assert preprocess_caption("a\t b   c\n") == "a b c"

    def test_idempotent(self):
        s = preprocess_caption("Some, loud? NOISE!")
        assert preprocess_caption(s) == s

    def test_build_vocab_order(self):
        v = build_vocab(["a b", "b c"])
        assert v.token_to_id == {"a": 2, "b": 3, "c": 4}

    def test_build_vocab_empty(self):
        v = build_vocab([])
        assert len(v) == 2  # PAD + UNK only

    def test_build_vocab_duplicates(self):
        assert build_vocab(["x y", "x y"]).token_to_id == build_vocab(["x y"]).token_to_id

    def test_tokenize_truncates(self):
        v = build_vocab(["w"])
        long = " ".join(["w"] * 40)
        assert tokenize([long], v).shape[1] == 32

    def test_tokenize_empty(self):
        assert tokenize([""], build_vocab([])).shape == (1, 0)

    def test_tokenize_unknown(self):
        v = build_vocab(["known"])
        assert tokenize(["mystery"], v)[0, 0] == 1

    def test_pad_batch(self):
        v = build_vocab(["a b c"])
        batch = tokenize(["a", "a b c"], v)
        assert batch.shape == (2, 3)
        assert list(batch[0]) == [2, 0, 0]


class TestSynthDataset:
    def test_deterministic(self):
        d1 = synth_dataset(4, 10, 7)
        d2 = synth_dataset(4, 10, 7)
        for (i1, w1, c1), (i2, w2, c2) in zip(d1.items, d2.items):
            assert i1 == i2 and c1 == c2
            assert np.array_equal(w1.samples, w2.samples)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            synth_dataset(1, 10, 0)

    def test_same_class_shares_words(self):
        ds = synth_dataset(2, 40, 0)
        by_class = {}
        for audio_id, _, caps in ds.items:
            k = audio_id.rsplit("_c", 1)[1]
            words = set(caps[0].split())
            by_class.setdefault(k, []).append(words)
        for sets in by_class.values():
            common = set.intersection(*sets)
            assert len(common) >= 4  # the class word set survives distractors

    def test_every_item_has_captions(self):
        assert all(caps for _, _, caps in synth_dataset(3, 5, 1).items)


class TestManifest:
    def _write_dataset(self, tmp_path):
        ds = synth_dataset(2, 4, 0, duration=0.05, sample_rate=8000)
        for audio_id, w, _ in ds.items:
            save_wav(tmp_path / f"{audio_id}.wav", w)
        return ds

    def _write_jsonl(self, tmp_path, ds):
        import json

        manifest = tmp_path / "data.jsonl"
        with open(manifest, "w") as fh:
            for audio_id, _, caps in ds.items:
                fh.write(json.dumps({"audio": f"{audio_id}.wav", "captions": caps}) + "\n")
        return manifest

    def _write_csv(self, tmp_path, ds):
        manifest = tmp_path / "data.csv"
        with open(manifest, "w") as fh:
            fh.write("file_name,caption_1,caption_2\n")
            for audio_id, _, caps in ds.items:
                fh.write(f"{audio_id}.wav,{caps[0]},{caps[1]}\n")
        return manifest

    def test_jsonl_roundtrip(self, tmp_path):
        ds = self._write_dataset(tmp_path)
        loaded = load_manifest(self._write_jsonl(tmp_path, ds))
        assert len(loaded) == 4
        assert loaded.items[0][2] == ds.items[0][2]

    def test_csv_roundtrip(self, tmp_path):
        ds = self._write_dataset(tmp_path)
        loaded = load_manifest(self._write_csv(tmp_path, ds))
        assert len(loaded) == 4
        assert loaded.items[1][2][0] == ds.items[1][2][0]

    @pytest.mark.parametrize("kind", ["jsonl", "csv"])
    def test_iter_yields_the_loaded_items(self, tmp_path, kind):
        ds = self._write_dataset(tmp_path)
        manifest = getattr(self, f"_write_{kind}")(tmp_path, ds)
        streamed, loaded = list(iter_manifest(manifest)), load_manifest(manifest).items
        assert len(streamed) == len(loaded) == 4
        for (a_id, a_w, a_caps), (b_id, b_w, b_caps) in zip(streamed, loaded):
            assert a_id == b_id and a_caps == b_caps and a_w.sample_rate == b_w.sample_rate
            assert np.array_equal(a_w.samples, b_w.samples)

    def test_iter_decodes_a_record_only_when_reached(self, tmp_path):
        ds = self._write_dataset(tmp_path)
        manifest = self._write_jsonl(tmp_path, ds)
        (tmp_path / f"{ds.items[1][0]}.wav").unlink()
        items = iter_manifest(manifest)
        assert next(items)[0] == f"{ds.items[0][0]}.wav"
        with pytest.raises(ManifestError, match=r"data\.jsonl: line 2: cannot read"):
            next(items)

    @pytest.mark.parametrize("line,message", [
        ('{"audio": "x.wav", "captions": []}', "has no captions"),
        ('{"audio": "x.wav", "captions": "a dog"}', "captions must be a list of strings"),
        ('{"audio": "x.wav"}', "bad record"),
        ('{"audio": "x.wav", ', "bad record"),
    ])
    def test_bad_jsonl_record_names_its_line(self, tmp_path, line, message):
        ds = self._write_dataset(tmp_path)
        manifest = self._write_jsonl(tmp_path, ds)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:2] + ["", line] + lines[2:]) + "\n")
        with pytest.raises(ManifestError, match=rf"line 4: .*{message}"):
            list(iter_manifest(manifest))

    def test_unreadable_wav_names_its_line(self, tmp_path):
        ds = self._write_dataset(tmp_path)
        manifest = self._write_csv(tmp_path, ds)
        (tmp_path / f"{ds.items[2][0]}.wav").write_bytes(b"not a wav file")
        with pytest.raises(ManifestError, match=r"data\.csv: line 4: cannot read"):
            load_manifest(manifest)

    def test_csv_missing_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("path,caption\nx.wav,hello\n")
        with pytest.raises(ValueError):
            load_manifest(bad)


class TestTypes:
    def test_waveform_empty_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), 8000)

    def test_feature_config_invariants(self):
        with pytest.raises(ValueError):
            FeatureConfig(hop=2048)

    @pytest.mark.parametrize("key,value,message", [
        ("n_fft", 1023, "n_fft must be even"), ("n_fft", 1024.5, "n_fft must be an integer"),
        ("n_fft", True, "n_fft must be an integer"), ("hop", 0, "hop must be >= 1"),
        ("n_mels", 8.0, "n_mels must be an integer"), ("n_mels", 0, "n_mels must be >= 1"),
        ("target_sr", -1, "target_sr must be >= 1"), ("target_sr", "32000", "target_sr must be"),
    ])
    def test_feature_config_checks_each_setting(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            FeatureConfig(**{key: value})

    def test_feature_config_has_four_settings(self):
        assert [f.name for f in fields(FeatureConfig)] == ["n_fft", "hop", "n_mels", "target_sr"]

    def test_tokenize_row_length_cap(self):
        v = build_vocab(["w"])
        ids = tokenize([" ".join(["w"] * n) for n in (31, 32, 40)], v)
        assert ids.shape == (3, 32)
        assert list((ids != 0).sum(axis=1)) == [31, 32, 32]
