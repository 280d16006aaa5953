import io
import os
import struct
import tempfile
import unicodedata
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.io import wavfile

from audioretrieval.data import (
    STFT_BLOCK,
    FeatureConfig,
    ManifestError,
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
    _read_wav,
)

import stft_reference
from conftest import examples
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample_rejected(self, tmp_path, dtype, value):
        path = tmp_path / "nan.wav"
        wavfile.write(path, 8000, np.array([[0.1, 0.2], [0.3, value]], dtype=dtype))
        with pytest.raises(ValueError, match=rf"non-finite sample .* in {path}$"):
            load_wav(path)

    @pytest.mark.parametrize("dtype,bits", [(np.int16, 16), (np.int32, 32)])
    def test_pcm_scaled_exactly(self, tmp_path, dtype, bits):
        path = tmp_path / "pcm.wav"
        info = np.iinfo(dtype)
        raw = np.random.default_rng(bits).integers(info.min, info.max, 1000, endpoint=True,
                                                   dtype=dtype)
        wavfile.write(path, 8000, raw)
        assert np.array_equal(load_wav(path).samples, raw.astype(np.float64) / 2.0 ** (bits - 1))


def _scipy_load_wav(buf: bytes) -> Waveform:
    """Reference: ``scipy.io.wavfile.read``, then load_wav's scaling and downmix."""
    sr, raw = wavfile.read(io.BytesIO(buf))
    samples = raw.astype(np.float64)
    if raw.dtype == np.int16:
        samples = samples / 2**15
    elif raw.dtype == np.int32:
        samples = samples / 2**31
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return Waveform(samples, int(sr))


def _fmt_chunk(tag, channels, rate, bits, extensible=False):
    """A fmt chunk; ``extensible`` wraps ``tag`` in WAVE_FORMAT_EXTENSIBLE."""
    align = channels * bits // 8
    head = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * align,
                       align, bits)
    if extensible:
        guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        head += struct.pack("<HHI", 22, bits, 0) + guid
    return _chunk(b"fmt ", head)


def _chunk(chunk_id, body, size=None):
    """A RIFF chunk, with its pad byte when ``body`` has an odd length."""
    return chunk_id + struct.pack("<I", len(body) if size is None else size) + body + (
        b"\x00" if len(body) % 2 else b"")


def _riff(*chunks, magic=b"RIFF"):
    body = b"WAVE" + b"".join(chunks)
    return magic + struct.pack("<I", len(body)) + body


def _pcm24(values):
    """Little-endian 24-bit PCM bytes of int ``values``."""
    return b"".join(struct.pack("<i", int(v))[:3] for v in values)


def _loaded(buf: bytes) -> Waveform:
    """load_wav of ``buf`` written to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.wav")
        with open(path, "wb") as fh:
            fh.write(buf)
        return load_wav(path)


_RAMP24 = [0, 1, -1, 2**23 - 1, -(2**23), 12345, -54321, 7]


class TestWavReader:
    """load_wav's reader against scipy.io.wavfile, the reader it replaced."""

    @given(dtype=st.sampled_from(["int16", "int32", "float32", "float64"]),
           channels=st.integers(1, 4), frames=st.integers(1, 300),
           rate=st.sampled_from([8000, 16000, 22050, 32000, 44100, 48000]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=examples(80), deadline=None)
    def test_equals_scipy_on_files_scipy_writes(self, dtype, channels, frames, rate, seed):
        rng = np.random.default_rng(seed)
        shape = (frames, channels) if channels > 1 else (frames,)
        if dtype.startswith("int"):
            info = np.iinfo(dtype)
            pcm = rng.integers(info.min, info.max, size=shape, endpoint=True, dtype=dtype)
        else:
            pcm = rng.uniform(-1.0, 1.0, size=shape).astype(dtype)
        fh = io.BytesIO()
        wavfile.write(fh, rate, pcm)
        buf = fh.getvalue()
        sr, raw = _read_wav(buf)
        assert sr == rate and raw.dtype == pcm.dtype and np.array_equal(raw, pcm)
        ours, ref = _loaded(buf), _scipy_load_wav(buf)
        assert ours.sample_rate == ref.sample_rate
        assert np.array_equal(ours.samples, ref.samples)

    @pytest.mark.parametrize("name,buf", [
        ("pcm24 mono", _riff(_fmt_chunk(1, 1, 8000, 24), _chunk(b"data", _pcm24(_RAMP24)))),
        ("pcm24 stereo", _riff(_fmt_chunk(1, 2, 8000, 24), _chunk(b"data", _pcm24(_RAMP24)))),
        ("pcm24, odd-sized data", _riff(_fmt_chunk(1, 1, 8000, 24),
                                        _chunk(b"data", _pcm24(_RAMP24[:3])))),
        ("extensible pcm16", _riff(_fmt_chunk(1, 2, 16000, 16, extensible=True),
                                   _chunk(b"data", np.arange(-6, 6, dtype="<i2").tobytes()))),
        ("extensible pcm24", _riff(_fmt_chunk(1, 1, 16000, 24, extensible=True),
                                   _chunk(b"data", _pcm24(_RAMP24)))),
        ("extensible float32", _riff(_fmt_chunk(3, 3, 48000, 32, extensible=True),
                                     _chunk(b"data", np.linspace(-1, 1, 9, dtype="<f4").tobytes()))),
        ("odd LIST chunk before data", _riff(
            _fmt_chunk(1, 1, 8000, 16), _chunk(b"LIST", b"INFOISFT\x03\x00\x00\x00ab\x00"),
            _chunk(b"data", np.arange(5, dtype="<i2").tobytes()))),
        ("fact and JUNK chunks", _riff(
            _chunk(b"JUNK", b"\x00" * 7), _fmt_chunk(3, 1, 8000, 64),
            _chunk(b"fact", struct.pack("<I", 3)),
            _chunk(b"data", np.array([0.25, -0.5, 1.0], dtype="<f8").tobytes()))),
    ])
    def test_equals_scipy_on_hand_built_files(self, name, buf):
        sr, raw = _read_wav(buf)
        ref_sr, ref = wavfile.read(io.BytesIO(buf))
        assert sr == ref_sr and raw.dtype == ref.dtype and np.array_equal(raw, ref)
        ours = _loaded(buf)
        assert np.array_equal(ours.samples, _scipy_load_wav(buf).samples)

    def test_pcm24_is_left_justified(self):
        buf = _riff(_fmt_chunk(1, 1, 8000, 24), _chunk(b"data", _pcm24(_RAMP24)))
        assert _read_wav(buf)[1].tolist() == [v * 256 for v in _RAMP24]
        assert _loaded(buf).samples[3] == (2**23 - 1) / 2**23

    def test_save_wav_round_trip(self, tmp_path):
        samples = np.random.default_rng(3).uniform(-1.0, 1.0, size=501)
        save_wav(tmp_path / "a.wav", Waveform(samples, 22050))
        sr, raw = wavfile.read(tmp_path / "a.wav")
        assert sr == 22050 and raw.dtype == np.float32
        assert np.array_equal(raw, samples.astype(np.float32))
        wavfile.write(tmp_path / "b.wav", 22050, samples.astype(np.float32))
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


_ONE_PCM16 = _chunk(b"data", np.arange(4, dtype="<i2").tobytes())
_REJECTED_WAVS = {
    "pcm8": _riff(_fmt_chunk(1, 1, 8000, 8), _chunk(b"data", bytes(range(4)))),
    "pcm12": _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 12)),
                   _ONE_PCM16),
    "pcm64": _riff(_fmt_chunk(1, 1, 8000, 64), _chunk(b"data", bytes(16))),
    "a-law": _riff(_fmt_chunk(6, 1, 8000, 8), _chunk(b"data", bytes(4))),
    "float16": _riff(_fmt_chunk(3, 1, 8000, 16), _ONE_PCM16),
    "rifx": b"RIFX" + struct.pack(">I", 36) + b"WAVEfmt " + struct.pack(
        ">IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16) + b"data" + struct.pack(">I", 8) + bytes(8),
    "rf64": b"RF64\xff\xff\xff\xffWAVE" + _chunk(b"ds64", struct.pack("<QQQI", 80, 8, 4, 0))
            + _fmt_chunk(1, 1, 8000, 16) + b"data\xff\xff\xff\xff" + bytes(8),
    "no fmt chunk": _riff(_ONE_PCM16),
    "no data chunk": _riff(_fmt_chunk(1, 1, 8000, 16)),
    "data cut short": _riff(_fmt_chunk(1, 1, 8000, 16),
                            _chunk(b"data", bytes(6), size=8)),
    "data not whole frames": _riff(_fmt_chunk(1, 2, 8000, 16), _chunk(b"data", bytes(6))),
}


@pytest.mark.parametrize("name", sorted(_REJECTED_WAVS))
def test_rejected_wav_variant(tmp_path, name):
    (tmp_path / "x.wav").write_bytes(_REJECTED_WAVS[name])
    with pytest.raises(ValueError, match="unsupported WAV format"):
        load_wav(tmp_path / "x.wav")
    manifest = tmp_path / "data.jsonl"
    manifest.write_text('{"audio": "ok.wav", "captions": ["a"]}\n'
                        '{"audio": "x.wav", "captions": ["b"]}\n')
    save_wav(tmp_path / "ok.wav", Waveform(np.zeros(8), 8000))
    with pytest.raises(ManifestError, match=r"data\.jsonl: line 2: cannot read 'x\.wav'"):
        list(iter_manifest(manifest))


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

    @given(arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e300, 1e300)),
           st.integers(1, 48000), st.integers(1, 48000))
    @example(np.array([0.5]), 8000, 44100)
    @example(np.array([1.0, -2.0, 3.0]), 3, 7)
    @settings(max_examples=examples(100), deadline=None)
    def test_equals_interp(self, samples, rate, target):
        """Linear interpolation between neighbours equals ``np.interp`` over the sample
        positions (compared as numbers: a -0.0 on a whole position may read +0.0)."""
        n_out = len(samples) * target // rate
        assume(n_out > 0)  # an empty result is no Waveform
        out = resample_linear(Waveform(samples, rate), target).samples
        expected = np.interp(np.arange(n_out) * (rate / target), np.arange(len(samples)), samples)
        assert out.shape == expected.shape and np.array_equal(out, expected)


class TestLogmel:
    def test_frame_count_one_second(self):
        w = Waveform(np.random.default_rng(0).normal(0, 0.1, 32000), 32000)
        m = logmel(w, FeatureConfig())
        assert m.values.shape == (64, 101)

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
    @settings(max_examples=examples(25), deadline=None)
    def test_frame_count_formula(self, n):
        cfg = FeatureConfig()
        w = Waveform(np.ones(n) * 0.1, 32000)
        m = logmel(w, cfg)
        assert m.values.shape[1] == 1 + n // cfg.hop

    @given(blocks=st.integers(0, 4), off=st.sampled_from([-1, 0, 1]),
           extra=st.integers(0, 10**6), seed=st.integers(0, 2**32 - 1),
           cfg=st.sampled_from([FeatureConfig(), FeatureConfig(n_fft=256, hop=64, n_mels=16),
                                FeatureConfig(n_fft=400, hop=160, n_mels=40)]))
    @settings(max_examples=examples(60), deadline=None)
    def test_blocked_stft_equals_one_block(self, blocks, off, extra, seed, cfg):
        # frame counts at, just below and just above a multiple of STFT_BLOCK
        n_frames = max(2, blocks * STFT_BLOCK + off)
        n = (n_frames - 1) * cfg.hop + extra % cfg.hop
        w = Waveform(np.random.default_rng(seed).normal(0, 0.3, size=n), cfg.target_sr)
        m = logmel(w, cfg)
        assert m.values.shape[1] == n_frames
        assert np.array_equal(m.values, stft_reference.logmel_values(w, cfg))


class TestFreqNormalize:
    def test_standard_stats_near_identity(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 10))
        stats = NormStats(np.zeros(4), np.ones(4), 1)
        out = apply_map(m, *freq_normalize(mel_stats([m]), stats))
        assert np.allclose(out, m, atol=5e-6)

    def test_constant_bin_centered(self):
        m = np.full((3, 5), 2.5)
        stats = NormStats(np.full(3, 2.5), np.zeros(3), 1)
        out = apply_map(m, *freq_normalize(mel_stats([m]), stats))
        assert np.allclose(out, 0.0)

    def test_update_zero_means_batch(self):
        rng = np.random.default_rng(1)
        m = rng.normal(3, 2, size=(4, 20))
        stats = NormStats.fresh(4)
        out = apply_map(m, *freq_normalize(mel_stats([m]), stats, update=True))
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-6)
        assert stats.count == 20



def _mel_stats_reference(mels):
    """Reference: mel_stats as np.mean, np.var and np.max over each clip's frames."""
    return (np.array([v.shape[1] for v in mels], dtype=np.int64),
            *(np.array([f(v, axis=1) for v in mels]) for f in (np.mean, np.var, np.max)))


class TestMelStats:
    @given(lengths=st.lists(st.sampled_from([1, 2, 3, 997, 4000]), min_size=1, max_size=4),
           n_mels=st.integers(1, 64), scale=st.sampled_from([1e-3, 1.0, 30.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=examples(60), deadline=None)
    def test_matches_numpy_reductions(self, lengths, n_mels, scale, seed):
        rng = np.random.default_rng(seed)
        mels = [rng.normal(-5.0, scale, size=(n_mels, t)) for t in lengths]
        got = mel_stats(mels)
        for column, want in zip((got.count, got.mean, got.var, got.max), _mel_stats_reference(mels)):
            assert column.dtype == want.dtype
            assert np.array_equal(column, want)


class TestWriteAtomic:
    def test_writes_text(self, tmp_path):
        write_atomic(tmp_path / "a.json", "old")
        write_atomic(tmp_path / "a.json", "new")
        assert (tmp_path / "a.json").read_text() == "new"
        assert os.listdir(tmp_path) == ["a.json"]

    def test_chunks_write_their_concatenation(self, tmp_path):
        chunks = ["{", '"k": ', "[1, 2]", "", "ü}\n"]
        write_atomic(tmp_path / "a.json", iter(chunks))
        write_atomic(tmp_path / "b.json", "".join(chunks))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("old", [None, "old bytes"])
    def test_raising_chunks_leave_old_file_and_no_temporary(self, tmp_path, old):
        target = tmp_path / "checkpoint.json"
        if old is not None:
            target.write_text(old)

        def chunks():
            yield "x" * 100_000  # more than one write buffer reaches the temporary file
            raise RuntimeError("halfway")

        with pytest.raises(RuntimeError, match="halfway"):
            write_atomic(target, chunks())
        assert os.listdir(tmp_path) == ([] if old is None else ["checkpoint.json"])
        if old is not None:
            assert target.read_bytes() == old.encode()

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


def _preprocess_caption_reference(text: str) -> str:
    """Reference: the punctuation test run on each character in turn."""
    lowered = text.lower()
    stripped = "".join(c for c in lowered if not unicodedata.category(c).startswith("P"))
    return " ".join(stripped.split())


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

    @given(st.text(max_size=80))
    @settings(max_examples=examples(300), deadline=None)
    def test_equals_per_character_reference(self, text):
        assert preprocess_caption(text) == _preprocess_caption_reference(text)

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
        d1 = list(synth_dataset(4, 10, 7))
        d2 = list(synth_dataset(4, 10, 7))
        assert len(d1) == len(d2) == 10
        for (i1, w1, c1), (i2, w2, c2) in zip(d1, d2):
            assert i1 == i2 and c1 == c2
            assert np.array_equal(w1.samples, w2.samples)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            next(synth_dataset(1, 10, 0))

    def test_no_captions_rejected(self):
        with pytest.raises(ValueError, match="captions_per_item must be >= 1"):
            next(synth_dataset(2, 10, 0, captions_per_item=0))

    def test_each_record_made_when_reached(self, monkeypatch):
        """No clip is made before its record is drawn, and a split's first record is the
        same whatever the split's size."""
        made = []
        monkeypatch.setattr("audioretrieval.data.Waveform",
                            lambda *a: made.append(a) or Waveform(*a))
        items = synth_dataset(3, 40, 5)
        assert made == []
        first_id, first_w, first_caps = next(items)
        assert len(made) == 1
        (one_id, one_w, one_caps), = synth_dataset(3, 1, 5)
        assert (one_id, one_caps) == (first_id, first_caps)
        assert np.array_equal(one_w.samples, first_w.samples)

    def test_same_class_shares_words(self):
        by_class = {}
        for audio_id, _, caps in synth_dataset(2, 40, 0):
            k = audio_id.rsplit("_c", 1)[1]
            words = set(caps[0].split())
            by_class.setdefault(k, []).append(words)
        for sets in by_class.values():
            common = set.intersection(*sets)
            assert len(common) >= 4  # the class word set survives distractors

    def test_every_item_has_captions(self):
        assert all(caps for _, _, caps in synth_dataset(3, 5, 1))


class TestManifest:
    def _write_dataset(self, tmp_path):
        ds = list(synth_dataset(2, 4, 0, duration=0.05, sample_rate=8000))
        for audio_id, w, _ in ds:
            save_wav(tmp_path / f"{audio_id}.wav", w)
        return ds

    def _write_jsonl(self, tmp_path, ds):
        import json

        manifest = tmp_path / "data.jsonl"
        with open(manifest, "w") as fh:
            for audio_id, _, caps in ds:
                fh.write(json.dumps({"audio": f"{audio_id}.wav", "captions": caps}) + "\n")
        return manifest

    def _write_csv(self, tmp_path, ds):
        manifest = tmp_path / "data.csv"
        with open(manifest, "w") as fh:
            fh.write("file_name,caption_1,caption_2\n")
            for audio_id, _, caps in ds:
                fh.write(f"{audio_id}.wav,{caps[0]},{caps[1]}\n")
        return manifest

    def test_jsonl_roundtrip(self, tmp_path):
        ds = self._write_dataset(tmp_path)
        loaded = load_manifest(self._write_jsonl(tmp_path, ds))
        assert len(loaded) == 4
        assert loaded.items[0][2] == ds[0][2]

    def test_csv_roundtrip(self, tmp_path):
        ds = self._write_dataset(tmp_path)
        loaded = load_manifest(self._write_csv(tmp_path, ds))
        assert len(loaded) == 4
        assert loaded.items[1][2][0] == ds[1][2][0]

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
        (tmp_path / f"{ds[1][0]}.wav").unlink()
        items = iter_manifest(manifest)
        assert next(items)[0] == f"{ds[0][0]}.wav"
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
        (tmp_path / f"{ds[2][0]}.wav").write_bytes(b"not a wav file")
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
