from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from audioretrieval import audio_aug
from audioretrieval.audio_aug import (
    LOG_MEL_PER_DB,
    AudioAugConfig,
    freq_mixstyle,
    sample_gain,
    stripe_masks,
)
from audioretrieval.data import (
    LOG_FLOOR,
    FeatureConfig,
    NormStats,
    Waveform,
    freq_normalize,
    logmel,
    mel_stats,
)
from audioretrieval.trainer import PreparedSplit, pooled_audio

from aug_reference import apply_gain, spec_augment
from conftest import examples, forced_mix_lambdas, random_mel_batch
from frame_reference import apply_map


def mixed(batch, maps):
    """The frames of ``batch`` under each clip's Freq-MixStyle map."""
    return [apply_map(m, *(a[i] for a in maps)) for i, m in enumerate(batch)]


def pooled_gain_shift(g: float, frames=None) -> np.ndarray:
    """The per-bin shift of the log-mel [n_mels] that ``trainer.pooled_audio`` applies to
    a clip for a drawn gain of g dB: its pooled input with that gain minus without, under
    the running statistics' scale."""
    if frames is None:
        frames = np.random.default_rng(0).uniform(-20.0, 5.0, size=(4, 7))
    split = PreparedSplit(FeatureConfig(n_mels=len(frames)), None, mel_stats([frames]),
                          [["a clip"]])
    norm = NormStats.fresh(len(frames))
    _, scale = freq_normalize(split.stats, norm)

    def pooled(gain):
        with mock.patch.object(audio_aug, "sample_gain", lambda rng, g_max: gain):
            return pooled_audio(split, np.array([0]), norm, False, AudioAugConfig(g_max=6),
                                np.random.default_rng(0))[0]
    return (pooled(g) - pooled(0.0)) / scale


class TestGainShift:
    """Gain as the shift g ln(10) / 10 of the log-mel, against the log-mel of the gained
    waveform: STFT and filterbank are linear, so the two differ only through LOG_FLOOR."""

    FEAT = FeatureConfig(n_fft=256, hop=128, n_mels=16, target_sr=8000)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(128, 4000),
           amplitude=st.floats(1e-3, 1.0), g=st.floats(-6.0, 6.0))
    @settings(max_examples=examples(50), deadline=None)
    def test_within_floor_bound_of_gained_waveform(self, seed, n, amplitude, g):
        w = Waveform(np.random.default_rng(seed).uniform(-amplitude, amplitude, n), 8000)
        m = logmel(w, self.FEAT)
        ref = logmel(apply_gain(w, g), self.FEAT)
        assert m.values.shape == ref.values.shape
        shifted = m.values + LOG_MEL_PER_DB * g
        power = np.exp(m.values) - LOG_FLOOR
        with np.errstate(divide="ignore"):  # a mel bin that no FFT bin reaches has power 0
            bound = LOG_FLOOR / power * abs(1.0 - 10.0 ** (-g / 10.0)) + 1e-12
        assert np.all(np.abs(shifted - ref.values) <= bound)

    @pytest.mark.parametrize("g", [-6.0, -0.5, 2.25, 6.0])
    def test_silent_waveform_moves_by_the_shift(self, g):
        """Exact gain leaves a digitally silent clip at log(LOG_FLOOR); the shift moves it."""
        w = Waveform(np.zeros(1000), 8000)
        m = logmel(w, self.FEAT)
        exact = logmel(apply_gain(w, g), self.FEAT).values
        assert np.all(exact == np.log(LOG_FLOOR)) and np.all(m.values == exact)
        moved = (m.values + LOG_MEL_PER_DB * g) - exact
        assert np.max(np.abs(moved - g * np.log(10.0) / 10.0)) <= 1e-12


class TestGain:
    """The draws of gain, and the shift that ``pooled_audio`` makes of a drawn gain; its
    amplitude factor exp(shift / 2) is the 10^(g/20) of a gained waveform."""

    def test_zero_gmax_degenerate(self):
        rng = np.random.default_rng(0)
        assert all(sample_gain(rng, 0) == 0.0 for _ in range(10))

    def test_support(self):
        rng = np.random.default_rng(1)
        draws = [sample_gain(rng, 3) for _ in range(2000)]
        assert all(-3 <= g <= 3 for g in draws)

    def test_uniform_mean(self):
        rng = np.random.default_rng(2)
        draws = [sample_gain(rng, 6) for _ in range(100_000)]
        assert abs(np.mean(draws)) < 0.05

    def test_negative_gmax_rejected(self):
        with pytest.raises(ValueError):
            sample_gain(np.random.default_rng(0), -1)

    def test_zero_db_identity(self):
        assert np.all(pooled_gain_shift(0.0) == 0.0)

    def test_twenty_db_is_factor_ten(self):
        assert np.exp(pooled_gain_shift(20.0) / 2) == pytest.approx(np.full(4, 10.0))

    def test_six_db_factor(self):
        assert np.exp(pooled_gain_shift(6.0) / 2) == pytest.approx(np.full(4, 1.995262),
                                                                   abs=1e-6)

    def test_gain_composition(self):
        once = pooled_gain_shift(2.5 + 1.75)
        assert np.allclose(once, pooled_gain_shift(2.5) + pooled_gain_shift(1.75), atol=1e-12)

    def test_no_clipping(self):
        """A clip at the top of the log-mel range moves by the whole shift, as a gained
        waveform is not clipped to [-1, 1]."""
        loud = np.full((4, 7), np.log(1e3))
        assert np.allclose(pooled_gain_shift(6.0, loud), 6.0 * LOG_MEL_PER_DB, atol=1e-12)


class TestSpecAugment:
    """``stripe_masks`` against the stripes zeroed one by one (``aug_reference``)."""

    @given(seed=st.integers(0, 2**32 - 1), n_mels=st.integers(1, 12), t=st.integers(1, 40),
           n_f=st.integers(0, 1), w_f=st.integers(1, 32), n_t=st.integers(0, 8),
           w_t=st.integers(1, 64))
    @settings(max_examples=examples(100), deadline=None)
    def test_masks_match_stripes_drawn_one_by_one(self, seed, n_mels, t, n_f, w_f, n_t, w_t):
        values = np.random.default_rng(seed).uniform(1.0, 2.0, (n_mels, t))
        rngs = [np.random.default_rng(seed + 1) for _ in range(2)]
        bins, frames = stripe_masks(n_mels, t, n_f, w_f, n_t, w_t, rngs[0])
        assert bins.shape == (n_mels,) and frames.shape == (t,)
        striped = spec_augment(values, n_f, w_f, n_t, w_t, rngs[1])
        assert np.array_equal(striped != 0.0, np.outer(bins, frames))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_identity_when_no_stripes(self):
        rng = np.random.default_rng(0)
        bins, frames = stripe_masks(64, 30, 0, 1, 0, 1, rng)
        assert bins.all() and frames.all()
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_single_freq_stripe_structure(self):
        for seed in range(50):
            bins, frames = stripe_masks(64, 20, 1, 4, 0, 1, np.random.default_rng(seed))
            zero_rows = np.flatnonzero(~bins)
            assert 1 <= len(zero_rows) <= 4 and frames.all()
            assert np.array_equal(zero_rows, np.arange(zero_rows[0], zero_rows[-1] + 1))

    def test_masked_fraction_union_bound(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n_f, w_f = rng.integers(0, 2), rng.integers(1, 33)
            n_t, w_t = rng.integers(0, 9), rng.integers(1, 51)
            bins, frames = stripe_masks(64, 50, n_f, w_f, n_t, w_t,
                                        np.random.default_rng(seed + 1))
            frac = 1.0 - np.outer(bins, frames).mean()
            assert frac <= n_f * w_f / 64 + n_t * w_t / 50 + 1e-12

    def test_width_clamped_to_dim(self):
        bins, frames = stripe_masks(4, 6, 1, 32, 1, 64, np.random.default_rng(0))
        assert bins.shape == (4,) and frames.shape == (6,)


class TestFreqMixStyle:
    def test_probability_zero_identity(self):
        rng = np.random.default_rng(0)
        batch = random_mel_batch(np.random.default_rng(1), 4)
        out = mixed(batch, freq_mixstyle(mel_stats(batch), 0.4, 0.0, rng))
        for a, b in zip(out, batch):
            assert np.array_equal(a, b)

    def test_lambda_one_identity(self):
        batch = random_mel_batch(np.random.default_rng(2), 4)
        with forced_mix_lambdas(1.0):
            out = mixed(batch, freq_mixstyle(mel_stats(batch), 0.4, 1.0, np.random.default_rng(3)))
        for a, b in zip(out, batch):
            assert np.allclose(a, b, atol=1e-6)

    def test_mixed_statistics(self):
        rng = np.random.default_rng(4)
        a = rng.normal(2.0, 1.0, size=(8, 200))
        b = rng.normal(4.0, 3.0, size=(8, 200))
        # find a seed where example 0 fires with partner 1
        for seed in range(100):
            r = np.random.default_rng(seed)
            fire = r.uniform(size=2) < 1.0
            partners = r.permutation(2)
            if fire[0] and partners[0] == 1:
                with forced_mix_lambdas(0.5):
                    out = mixed([a, b], freq_mixstyle(mel_stats([a, b]), 0.4, 1.0,
                                                      np.random.default_rng(seed)))[0]
                break
        else:
            pytest.fail("no suitable seed found")
        mu_a, sd_a = a.mean(axis=1), a.std(axis=1)
        mu_b, sd_b = b.mean(axis=1), b.std(axis=1)
        mu_new = 0.5 * mu_a + 0.5 * mu_b
        sd_new = 0.5 * sd_a + 0.5 * sd_b
        assert np.allclose(out.mean(axis=1), mu_new, atol=1e-5)
        assert np.allclose(out.std(axis=1), sd_new, atol=1e-5)

    def test_lambda_fold_at_least_half(self):
        rng = np.random.default_rng(5)
        lam = rng.beta(0.8286, 0.8286, size=100_000)
        lam = np.maximum(lam, 1.0 - lam)
        assert lam.min() >= 0.5

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            freq_mixstyle(mel_stats(random_mel_batch(np.random.default_rng(0), 2)), 0.0, 0.5,
                          np.random.default_rng(1))


class TestConfig:
    def test_valid_defaults(self):
        cfg = AudioAugConfig()
        assert (cfg.g_max, cfg.n_f, cfg.n_t, cfg.p_ms) == (0, 0, 0, 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"g_max": 7}, {"n_f": 2}, {"w_f": 0}, {"w_f": 33},
        {"n_t": 9}, {"w_t": 65}, {"p_ms": 1.5}, {"alpha": 0.0},
        {"n_t": 1.5}, {"n_f": 1.0}, {"g_max": True},
    ])
    def test_range_violations(self, kwargs):
        with pytest.raises(ValueError):
            AudioAugConfig(**kwargs)

    def test_draws_only_when_a_firing_setting_is_set(self):
        assert not AudioAugConfig(w_f=8, w_t=16, alpha=0.3).draws
        for key, value in (("g_max", 1), ("n_f", 1), ("n_t", 1), ("p_ms", 0.01)):
            assert AudioAugConfig(**{key: value}).draws
