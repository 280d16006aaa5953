import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from audioretrieval.audio_aug import (
    LOG_MEL_PER_DB,
    AudioAugConfig,
    apply_gain,
    freq_mixstyle,
    sample_gain,
    spec_augment,
    stripe_masks,
)
from audioretrieval.data import (
    LOG_FLOOR,
    FeatureConfig,
    MelSpectrogram,
    Waveform,
    logmel,
    mel_stats,
)

from conftest import examples, random_mel_batch
from frame_reference import apply_map


def mixed(batch, maps):
    """The frames of ``batch`` under each clip's Freq-MixStyle map."""
    return [apply_map(m, *(a[i] for a in maps)) for i, m in enumerate(batch)]


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
        assert m.n_frames_valid == ref.n_frames_valid
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
        w = Waveform(np.array([0.1, -0.3, 0.7]), 8000)
        assert np.array_equal(apply_gain(w, 0.0).samples, w.samples)

    def test_twenty_db_is_factor_ten(self):
        w = Waveform(np.array([0.05]), 8000)
        assert apply_gain(w, 20.0).samples[0] == pytest.approx(0.5)

    def test_six_db_factor(self):
        w = Waveform(np.array([1.0]), 8000)
        assert apply_gain(w, 6.0).samples[0] == pytest.approx(1.995262, abs=1e-6)

    def test_gain_composition(self):
        w = Waveform(np.random.default_rng(3).normal(size=50), 8000)
        once = apply_gain(w, 2.5 + 1.75)
        twice = apply_gain(apply_gain(w, 2.5), 1.75)
        assert np.allclose(once.samples, twice.samples, atol=1e-12)

    def test_no_clipping(self):
        w = Waveform(np.array([0.9]), 8000)
        assert apply_gain(w, 6.0).samples[0] > 1.0


def spec_augment_by_stripes(m, n_f, w_f, n_t, w_t, rng):
    """SpecAugment zeroing each stripe as it is drawn, as the program did before it
    drew masks."""
    values = m.values.copy()
    n_mels, t_valid = len(values), m.n_frames_valid
    for _ in range(n_f):
        width = int(rng.integers(1, min(w_f, n_mels) + 1))
        offset = int(rng.integers(0, n_mels - width + 1))
        values[offset : offset + width, :t_valid] = 0.0
    for _ in range(n_t):
        width = int(rng.integers(1, min(w_t, t_valid) + 1))
        offset = int(rng.integers(0, t_valid - width + 1))
        values[:, offset : offset + width] = 0.0
    return values


class TestSpecAugment:
    @given(seed=st.integers(0, 2**32 - 1), n_mels=st.integers(1, 12), t=st.integers(1, 40),
           pad=st.integers(0, 5), n_f=st.integers(0, 1), w_f=st.integers(1, 32),
           n_t=st.integers(0, 8), w_t=st.integers(1, 64))
    @settings(max_examples=examples(100), deadline=None)
    def test_masks_match_stripes_drawn_one_by_one(self, seed, n_mels, t, pad, n_f, w_f, n_t,
                                                   w_t):
        m = MelSpectrogram(np.random.default_rng(seed).uniform(1.0, 2.0, (n_mels, t + pad)), t)
        rngs = [np.random.default_rng(seed + 1) for _ in range(3)]
        out = spec_augment(m, n_f, w_f, n_t, w_t, rngs[0])
        assert np.array_equal(out.values, spec_augment_by_stripes(m, n_f, w_f, n_t, w_t, rngs[1]))
        bins, frames = stripe_masks(n_mels, t, n_f, w_f, n_t, w_t, rngs[2])
        assert bins.shape == (n_mels,) and frames.shape == (t,)
        assert np.array_equal(out.values[:, :t] != 0.0, np.outer(bins, frames))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state \
            == rngs[2].bit_generator.state

    def test_identity_when_no_stripes(self):
        rng = np.random.default_rng(0)
        m = MelSpectrogram(np.random.default_rng(1).normal(size=(64, 30)), 30)
        out = spec_augment(m, 0, 1, 0, 1, rng)
        assert np.array_equal(out.values, m.values)

    def test_single_freq_stripe_structure(self):
        base = np.random.default_rng(2).uniform(1.0, 2.0, size=(64, 20))
        for seed in range(50):
            rng = np.random.default_rng(seed)
            out = spec_augment(MelSpectrogram(base, 20), 1, 4, 0, 1, rng)
            zero_rows = np.where((out.values == 0.0).all(axis=1))[0]
            assert 1 <= len(zero_rows) <= 4
            assert np.array_equal(zero_rows, np.arange(zero_rows[0], zero_rows[-1] + 1))
            untouched = np.setdiff1d(np.arange(64), zero_rows)
            assert np.array_equal(out.values[untouched], base[untouched])

    def test_masked_fraction_union_bound(self):
        base = np.random.default_rng(3).uniform(1.0, 2.0, size=(64, 50))
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n_f, w_f = rng.integers(0, 2), rng.integers(1, 33)
            n_t, w_t = rng.integers(0, 9), rng.integers(1, 51)
            out = spec_augment(MelSpectrogram(base, 50), n_f, w_f, n_t, w_t,
                               np.random.default_rng(seed + 1))
            frac = (out.values == 0.0).mean()
            assert frac <= n_f * w_f / 64 + n_t * w_t / 50 + 1e-12

    def test_padding_untouched(self):
        base = np.random.default_rng(4).uniform(1.0, 2.0, size=(16, 30))
        m = MelSpectrogram(base, 20)
        for seed in range(30):
            out = spec_augment(m, 1, 8, 4, 10, np.random.default_rng(seed))
            assert np.array_equal(out.values[:, 20:], base[:, 20:])
            changed = out.values != base
            assert np.all(out.values[changed] == 0.0)

    def test_width_clamped_to_dim(self):
        m = MelSpectrogram(np.ones((4, 6)), 6)
        out = spec_augment(m, 1, 32, 1, 64, np.random.default_rng(0))
        assert out.values.shape == (4, 6)


class TestFreqMixStyle:
    def test_probability_zero_identity(self):
        rng = np.random.default_rng(0)
        batch = random_mel_batch(np.random.default_rng(1), 4)
        out = mixed(batch, freq_mixstyle(mel_stats(batch), 0.4, 0.0, rng))
        for a, b in zip(out, batch):
            assert np.array_equal(a.values, b.values)

    def test_lambda_one_identity(self):
        batch = random_mel_batch(np.random.default_rng(2), 4, t=10, t_valid=10)
        out = mixed(batch, freq_mixstyle(mel_stats(batch), 0.4, 1.0, np.random.default_rng(3),
                                         forced_lambda=1.0))
        for a, b in zip(out, batch):
            assert np.allclose(a.values, b.values, atol=1e-6)

    def test_mixed_statistics(self):
        rng = np.random.default_rng(4)
        a = MelSpectrogram(rng.normal(2.0, 1.0, size=(8, 200)), 200)
        b = MelSpectrogram(rng.normal(4.0, 3.0, size=(8, 200)), 200)
        # find a seed where example 0 fires with partner 1
        for seed in range(100):
            r = np.random.default_rng(seed)
            fire = r.uniform(size=2) < 1.0
            partners = r.permutation(2)
            if fire[0] and partners[0] == 1:
                out = mixed([a, b], freq_mixstyle(mel_stats([a, b]), 0.4, 1.0,
                                                  np.random.default_rng(seed),
                                                  forced_lambda=0.5))[0]
                break
        else:
            pytest.fail("no suitable seed found")
        mu_a, sd_a = a.values.mean(axis=1), a.values.std(axis=1)
        mu_b, sd_b = b.values.mean(axis=1), b.values.std(axis=1)
        mu_new = 0.5 * mu_a + 0.5 * mu_b
        sd_new = 0.5 * sd_a + 0.5 * sd_b
        assert np.allclose(out.values.mean(axis=1), mu_new, atol=1e-5)
        assert np.allclose(out.values.std(axis=1), sd_new, atol=1e-5)

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
