import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from audioretrieval import audio_aug, trainer
from audioretrieval.audio_aug import AudioAugConfig
from audioretrieval.data import (
    FeatureConfig,
    MelSpectrogram,
    NormStats,
    build_vocab,
    mel_stats,
    synth_dataset,
)
from audioretrieval.model import ModelDims, init_params, load_checkpoint, zeros_like_params
from audioretrieval.text_aug import TextAugConfig
from audioretrieval.trainer import (
    AdamState,
    EarlyStopping,
    OptimConfig,
    PreparedSplit,
    adam_step,
    caption_queries,
    lr_at,
    pooled_audio,
    prepare_split,
    score_split,
    train_run,
)

import frame_reference


class TestLrSchedule:
    @pytest.mark.parametrize("epoch,expected", [
        (0, 1e-4), (9, 1e-4), (10, 1e-4 / 3), (20, 1e-4 / 9), (49, 1e-4 / 81),
    ])
    def test_decay_values(self, epoch, expected):
        assert lr_at(epoch, OptimConfig()) == expected

    def test_non_increasing(self):
        cfg = OptimConfig()
        rates = [lr_at(e, cfg) for e in range(60)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            lr_at(-1, OptimConfig())


class TestAdam:
    def _setup(self, small_dims):
        params = init_params(small_dims, 0)
        grads = zeros_like_params(params)
        return params, grads, AdamState()

    def test_first_step_is_signed_lr(self, small_dims):
        params, grads, state = self._setup(small_dims)
        grads.w1[:] = 3.7  # |g| >> eps
        before = params.w1.copy()
        adam_step(params, grads, state, 1e-3)
        assert np.allclose(before - params.w1, 1e-3, rtol=1e-6)

    def test_zero_gradient_no_change(self, small_dims):
        params, grads, state = self._setup(small_dims)
        before = params.copy()
        adam_step(params, grads, state, 1e-3)
        for (_, a), (_, b) in zip(params.arrays(), before.arrays()):
            assert np.array_equal(a, b)

    def test_second_moment_accumulates(self, small_dims):
        params, grads, state = self._setup(small_dims)
        grads.w1[:] = 1.0
        adam_step(params, grads, state, 1e-4)
        v1 = state.v.w1.copy()
        grads.w1[:] = -1.0
        adam_step(params, grads, state, 1e-4)
        assert np.all(state.v.w1 > v1)
        assert state.t == 2

    def test_nonfinite_gradient_rejected(self, small_dims):
        params, grads, state = self._setup(small_dims)
        grads.w2[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            adam_step(params, grads, state, 1e-4)


class TestEarlyStopping:
    def test_decreasing_curve_stops_at_best_plus_patience(self):
        stopper = EarlyStopping(patience=10)
        stopped_at = None
        for epoch in range(100):
            if stopper.update(epoch, 1.0 - 0.01 * epoch):
                stopped_at = epoch
                break
        assert stopper.best_epoch == 0
        assert stopped_at == 10  # best_epoch + patience

    def test_never_fires_before_patience(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            stopper = EarlyStopping(patience=5)
            for epoch in range(5):
                assert not stopper.update(epoch, float(rng.uniform()))

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=3)
        values = [0.1, 0.05, 0.2, 0.1, 0.1, 0.1]
        fired = [stopper.update(e, v) for e, v in enumerate(values)]
        assert fired == [False] * 5 + [True]
        assert stopper.best_epoch == 2

    def test_plateau_counts_as_no_improvement(self):
        # equal values never beat the best: strict improvement rule
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(0, 0.5)
        assert not stopper.update(1, 0.5)
        assert stopper.update(2, 0.5)
        assert stopper.best_epoch == 0


def _tiny_run(seed=0, epochs=3, audio_cfg=None, text_cfg=None, **kwargs):
    train = synth_dataset(3, 18, 50, split="train", duration=0.2)
    val = synth_dataset(3, 9, 51, split="val", duration=0.2)
    optim = OptimConfig(epochs=epochs, batch_size=6, seed=seed, patience=10)
    return train_run(prepare_split(train, FeatureConfig()), prepare_split(val, FeatureConfig()),
                     ModelDims(), audio_cfg, text_cfg, optim, **kwargs)


def _tiny_splits():
    train = synth_dataset(3, 18, 50, split="train", duration=0.2)
    val = synth_dataset(3, 9, 51, split="val", duration=0.2)
    return prepare_split(train, FeatureConfig()), prepare_split(val, FeatureConfig())


class TestTrainRun:
    def test_deterministic(self):
        r1 = _tiny_run(seed=7)
        r2 = _tiny_run(seed=7)
        assert r1.train_losses == r2.train_losses
        assert r1.val_maps == r2.val_maps

    def test_seed_changes_trajectory(self):
        assert _tiny_run(seed=1).train_losses != _tiny_run(seed=2).train_losses

    def test_identity_augmentation_bit_equal_to_disabled(self):
        identity_audio = AudioAugConfig()  # g_max=0, n_f=n_t=0, p_ms=0
        identity_text = TextAugConfig()    # p_eda=0, p_bt=0
        r_id = _tiny_run(seed=3, audio_cfg=identity_audio, text_cfg=identity_text)
        r_off = _tiny_run(seed=3)
        assert r_id.train_losses == r_off.train_losses
        assert r_id.val_maps == r_off.val_maps

    def test_active_augmentation_changes_losses(self):
        aug = AudioAugConfig(g_max=3, n_f=1, w_f=4, n_t=2, w_t=8, p_ms=0.5, alpha=0.5)
        assert _tiny_run(seed=4, audio_cfg=aug).train_losses != _tiny_run(seed=4).train_losses

    def test_checkpoint_written_at_best(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        result = _tiny_run(seed=5, checkpoint_path=ckpt)
        assert ckpt.exists()
        assert result.best_epoch >= 0
        assert result.best_val_map == max(result.val_maps)

    def test_loss_decreases_on_synthetic_data(self):
        result = _tiny_run(seed=8, epochs=8)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_shared_prepared_splits_unchanged_by_runs(self):
        audio = AudioAugConfig(g_max=3, n_f=1, w_f=4, n_t=2, w_t=8, p_ms=0.5, alpha=0.5)
        text = TextAugConfig(p_eda=0.5, p_syn=0.2, p_swp=0.2, p_ins=0.2, p_del=0.2)
        shared = _tiny_splits()

        def arrays():
            return [a.copy() for split in shared
                    for a in [m.values for m in split.mels]
                    + [split.stats.count, split.stats.mean, split.stats.var, split.stats.max]]

        def run(train, val):
            optim = OptimConfig(epochs=3, batch_size=6, seed=9, patience=10)
            return train_run(train, val, ModelDims(), audio, text, optim).as_dict()

        before = arrays()
        first, second = run(*shared), run(*shared)
        assert first == second == run(*_tiny_splits())
        assert all(np.array_equal(a, b) for a, b in zip(before, arrays()))

    def test_untouched_captions_tokenized_once(self):
        calls = []
        tokenize = trainer.tokenize
        with mock.patch.object(trainer, "tokenize", lambda *a: calls.append(1) or tokenize(*a)):
            _tiny_run(seed=10, epochs=3)
        assert len(calls) == 2  # the training captions, then the validation queries

    def test_checkpoint_written_once_with_best_epoch_state(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        train, val = _tiny_splits()
        optim = OptimConfig(epochs=6, batch_size=6, seed=11, patience=10, lr0=3e-2)
        saves = []
        save = trainer.save_checkpoint
        with mock.patch.object(trainer, "save_checkpoint", lambda *a: saves.append(1) or save(*a)):
            result = train_run(train, val, ModelDims(), None, None, optim, checkpoint_path=ckpt)
        assert len(saves) == 1
        assert result.best_epoch < result.epochs_run - 1  # the best is not the last epoch
        params, _, stats, vocab, _ = load_checkpoint(ckpt)
        assert score_split(val, *caption_queries(val, vocab), params, stats).map10 \
            == result.best_val_map

    def test_n_mels_taken_from_the_splits(self, tmp_path):
        feat = FeatureConfig(n_mels=16)
        train = prepare_split(synth_dataset(3, 18, 50, duration=0.2), feat)
        val = prepare_split(synth_dataset(3, 9, 51, duration=0.2), feat)
        ckpt = tmp_path / "ckpt.json"
        result = train_run(train, val, ModelDims(), None, None,
                           OptimConfig(epochs=2, batch_size=6), checkpoint_path=ckpt)
        assert result.epochs_run == 2
        _, dims, stats, _, _ = load_checkpoint(ckpt)
        assert dims.n_mels == 16 and stats.mean.shape == (16,)

    def test_train_split_of_one_clip_rejected(self):
        one = prepare_split(synth_dataset(3, 1, 52, duration=0.2), FeatureConfig())
        _, val = _tiny_splits()
        with pytest.raises(ValueError, match="1 clip"):
            train_run(one, val, ModelDims(), None, None, OptimConfig(epochs=2))

    def test_empty_val_split_rejected(self):
        train, val = _tiny_splits()
        empty = PreparedSplit(val.feat, [], mel_stats([]), [])
        with pytest.raises(ValueError, match="val split is empty"):
            train_run(train, empty, ModelDims(), None, None, OptimConfig(epochs=1))

    def test_splits_featurized_differently_rejected(self):
        train, _ = _tiny_splits()
        val = prepare_split(synth_dataset(3, 9, 51, duration=0.2), FeatureConfig(hop=160))
        with pytest.raises(ValueError, match="feature configs"):
            train_run(train, val, ModelDims(), None, None, OptimConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(batch_size=1)
        with pytest.raises(ValueError):
            OptimConfig(lr0=0.0)
        with pytest.raises(ValueError):
            OptimConfig(patience=0)


LOG_FLOOR = 1e-10


def _random_split(rng, n_clips, n_mels, short_first):
    """Log-mels >= log(LOG_FLOOR) with padding after n_frames_valid; clip 0 has
    a single valid frame when ``short_first``."""
    mels = []
    for k in range(n_clips):
        t = int(rng.integers(2, 40))
        t_valid = 1 if short_first and k == 0 else int(rng.integers(1, t))
        values = rng.uniform(math.log(LOG_FLOOR), 5.0, size=(n_mels, t))
        mels.append(MelSpectrogram(values, t_valid))
    feat = FeatureConfig(n_mels=n_mels, log_floor=LOG_FLOOR)
    return PreparedSplit(feat, mels, mel_stats(mels), [["a clip"]] * n_clips)


def _norm_stats(rng, n_mels):
    return NormStats(rng.normal(size=n_mels), rng.uniform(0.5, 2.0, n_mels), 7)


class TestPooledAudioAgainstFrames:
    """The statistics path equals the frame chain kept in ``frame_reference``."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), n_mels=st.integers(1, 12),
           gains=st.lists(st.just(0.0) | st.floats(-1.0, 1.0), min_size=8, max_size=8),
           g_max=st.integers(0, 6), p_ms=st.floats(0.0, 1.0), alpha=st.floats(0.01, 1.0),
           forced=st.none() | st.floats(0.5, 1.0), n_f=st.integers(0, 1),
           w_f=st.integers(1, 32), n_t=st.integers(0, 8), w_t=st.integers(1, 64),
           short_first=st.booleans())
    @example(seed=3, n=4, n_mels=6, gains=[0.0, 0.4, -1.0, 0.0] * 2, g_max=6, p_ms=1.0,
             alpha=0.3, forced=None, n_f=1, w_f=3, n_t=2, w_t=4, short_first=True)
    @settings(max_examples=150, deadline=None)
    def test_training_batch(self, seed, n, n_mels, gains, g_max, p_ms, alpha, forced,
                            n_f, w_f, n_t, w_t, short_first):
        rng = np.random.default_rng(seed)
        split = _random_split(rng, n + 2, n_mels, short_first)
        idx = np.concatenate([[0], rng.permutation(np.arange(1, n + 2))[: n - 1]])
        cfg = AudioAugConfig(g_max=g_max, n_f=n_f, w_f=w_f, n_t=n_t, w_t=w_t,
                             p_ms=p_ms, alpha=alpha)
        norm = _norm_stats(rng, n_mels)
        norm_ref = NormStats(norm.mean.copy(), norm.var.copy(), norm.count)
        rng_new, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

        def drawn_gains():
            """The drawn fractions of g_max as the gains, some exactly 0."""
            draws = iter(g_max * g for g in gains)
            real = audio_aug.sample_gain

            def sample_gain(r, g):
                real(r, g)  # keep the generator's draw
                return next(draws)
            return mock.patch.object(audio_aug, "sample_gain", sample_gain)

        maps = []
        freq_mixstyle = audio_aug.freq_mixstyle

        def mixstyle(*args):
            maps.append(freq_mixstyle(*args, forced_lambda=forced))
            return maps[-1]
        with drawn_gains(), mock.patch.object(audio_aug, "freq_mixstyle", mixstyle):
            pooled = pooled_audio(split, idx, norm, True, cfg, rng_new)
        with drawn_gains():
            ref = frame_reference.pooled_batch([split.mels[i] for i in idx], norm_ref, True, cfg,
                                               rng_ref, LOG_FLOOR, forced)
        assert pooled.shape == ref.shape == (n, n_mels)
        # Freq-MixStyle divides by a clip's bin std, so both paths' rounding grows
        # with its slope sd_new / sd; 1e-12 holds up to slopes of 500
        amplification = max(1.0, float(maps[0][1].max()) / 500)
        assert np.max(np.abs(pooled - ref)) <= 1e-12 * amplification
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert norm.count == norm_ref.count
        assert np.max(np.abs(norm.mean - norm_ref.mean)) <= 1e-12
        assert np.max(np.abs(norm.var - norm_ref.var)) <= 1e-12
        if short_first and n_t > 0:  # clip 0's only valid frame is striped
            assert np.all(pooled[0] == 0.0)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), n_mels=st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_score_split_input_under_running_stats(self, seed, n, n_mels):
        rng = np.random.default_rng(seed)
        split = _random_split(rng, n, n_mels, short_first=False)
        norm = _norm_stats(rng, n_mels)
        dims = ModelDims(n_mels=n_mels, embed_dim=4, audio_hidden=8, text_hidden=8,
                         token_embed_dim=4, vocab_size=4)
        seen = []
        embed_audio = trainer.embed_audio
        with mock.patch.object(trainer, "embed_audio",
                               lambda pooled, p: seen.append(pooled) or embed_audio(pooled, p)):
            score_split(split, *caption_queries(split, build_vocab(["a clip"])),
                        init_params(dims, seed % 1000), norm)
        ref = frame_reference.pooled_batch(split.mels, norm, False)
        assert np.max(np.abs(seen[0] - ref)) <= 1e-12
