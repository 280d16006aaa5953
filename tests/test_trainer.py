import contextlib
import copy
import json
import math
import os
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from audioretrieval import audio_aug, text_aug, trainer
from audioretrieval.audio_aug import AudioAugConfig
from audioretrieval.data import (
    LOG_FLOOR,
    FeatureConfig,
    MelStats,
    NormStats,
    Waveform,
    build_vocab,
    iter_manifest,
    load_manifest,
    logmel,
    mel_stats,
    preprocess_caption,
    resample_linear,
    save_wav,
    synth_dataset,
)
from audioretrieval.metrics import from_ranks
from audioretrieval.model import (TEXT_BLOCK, ModelDims, init_params, load_checkpoint,
                                  save_checkpoint, zeros_like_params)
from audioretrieval.text_aug import TextAugConfig
from audioretrieval.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    FrameStore,
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
import score_reference
from conftest import examples, forced_mix_lambdas


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
        params = init_params(small_dims, 8, 10, 0)
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

    def test_matches_the_out_of_place_update(self, small_dims):
        params, grads, state = self._setup(small_dims)
        ref, m_ref, v_ref = params.copy(), zeros_like_params(params), zeros_like_params(params)
        rng = np.random.default_rng(0)
        for t in range(1, 7):
            for _, g in grads.arrays():
                g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-6, 2, size=g.shape)
            lr = 1e-3 / t
            adam_step(params, grads, state, lr)
            bc1, bc2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            for name, g in grads.arrays():
                m, v, p = getattr(m_ref, name), getattr(v_ref, name), getattr(ref, name)
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        for mine, theirs in ((params, ref), (state.m, m_ref), (state.v, v_ref)):
            for (name, a), (_, b) in zip(mine.arrays(), theirs.arrays()):
                assert np.array_equal(a, b), name

    def test_nonfinite_gradient_rejected(self, small_dims):
        params, grads, state = self._setup(small_dims)
        grads.w2[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            adam_step(params, grads, state, 1e-4)


OFF_AUDIO, OFF_TEXT = AudioAugConfig(), TextAugConfig()


def run_validated_as(val_maps, patience: int):
    """``train_run`` on the tiny splits for up to ``len(val_maps)`` epochs, with epoch e's
    validation mAP@10 read as ``val_maps[e]``."""
    maps = iter(val_maps)
    optim = OptimConfig(epochs=len(val_maps), batch_size=6, patience=patience)
    with mock.patch.object(trainer, "score_split", lambda *a: SimpleNamespace(map10=next(maps))):
        return train_run(*_tiny_splits(), ModelDims(), OFF_AUDIO, OFF_TEXT, optim, 0)


class TestEarlyStopping:
    def test_decreasing_curve_stops_at_best_plus_patience(self):
        result = run_validated_as([1.0 - 0.01 * e for e in range(100)], patience=10)
        assert (result.best_epoch, result.best_val_map) == (0, 1.0)
        assert result.stopped_early and result.epochs_run == 11  # stopped at best + patience

    def test_never_fires_before_patience(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            result = run_validated_as(rng.uniform(size=8).tolist(), patience=5)
            assert result.epochs_run >= 6  # the first epoch a stop can come at is 5

    def test_improvement_resets_counter(self):
        result = run_validated_as([0.1, 0.05, 0.2, 0.1, 0.1, 0.1, 0.9, 0.9], patience=3)
        assert (result.best_epoch, result.best_val_map) == (2, 0.2)
        assert result.stopped_early and result.epochs_run == 6

    def test_plateau_counts_as_no_improvement(self):
        # equal values never beat the best: strict improvement rule. With 3 epochs, patience
        # runs out on the last one, and that is still an early stop
        for epochs in (6, 3):
            result = run_validated_as([0.5] * epochs, patience=2)
            assert (result.best_epoch, result.epochs_run, result.stopped_early) == (0, 3, True)


@pytest.fixture(scope="module")
def frames_dir(tmp_path_factory):
    """A directory for frame stores; their files have no name, so it stays empty."""
    path = tmp_path_factory.mktemp("frames")
    yield path
    assert os.listdir(path) == []


def _tiny_run(seed=0, epochs=3, audio_cfg=OFF_AUDIO, text_cfg=OFF_TEXT, frames=None, **kwargs):
    optim = OptimConfig(epochs=epochs, batch_size=6, patience=10)
    train, val = _tiny_splits(frames)
    return train_run(train, val, ModelDims(), audio_cfg, text_cfg, optim, seed, **kwargs)


def _tiny_splits(frames=None):
    """The tiny train split, with its frames appended to ``frames`` when given, and the
    val split."""
    train = synth_dataset(3, 18, 50, split="train", duration=0.2)
    val = synth_dataset(3, 9, 51, split="val", duration=0.2)
    return prepare_split(train, FeatureConfig(), frames), prepare_split(val, FeatureConfig())


class TestTrainRun:
    def test_deterministic(self):
        r1 = _tiny_run(seed=7)
        r2 = _tiny_run(seed=7)
        assert r1.train_losses == r2.train_losses
        assert r1.val_maps == r2.val_maps

    def test_seed_changes_trajectory(self):
        assert _tiny_run(seed=1).train_losses != _tiny_run(seed=2).train_losses

    def test_identity_augmentation_bit_equal_to_disabled(self):
        # g_max = n_f = n_t = 0, p_ms = 0 and p_eda = p_bt = 0, whatever the other settings
        identity_audio = AudioAugConfig(w_f=8, w_t=16, alpha=0.3)
        identity_text = TextAugConfig(p_syn=0.3, p_del=0.1)
        r_id = _tiny_run(seed=3, audio_cfg=identity_audio, text_cfg=identity_text)
        r_off = _tiny_run(seed=3)
        assert r_id.train_losses == r_off.train_losses
        assert r_id.val_maps == r_off.val_maps

    def test_identity_augmentation_draws_nothing(self):
        drew = mock.Mock(side_effect=AssertionError("an identity config drew"))
        with mock.patch.multiple(audio_aug, sample_gain=drew, freq_mixstyle=drew,
                                 stripe_masks=drew), \
                mock.patch.object(text_aug, "augment_caption", drew):
            _tiny_run(seed=3, audio_cfg=AudioAugConfig(w_f=8, w_t=16, alpha=0.3),
                      text_cfg=TextAugConfig(p_syn=0.3, p_del=0.1))

    def test_active_augmentation_changes_losses(self):
        aug = AudioAugConfig(g_max=3, n_f=1, w_f=4, n_t=2, w_t=8, p_ms=0.5, alpha=0.5)
        assert _tiny_run(seed=4, audio_cfg=aug, frames=[]).train_losses \
            != _tiny_run(seed=4).train_losses

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
        shared = _tiny_splits([])  # frames in memory: a run that wrote to them would show

        def arrays():
            return [a.copy() for split in shared
                    for a in list(split.mels or [])
                    + [split.stats.count, split.stats.mean, split.stats.var, split.stats.max]]

        def run(train, val):
            optim = OptimConfig(epochs=3, batch_size=6, patience=10)
            return train_run(train, val, ModelDims(), audio, text, optim, 9).as_dict()

        before = arrays()
        first, second, fresh = run(*shared), run(*shared), _tiny_splits([])
        assert first == second == run(*fresh)
        assert all(np.array_equal(a, b) for a, b in zip(before, arrays()))

    def test_untouched_batch_tokenizes_its_preprocessed_captions(self):
        texts = []
        tokenize = trainer.tokenize
        with mock.patch.object(trainer, "tokenize",
                               lambda t, vocab: texts.append(t) or tokenize(t, vocab)):
            _tiny_run(seed=10, epochs=3)
        captions = {preprocess_caption(c) for caps in _tiny_splits()[0].captions for c in caps}
        # the validation queries, then one call per batch of six clips: 3 epochs of 3 batches
        assert [len(t) for t in texts[1:]] == [6] * 9
        assert all(c in captions for batch in texts[1:] for c in batch)

    def test_checkpoint_written_once_with_best_epoch_state(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        train, val = _tiny_splits()
        optim = OptimConfig(epochs=6, batch_size=6, patience=10, lr0=3e-2)
        saves = []
        save = trainer.save_checkpoint
        with mock.patch.object(trainer, "save_checkpoint", lambda *a: saves.append(1) or save(*a)):
            result = train_run(train, val, ModelDims(), OFF_AUDIO, OFF_TEXT, optim, 11,
                               checkpoint_path=ckpt)
        assert len(saves) == 1
        assert result.best_epoch < result.epochs_run - 1  # the best is not the last epoch
        params, stats, vocab, _ = load_checkpoint(ckpt)
        assert score_split(val, *caption_queries(val, vocab), params, stats).map10 \
            == result.best_val_map

    def test_n_mels_taken_from_the_splits(self, tmp_path):
        feat = FeatureConfig(n_mels=16)
        train = prepare_split(synth_dataset(3, 18, 50, duration=0.2), feat)
        val = prepare_split(synth_dataset(3, 9, 51, duration=0.2), feat)
        ckpt = tmp_path / "ckpt.json"
        result = train_run(train, val, ModelDims(), OFF_AUDIO, OFF_TEXT,
                           OptimConfig(epochs=2, batch_size=6), 0, checkpoint_path=ckpt)
        assert result.epochs_run == 2
        params, stats, _, loaded_feat = load_checkpoint(ckpt)
        assert params.w1.shape[0] == 16 and stats.mean.shape == (16,) and loaded_feat == feat
        doc = json.loads(ckpt.read_text())
        assert doc["features"]["n_mels"] == doc["arrays"]["w1"]["shape"][0] == 16

    def test_train_split_of_one_clip_rejected(self):
        one = prepare_split(synth_dataset(3, 1, 52, duration=0.2), FeatureConfig())
        _, val = _tiny_splits()
        with pytest.raises(ValueError, match="1 clip"):
            train_run(one, val, ModelDims(), OFF_AUDIO, OFF_TEXT, OptimConfig(epochs=2), 0)

    def test_empty_val_split_rejected(self):
        train, val = _tiny_splits()
        empty = PreparedSplit(val.feat, None, mel_stats([]), [])
        with pytest.raises(ValueError, match="val split is empty"):
            train_run(train, empty, ModelDims(), OFF_AUDIO, OFF_TEXT, OptimConfig(epochs=1), 0)

    def test_splits_featurized_differently_rejected(self):
        train, _ = _tiny_splits()
        val = prepare_split(synth_dataset(3, 9, 51, duration=0.2), FeatureConfig(hop=160))
        with pytest.raises(ValueError, match="feature configs"):
            train_run(train, val, ModelDims(), OFF_AUDIO, OFF_TEXT, OptimConfig(epochs=1), 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(batch_size=1)
        with pytest.raises(ValueError):
            OptimConfig(lr0=0.0)
        with pytest.raises(ValueError):
            OptimConfig(patience=0)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            OptimConfig(epochs=0)
        for bad in ({"batch_size": 6.0}, {"epochs": True}, {"patience": "3"}):
            with pytest.raises(ValueError, match="must be an integer"):
                OptimConfig(**bad)


AUGMENT_ALL_AUDIO = AudioAugConfig(g_max=6, n_f=1, w_f=8, n_t=2, w_t=16, p_ms=0.5, alpha=0.3)
AUGMENT_ALL_TEXT = TextAugConfig(p_eda=0.5, p_syn=0.2, p_swp=0.1, p_ins=0.1, p_del=0.1, p_bt=0.5)


def _run_epochs(state, splits, audio_cfg, text_cfg, optim, path, provider=None,
                lexicon=text_aug.SynonymLexicon()):
    """Run ``state`` to ``optim.epochs`` epochs and save its best epoch to ``path``; the
    result and the checkpoint's bytes."""
    while state.result.epochs_run < optim.epochs:
        trainer.run_epoch(state, *splits, audio_cfg, text_cfg, optim, provider, lexicon)
    save_checkpoint(path, *state.best, state.vocab, splits[0].feat)
    return state.result, path.read_bytes()


class TestTrainState:
    """``train_run`` is ``start_run`` and then ``run_epoch`` until ``epochs`` or ``patience``,
    and the ``TrainState`` holds everything an epoch changes."""

    OPTIM = OptimConfig(epochs=6, batch_size=6, patience=10, lr0=3e-2)  # best: epoch 4 of 0-5

    def test_epochs_by_hand_equal_train_run(self, tmp_path):
        splits, ckpt = _tiny_splits(), tmp_path / "run.json"
        result = train_run(*splits, ModelDims(), OFF_AUDIO, OFF_TEXT, self.OPTIM, 11,
                           checkpoint_path=ckpt)
        assert 0 < result.best_epoch < result.epochs_run - 1 == self.OPTIM.epochs - 1
        state = trainer.start_run(*splits, ModelDims(), 11)
        by_hand, saved = _run_epochs(state, splits, OFF_AUDIO, OFF_TEXT, self.OPTIM,
                                     tmp_path / "by_hand.json")
        assert replace(by_hand, checkpoint_path=str(ckpt)) == result
        assert saved == ckpt.read_bytes()

    @pytest.mark.parametrize("augment", [False, True])
    def test_a_copy_between_epochs_resumes_the_run_exactly(self, frames_dir, tmp_path, augment):
        """A deep copy taken between epochs and run on after the original has finished:
        nothing an epoch changes lives outside the state, with every augmentation on a
        split whose frames are in a FrameStore too."""
        audio, text = (AUGMENT_ALL_AUDIO, AUGMENT_ALL_TEXT) if augment else (OFF_AUDIO, OFF_TEXT)
        aug = dict(provider=text_aug.mock_provider, lexicon=text_aug.SynonymLexicon.bundled())
        with contextlib.closing(FrameStore(frames_dir, FeatureConfig().n_mels)) as store:
            splits = _tiny_splits(store)
            state = trainer.start_run(*splits, ModelDims(), 11)
            trainer.run_epoch(state, *splits, audio, text, self.OPTIM, **aug)
            trainer.run_epoch(state, *splits, audio, text, self.OPTIM, **aug)
            resumed = copy.deepcopy(state)
            first = _run_epochs(state, splits, audio, text, self.OPTIM, tmp_path / "a.json", **aug)
            again = _run_epochs(resumed, splits, audio, text, self.OPTIM, tmp_path / "b.json",
                                **aug)
            whole = train_run(*splits, ModelDims(), audio, text, self.OPTIM, 11, **aug)
        assert first == again and first[0] == whole
        assert len(whole.val_maps) == self.OPTIM.epochs


class TestPrepareSplit:
    def test_streamed_manifest_prepares_as_loaded(self, tmp_path):
        import json

        ds = list(synth_dataset(3, 7, 8, sample_rate=44100, duration=0.3))
        with open(tmp_path / "m.jsonl", "w") as fh:
            for audio_id, w, caps in ds:
                save_wav(tmp_path / f"{audio_id}.wav", w)
                fh.write(json.dumps({"audio": f"{audio_id}.wav", "captions": caps}) + "\n")
        feat = FeatureConfig()
        streamed = prepare_split(iter_manifest(tmp_path / "m.jsonl"), feat, [])
        loaded = prepare_split(load_manifest(tmp_path / "m.jsonl"), feat, [])
        assert len(streamed) == len(loaded) == len(streamed.mels) == len(loaded.mels) == 7
        assert streamed.captions == loaded.captions == [caps for _, _, caps in ds]
        for a, b in zip(streamed.mels, loaded.mels):
            assert np.array_equal(a, b)
        for name in ("count", "mean", "var", "max"):
            assert np.array_equal(getattr(streamed.stats, name), getattr(loaded.stats, name))


def _random_split(rng, n_clips, n_mels, short_first):
    """A split that keeps its clips' log-mel frames, all >= log(LOG_FLOOR), and those
    frames; clip 0 has a single frame when ``short_first``."""
    mels = [rng.uniform(math.log(LOG_FLOOR), 5.0,
                        size=(n_mels, 1 if short_first and k == 0 else int(rng.integers(1, 39))))
            for k in range(n_clips)]
    feat = FeatureConfig(n_mels=n_mels)
    return PreparedSplit(feat, mels, mel_stats(mels), [["a clip"]] * n_clips), mels


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
    @settings(max_examples=examples(150), deadline=None)
    def test_training_batch(self, seed, n, n_mels, gains, g_max, p_ms, alpha,
                            forced, n_f, w_f, n_t, w_t, short_first):
        rng = np.random.default_rng(seed)
        split, mels = _random_split(rng, n + 2, n_mels, short_first)
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
            maps.append(freq_mixstyle(*args))
            return maps[-1]
        with drawn_gains(), forced_mix_lambdas(forced), \
                mock.patch.object(audio_aug, "freq_mixstyle", mixstyle):
            pooled = pooled_audio(split, idx, norm, True, cfg, rng_new)
        with drawn_gains(), forced_mix_lambdas(forced):
            ref = frame_reference.pooled_batch([mels[i] for i in idx], norm_ref, True, cfg,
                                               rng_ref)
        assert pooled.shape == ref.shape == (n, n_mels)
        # Freq-MixStyle divides by a clip's bin std, so both paths' rounding grows
        # with its slope sd_new / sd; 1e-12 holds up to slopes of 500. A config that cannot
        # fire mixes nothing.
        assert len(maps) == cfg.draws
        amplification = max([1.0] + [float(m[1].max()) / 500 for m in maps])
        assert np.max(np.abs(pooled - ref)) <= 1e-12 * amplification
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert norm.count == norm_ref.count
        assert np.max(np.abs(norm.mean - norm_ref.mean)) <= 1e-12
        assert np.max(np.abs(norm.var - norm_ref.var)) <= 1e-12
        if short_first and n_t > 0:  # clip 0's only frame is striped
            assert np.all(pooled[0] == 0.0)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), n_mels=st.integers(1, 12))
    @settings(max_examples=examples(50), deadline=None)
    def test_score_split_input_under_running_stats(self, seed, n, n_mels):
        rng = np.random.default_rng(seed)
        split, mels = _random_split(rng, n, n_mels, False)
        norm = _norm_stats(rng, n_mels)
        dims = ModelDims(embed_dim=4, audio_hidden=8, text_hidden=8, token_embed_dim=4)
        seen = []
        embed_audio = trainer.embed_audio
        with mock.patch.object(trainer, "embed_audio",
                               lambda pooled, p: seen.append(pooled) or embed_audio(pooled, p)):
            score_split(split, *caption_queries(split, build_vocab(["a clip"])),
                        init_params(dims, n_mels, 4, seed % 1000), norm)
        ref = frame_reference.pooled_batch(mels, norm, False)
        assert np.max(np.abs(seen[0] - ref)) <= 1e-12


def _stats_split(rng, n_clips, n_distinct, n_mels):
    """A split without frames whose n_clips clips repeat the statistics of n_distinct."""
    rows = rng.integers(0, n_distinct, n_clips)
    mean = rng.normal(size=(n_distinct, n_mels))
    stats = MelStats(rng.integers(1, 50, n_distinct)[rows], mean[rows],
                     rng.uniform(0.0, 2.0, (n_distinct, n_mels))[rows],
                     (mean + rng.uniform(0.0, 3.0, (n_distinct, n_mels)))[rows])
    return PreparedSplit(FeatureConfig(n_mels=n_mels), None, stats, [["a clip"]] * n_clips)


class TestScoreSplitBlocks:
    """score_split ranks TEXT_BLOCK queries at a time. Against ranking them all at once
    (``score_reference``), the ranking itself is exact; the scores are the same to
    rounding only, because BLAS rounds a row of a product differently with the
    product's height for some clip counts (as for 81 to 84 clips)."""

    SCORE_TOL = 1e-12  # cosine scores in [-1, 1] from dot products of at most 128 terms

    @given(seed=st.integers(0, 2**32 - 1),
           n_queries=st.integers(1, 200) | st.sampled_from([TEXT_BLOCK * k + 1 for k in (1, 2, 3)]),
           n_distinct_queries=st.integers(1, 200),
           n_clips=st.integers(1, 40) | st.sampled_from([80, 83, 160]),
           n_distinct_clips=st.integers(1, 160), n_mels=st.integers(1, 12),
           embed_dim=st.sampled_from([1, 5, 64]), hidden=st.sampled_from([3, 16, 128]))
    @example(seed=0, n_queries=TEXT_BLOCK + 1, n_distinct_queries=20, n_clips=30,
             n_distinct_clips=10, n_mels=8, embed_dim=64, hidden=128)
    @example(seed=166, n_queries=121, n_distinct_queries=1, n_clips=10, n_distinct_clips=1,
             n_mels=2, embed_dim=64, hidden=3)  # scores off by rounding, ties broken
    @example(seed=2379322, n_queries=36, n_distinct_queries=53, n_clips=31, n_distinct_clips=31,
             n_mels=1, embed_dim=64, hidden=16)  # a clip at the tolerance's edge
    @settings(max_examples=examples(100), deadline=None)
    def test_matches_one_block(self, seed, n_queries, n_distinct_queries, n_clips,
                               n_distinct_clips, n_mels, embed_dim, hidden):
        """Repeated captions and clips make scores tied, or tied but for rounding."""
        rng = np.random.default_rng(seed)
        split = _stats_split(rng, n_clips, min(n_distinct_clips, n_clips), n_mels)
        dims = ModelDims(embed_dim=embed_dim, audio_hidden=hidden, text_hidden=hidden,
                         token_embed_dim=embed_dim)
        params, norm = init_params(dims, n_mels, 30, seed % 1000), _norm_stats(rng, n_mels)
        captions = rng.integers(0, 30, size=(n_distinct_queries, 12))
        tokens = captions[rng.integers(0, n_distinct_queries, n_queries)]
        targets = rng.integers(0, n_clips, n_queries)
        blocks, rank_targets = [], trainer.rank_targets
        with mock.patch.object(trainer, "rank_targets",
                               lambda s, t: blocks.append(s) or rank_targets(s, t)):
            result = score_split(split, tokens, targets, params, norm)
        assert all(len(b) > 1 for b in blocks) or n_queries == 1
        # ranked in blocks as at once, with the same metrics
        scores = np.concatenate(blocks)
        assert np.array_equal(result.ranks, rank_targets(scores, targets))
        assert result.as_dict() == from_ranks(rank_targets(scores, targets)).as_dict()
        # the scores of the one-block product, to rounding
        ref_scores = score_reference.scores(split, tokens, params, norm)
        assert scores.shape == ref_scores.shape == (n_queries, n_clips)
        assert np.max(np.abs(scores - ref_scores)) <= self.SCORE_TOL
        ref = score_reference.score_split(split, tokens, targets, params, norm)
        if np.array_equal(scores, ref_scores):
            assert np.array_equal(result.ranks, ref.ranks)
            assert result.as_dict() == ref.as_dict()
        # each rank is the reference's, up to the order of clips scored within rounding
        # of the target (tied clips among them); both counts test one rounded difference,
        # so that each clip is above, near or below the target, and only one of them
        target = ref_scores[np.arange(n_queries), targets][:, None]
        above = (ref_scores - target > self.SCORE_TOL).sum(axis=1)
        near = (np.abs(ref_scores - target) <= self.SCORE_TOL).sum(axis=1)  # the target too
        assert np.all((above < result.ranks) & (result.ranks <= above + near))
        assert np.array_equal(result.ranks[near == 1], ref.ranks[near == 1])

    def test_memory_does_not_grow_with_the_query_count(self):
        """2,000 or 4,000 queries against 500 clips: at 2,000 the [queries, clips] scores
        alone would take 8 MB. The peak is the clips' side: pooling and the audio head's
        three [500, hidden] arrays, about 2.3 MB."""
        rng = np.random.default_rng(0)
        split = _stats_split(rng, 500, 500, 64)
        params, norm = init_params(ModelDims(), 64, 50, 0), _norm_stats(rng, 64)
        peaks = []
        for n_queries in (2000, 4000):
            tokens = rng.integers(0, 50, size=(n_queries, 20))
            targets = rng.integers(0, 500, n_queries)
            tracemalloc.start()
            try:
                score_split(split, tokens, targets, params, norm)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 3_000_000
        # only the ranks and the metrics' per-query arrays grow: a few bytes per query
        assert peaks[1] - peaks[0] < 2000 * 64


def _noise_clips(rng, n, sample_rate):
    """n clips of uniform noise, 16 to 400 samples long."""
    return [(f"c{k}", Waveform(rng.uniform(-1.0, 1.0, int(rng.integers(16, 400))), sample_rate),
             [f"clip {k}"]) for k in range(n)]


class TestFrameStore:
    """prepare_split appends each clip's log-mel to a store given it, which writes them to
    an unnamed file and reads them back bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 6), n_mels=st.integers(1, 12))
    @settings(max_examples=examples(40), deadline=None)
    def test_round_trip(self, frames_dir, seed, n, n_mels):
        items = _noise_clips(np.random.default_rng(seed), n, 8000)
        feat = FeatureConfig(n_fft=64, hop=16, n_mels=n_mels, target_sr=8000)
        with contextlib.closing(FrameStore(frames_dir, n_mels)) as store:
            assert prepare_split(items, feat, store).mels is store
            assert len(store) == n and os.listdir(frames_dir) == []
            expected = [logmel(resample_linear(w, feat.target_sr), feat).values
                        for _, w, _ in items]
            for i in (*range(n), *reversed(range(n))):  # any order of reads
                assert store[i].dtype == np.float64 and np.array_equal(store[i], expected[i])
            assert all(np.array_equal(a, b) for a, b in zip(store, expected, strict=True))
            for i in (-1, n):
                with pytest.raises(IndexError):
                    store[i]


class TestSplitWithoutFrames:
    """A split prepared without its log-mels holds the same statistics, and gives the
    same model input wherever augmentation reads no frames: everywhere but time stripes."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), n_mels=st.integers(1, 12),
           plain=st.booleans(), g_max=st.integers(0, 6), n_f=st.integers(0, 1),
           w_f=st.integers(1, 32), p_ms=st.floats(0.0, 1.0), alpha=st.floats(0.01, 1.0))
    @settings(max_examples=examples(60), deadline=None)
    def test_same_statistics_and_pooled_input(self, seed, n, n_mels, plain, g_max, n_f, w_f,
                                              p_ms, alpha):
        rng = np.random.default_rng(seed)
        items = _noise_clips(rng, n, 8000)
        feat = FeatureConfig(n_fft=64, hop=16, n_mels=n_mels, target_sr=8000)
        framed, bare = prepare_split(items, feat, []), prepare_split(items, feat)
        assert bare.mels is None and len(bare) == len(framed) == n
        assert bare.captions == framed.captions
        # the statistics of all clips at once
        whole = mel_stats(framed.mels)
        for name in ("count", "mean", "var", "max"):
            assert np.array_equal(getattr(bare.stats, name), getattr(framed.stats, name))
            assert np.array_equal(getattr(framed.stats, name), getattr(whole, name))

        cfg = OFF_AUDIO if plain else AudioAugConfig(g_max=g_max, n_f=n_f, w_f=w_f, p_ms=p_ms,
                                                     alpha=alpha)
        idx = rng.permutation(n)
        runs = []
        for split in (framed, bare):
            norm, aug_rng = NormStats.fresh(n_mels), np.random.default_rng(seed + 1)
            runs.append((pooled_audio(split, idx, norm, True, cfg, aug_rng), norm, aug_rng))
        (pooled_f, norm_f, rng_f), (pooled_b, norm_b, rng_b) = runs
        assert np.array_equal(pooled_f, pooled_b)
        assert rng_f.bit_generator.state == rng_b.bit_generator.state
        assert np.array_equal(norm_f.mean, norm_b.mean) and np.array_equal(norm_f.var, norm_b.var)

    def test_empty_split(self):
        split = prepare_split([], FeatureConfig())
        assert len(split) == 0 and split.mels is None and split.stats.count.shape == (0,)

    def test_augmentation_reading_frames_rejected(self):
        cfg = AudioAugConfig(n_t=2, w_t=4, n_f=1, g_max=3, p_ms=0.5)
        train, _ = _tiny_splits()
        bare = replace(train, mels=None)
        message = ("cannot apply time stripes (n_t > 0): the split was prepared without "
                   "log-mel frames")
        with pytest.raises(ValueError, match=re.escape(message)):
            pooled_audio(bare, np.arange(6), NormStats.fresh(bare.feat.n_mels), True, cfg,
                         np.random.default_rng(0))
        with pytest.raises(ValueError, match=re.escape(message)):
            train_run(bare, _tiny_splits()[1], ModelDims(), cfg, OFF_TEXT, OptimConfig(epochs=1),
                      0)
