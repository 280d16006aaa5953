import numpy as np
import pytest

from audioretrieval.audio_aug import AudioAugConfig
from audioretrieval.data import FeatureConfig, synth_dataset
from audioretrieval.model import ModelDims, init_params, zeros_like_params
from audioretrieval.text_aug import TextAugConfig
from audioretrieval.trainer import (
    AdamState,
    EarlyStopping,
    OptimConfig,
    adam_step,
    lr_at,
    prepare_split,
    train_run,
)


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
        cfg = OptimConfig(lr0=1e-3)
        adam_step(params, grads, state, 1e-3, cfg)
        assert np.allclose(before - params.w1, 1e-3, rtol=1e-6)

    def test_zero_gradient_no_change(self, small_dims):
        params, grads, state = self._setup(small_dims)
        before = params.copy()
        adam_step(params, grads, state, 1e-3, OptimConfig())
        for (_, a), (_, b) in zip(params.arrays(), before.arrays()):
            assert np.array_equal(a, b)

    def test_second_moment_accumulates(self, small_dims):
        params, grads, state = self._setup(small_dims)
        grads.w1[:] = 1.0
        cfg = OptimConfig()
        adam_step(params, grads, state, 1e-4, cfg)
        v1 = state.v.w1.copy()
        grads.w1[:] = -1.0
        adam_step(params, grads, state, 1e-4, cfg)
        assert np.all(state.v.w1 > v1)
        assert state.t == 2

    def test_nonfinite_gradient_rejected(self, small_dims):
        params, grads, state = self._setup(small_dims)
        grads.w2[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            adam_step(params, grads, state, 1e-4, OptimConfig())


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

    def test_epoch_hook_called(self):
        seen = []
        _tiny_run(seed=6, epoch_hook=lambda e, v: seen.append((e, v)))
        assert [e for e, _ in seen] == [0, 1, 2]

    def test_loss_decreases_on_synthetic_data(self):
        result = _tiny_run(seed=8, epochs=8)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_shared_prepared_splits_unchanged_by_runs(self):
        audio = AudioAugConfig(g_max=3, n_f=1, w_f=4, n_t=2, w_t=8, p_ms=0.5, alpha=0.5)
        text = TextAugConfig(p_eda=0.5, p_syn=0.2, p_swp=0.2, p_ins=0.2, p_del=0.2)
        shared = _tiny_splits()

        def arrays():
            return [a.copy() for split in shared
                    for a in [m.values for m in split.mels]]

        def run(train, val):
            optim = OptimConfig(epochs=3, batch_size=6, seed=9, patience=10)
            return train_run(train, val, ModelDims(), audio, text, optim).as_dict()

        before = arrays()
        first, second = run(*shared), run(*shared)
        assert first == second == run(*_tiny_splits())
        assert all(np.array_equal(a, b) for a, b in zip(before, arrays()))

    def test_train_split_of_one_clip_rejected(self):
        one = prepare_split(synth_dataset(3, 1, 52, duration=0.2), FeatureConfig())
        _, val = _tiny_splits()
        with pytest.raises(ValueError, match="1 clip"):
            train_run(one, val, ModelDims(), None, None, OptimConfig(epochs=2))

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
