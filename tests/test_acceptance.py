"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""
import itertools
import json
import math
import time
from types import SimpleNamespace

import numpy as np

from audioretrieval import cli, trainer
from audioretrieval.audio_aug import AudioAugConfig, sample_mix_lambdas, stripe_masks
from audioretrieval.data import (
    FeatureConfig,
    NormStats,
    build_vocab,
    freq_normalize,
    logmel,
    mel_stats,
    preprocess_caption,
    synth_dataset,
    tokenize,
)
from audioretrieval.metrics import from_ranks, map_at_10, rank_targets, recall_at_k
from audioretrieval.model import (
    ModelDims,
    embed_audio,
    embed_text,
    init_params,
    pool_audio,
    similarity_matrix,
)
from audioretrieval.smbo import ParamSpec, run_search
from audioretrieval.text_aug import TextAugConfig
from audioretrieval.trainer import OptimConfig, lr_at, prepare_split, train_run

from conftest import logged_search
from loss_reference import nt_xent
from test_audio_aug import pooled_gain_shift
from test_model import finite_difference_check

H10 = sum(1.0 / r for r in range(1, 11))
RANDOM_BASELINE = H10 / 100  # expected mAP@10 for uniform ranks over M=100


def report(number: int, title: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}  {title}: {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


def test_criterion_01_gradient_correctness():
    dims = ModelDims(embed_dim=8, audio_hidden=16, text_hidden=16, token_embed_dim=8)
    start = time.monotonic()
    worst = 0.0
    for seed in range(10):
        loss, max_rel = finite_difference_check(dims, 8, 10, seed=seed)
        assert np.isfinite(loss)
        worst = max(worst, max_rel)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    report(1, "gradient correctness",
           ok, f"max rel err {worst:.2e} over 10 seeds, N=4, in {elapsed:.1f}s")


def test_criterion_02_loss_value_oracles():
    err_id = abs(nt_xent(np.eye(2)) - math.log(1.0 + math.exp(-1.0)))
    err_uniform = max(
        abs(nt_xent(np.full((n, n), 0.37)) - math.log(n))
        for n in (2, 8, 30)
    )
    ok = err_id <= 1e-6 and err_uniform <= 1e-9
    report(2, "loss value oracles",
           ok, f"identity err {err_id:.1e} (tol 1e-6), uniform err {err_uniform:.1e} (tol 1e-9)")


def test_criterion_03_metric_oracle_equivalence():
    rng = np.random.default_rng(42)
    mismatches = 0
    for trial in range(1000):
        q = int(rng.integers(1, 65))
        m = int(rng.integers(2, 65))
        if trial % 2:  # tied-score cases
            scores = rng.integers(0, 5, size=(q, m)).astype(float)
        else:
            scores = rng.normal(size=(q, m))
        targets = rng.integers(0, m, size=q)
        ranks = rank_targets(scores, targets)
        oracle = np.array([
            sorted(range(m), key=lambda j: (-scores[i, j], j)).index(targets[i]) + 1
            for i in range(q)
        ])
        r_ok = all(
            recall_at_k(ranks, k) == float(np.mean(oracle <= k)) for k in (1, 5, 10)
        )
        m_ok = map_at_10(ranks) == float(
            np.mean(np.where(oracle <= 10, 1.0 / oracle, 0.0))
        )
        if not (np.array_equal(ranks, oracle) and r_ok and m_ok):
            mismatches += 1
    report(3, "metric oracle equivalence",
           mismatches == 0, f"{mismatches} mismatches on 1000 random matrices up to 64x64")


def test_criterion_04_random_baseline_calibration():
    ds = list(synth_dataset(8, 100, 123, split="test"))
    feat = FeatureConfig()
    mels = [logmel(w, feat).values for _, w, _ in ds]
    stats = mel_stats(mels)
    pooled = pool_audio(stats.mapped(*freq_normalize(stats, NormStats.fresh(feat.n_mels),
                                                     update=True)))
    captions = [preprocess_caption(c) for _, _, caps in ds for c in caps]
    vocab = build_vocab(captions)
    tokens = tokenize(captions, vocab)
    targets = np.array([i for i, (_, _, caps) in enumerate(ds) for _ in caps])
    maps = []
    for seed in range(20):
        params = init_params(ModelDims(), feat.n_mels, len(vocab), seed)
        scores = similarity_matrix(embed_text(tokens, params),
                                   embed_audio(pooled, params))
        maps.append(from_ranks(rank_targets(scores, targets)).map10)
    mean_map = float(np.mean(maps))
    ok = abs(mean_map - RANDOM_BASELINE) <= 0.01
    report(4, "random-baseline calibration",
           ok, f"untrained mAP@10 {mean_map:.4f} vs H10/100 {RANDOM_BASELINE:.4f} (tol 0.01)")


def test_criterion_05_end_to_end_learning_signal():
    train = prepare_split(synth_dataset(8, 200, 300, split="train"), FeatureConfig())
    test = prepare_split(synth_dataset(8, 100, 301, split="test"), FeatureConfig())
    threshold = 5.0 * RANDOM_BASELINE
    start = time.monotonic()
    successes = 0
    best_maps = []
    for seed in range(10):
        optim = OptimConfig(epochs=20)
        result = train_run(train, test, ModelDims(), AudioAugConfig(), TextAugConfig(), optim,
                           seed)
        best_maps.append(result.best_val_map)
        if result.best_val_map >= threshold:
            successes += 1
    elapsed = time.monotonic() - start
    ok = successes >= 9 and elapsed < 300.0
    report(5, "end-to-end learning signal", ok,
           f"{successes}/10 seeds reached mAP@10 >= {threshold:.4f} "
           f"(median {np.median(best_maps):.4f}) in {elapsed:.0f}s")


def test_criterion_06_augmentation_identity_suite():
    train = prepare_split(synth_dataset(3, 18, 50, split="train", duration=0.2), FeatureConfig())
    val = prepare_split(synth_dataset(3, 9, 51, split="val", duration=0.2), FeatureConfig())

    def run(audio_cfg, text_cfg):
        optim = OptimConfig(epochs=3, batch_size=6)
        return train_run(train, val, ModelDims(), audio_cfg, text_cfg, optim, 13)

    # every firing setting 0, the others away from their defaults
    identity_audio = AudioAugConfig(g_max=0, n_f=0, w_f=8, n_t=0, w_t=16, p_ms=0.0, alpha=0.3)
    identity_text = TextAugConfig(p_eda=0.0, p_syn=0.3, p_bt=0.0)
    active_text = TextAugConfig(p_eda=0.5, p_syn=0.2, p_swp=0.1, p_ins=0.1, p_del=0.1)
    pairs = [  # (identity, unaugmented): both sections, then identity audio beside active text
        (run(identity_audio, identity_text), run(AudioAugConfig(), TextAugConfig())),
        (run(identity_audio, active_text), run(AudioAugConfig(), active_text)),
    ]
    ok = all(identity.train_losses == disabled.train_losses
             and identity.val_maps == disabled.val_maps for identity, disabled in pairs)
    report(6, "augmentation identity suite", ok,
           "identity config reproduces the unaugmented trajectory bit-for-bit")


def test_criterion_07_augmentation_distribution_checks():
    rng = np.random.default_rng(7)
    lam_min = min(
        float(sample_mix_lambdas(rng, alpha, 100_000).min())
        for alpha in (0.1, 0.5, 1.0)
    )
    # the amplitude factor exp(shift / 2) of the log-mel shift that training makes of 6 dB
    gain_err = float(np.max(np.abs(np.exp(pooled_gain_shift(6.0) / 2) - 1.995262)))
    bound_violations = 0
    for _ in range(1000):
        n_mels = int(rng.integers(4, 65))
        t = int(rng.integers(4, 90))
        n_f = int(rng.integers(0, 2))
        w_f = int(rng.integers(1, 33))
        n_t = int(rng.integers(0, 9))
        w_t = int(rng.integers(1, 65))
        bins, frames = stripe_masks(n_mels, t, n_f, w_f, n_t, w_t, rng)
        masked = n_mels * t - int(bins.sum()) * int(frames.sum())
        union_bound = n_f * min(w_f, n_mels) * t + n_t * min(w_t, t) * n_mels
        if masked > union_bound:
            bound_violations += 1
    ok = lam_min >= 0.5 and gain_err <= 1e-6 and bound_violations == 0
    report(7, "augmentation distribution checks", ok,
           f"lambda min {lam_min:.4f} over 1e5 draws, g=6 factor err {gain_err:.1e}, "
           f"{bound_violations} union-bound violations on 1000 configs")


def test_criterion_08_tpe_efficacy():
    space = (
        ParamSpec("x", "uniform_float", 0.0, 1.0),
        ParamSpec("y", "uniform_float", 0.0, 1.0),
    )

    def quadratic(cfg, trial_id, seed):
        return -((cfg["x"] - 0.7) ** 2 + (cfg["y"] - 0.7) ** 2), "completed", 1

    start = time.monotonic()
    tpe_best, rand_best = [], []
    for seed in range(20):
        tpe_trials, _ = run_search(quadratic, space, n_init=10, n_trials=60, seed=seed)
        rand_trials, _ = run_search(quadratic, space, n_init=60, n_trials=60, seed=seed)
        tpe_best.append(max(t.objective for t in tpe_trials))
        rand_best.append(max(t.objective for t in rand_trials))
    elapsed = time.monotonic() - start
    tpe_med, rand_med = float(np.median(tpe_best)), float(np.median(rand_best))
    ok = tpe_med > rand_med and elapsed < 60.0
    report(8, "TPE efficacy", ok,
           f"median best objective TPE {tpe_med:.2e} vs random {rand_med:.2e} "
           f"over 20 paired seeds in {elapsed:.0f}s")


def test_criterion_09_early_stopping(monkeypatch):
    train = prepare_split(synth_dataset(3, 18, 50, split="train", duration=0.2), FeatureConfig())
    val = prepare_split(synth_dataset(3, 9, 51, split="val", duration=0.2), FeatureConfig())
    epochs = itertools.count()  # train_run scores the val split once per epoch
    monkeypatch.setattr(trainer, "score_split",  # monotone-decreasing mAP
                        lambda *a: SimpleNamespace(map10=1.0 - 0.01 * next(epochs)))
    result = train_run(train, val, ModelDims(), AudioAugConfig(), TextAugConfig(),
                       OptimConfig(epochs=100, batch_size=6, patience=10), 0)
    stopped_at = result.epochs_run - 1 if result.stopped_early else None
    stops_exact = result.best_epoch == 0 and stopped_at == result.best_epoch + 10

    def pruned_objective(cfg, trial_id, seed):
        return 0.42, "pruned", 7  # best value observed before pruning

    space = (ParamSpec("x", "uniform_float", 0.0, 1.0),)
    trials, _ = run_search(pruned_objective, space, n_init=3, n_trials=3, seed=0)
    carries = all(t.status == "pruned" and t.objective == 0.42 for t in trials)
    ok = stops_exact and carries
    report(9, "early stopping", ok,
           f"stopped at epoch {stopped_at} (best 0 + patience 10); "
           f"pruned records carry pre-prune best: {carries}")


def test_criterion_10_lr_schedule():
    cfg = OptimConfig()
    expected = {0: 1e-4, 9: 1e-4, 10: 1e-4 / 3, 20: 1e-4 / 9, 49: 1e-4 / 81}
    exact = all(lr_at(e, cfg) == v for e, v in expected.items())
    report(10, "LR schedule", exact,
           "lr_at(e) == 1e-4 / 3^(e//10) exactly for e in {0,9,10,20,49}")


def test_criterion_11_determinism(tmp_path):
    config = {
        "seed": 0,
        "paths": {"out_dir": str(tmp_path / "out")},
        "data": {"synthetic": {
            "n_classes": 3, "n_train": 18, "n_val": 9, "n_test": 9, "duration": 0.2,
        }},
        "optim": {"epochs": 2, "batch_size": 6},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "out" / "metrics.csv").read_bytes()
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    csv_identical = (tmp_path / "out" / "metrics.csv").read_bytes() == first

    space = (ParamSpec("x", "uniform_float", 0.0, 1.0),)

    def quadratic(cfg, trial_id, seed):
        return -((cfg["x"] - 0.7) ** 2), "completed", 1

    full_log = tmp_path / "full.jsonl"
    logged_search(full_log, quadratic, space, n_init=5, n_trials=18, seed=4)
    split_log = tmp_path / "split.jsonl"
    logged_search(split_log, quadratic, space, n_init=5, n_trials=7, seed=4)
    logged_search(split_log, quadratic, space, n_init=5, n_trials=18, seed=4, resume=True)
    resume_identical = full_log.read_bytes() == split_log.read_bytes()
    ok = csv_identical and resume_identical
    report(11, "determinism", ok,
           f"train metrics CSVs byte-identical: {csv_identical}; "
           f"smbo resume matches uninterrupted run: {resume_identical}")
