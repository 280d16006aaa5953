"""Training loop: splits featurized once, Adam, step-decayed learning rate,
on-the-fly augmentation, retrieval scoring for validation and eval, early
stopping."""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import audio_aug, text_aug
from .data import (
    FeatureConfig,
    MelSpectrogram,
    MelStats,
    NormStats,
    PairedDataset,
    TokenVocab,
    build_vocab,
    freq_normalize,
    logmel,
    mel_stats,
    preprocess_caption,
    resample_linear,
    tokenize,
)
from .metrics import RetrievalResult, evaluate
from .model import (
    ModelDims,
    ModelParams,
    backward,
    embed_audio,
    embed_text,
    init_params,
    pool_audio,
    save_checkpoint,
    similarity_matrix,
    zeros_like_params,
)

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LR_DROP_FACTOR, LR_DROP_EVERY = 3.0, 10


@dataclass
class OptimConfig:
    lr0: float = 1e-4
    batch_size: int = 30
    epochs: int = 50
    patience: int = 10
    seed: int = 0  # set from the run's seed; a config cannot set it

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class AdamState:
    t: int = 0
    m: ModelParams | None = None
    v: ModelParams | None = None


@dataclass
class RunResult:
    train_losses: list[float] = field(default_factory=list)
    val_maps: list[float] = field(default_factory=list)
    best_val_map: float = 0.0
    best_epoch: int = -1
    stopped_early: bool = False
    epochs_run: int = 0
    checkpoint_path: str | None = None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def lr_at(epoch: int, cfg: OptimConfig) -> float:
    """Initial rate divided by LR_DROP_FACTOR every LR_DROP_EVERY epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.lr0 / LR_DROP_FACTOR ** (epoch // LR_DROP_EVERY)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float) -> None:
    """One in-place Adam update with bias correction."""
    if state.m is None:
        state.m = zeros_like_params(params)
        state.v = zeros_like_params(params)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, g in grads.arrays():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name}")
        m = getattr(state.m, name)
        v = getattr(state.v, name)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p = getattr(params, name)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


class EarlyStopping:
    """Stop when the monitored value has not strictly improved for `patience` epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = -1

    def update(self, epoch: int, value: float) -> bool:
        """Record an epoch's value; returns True when training should stop."""
        if value > self.best:
            self.best = value
            self.best_epoch = epoch
        return epoch - self.best_epoch >= self.patience


@dataclass(frozen=True)
class PreparedSplit:
    """A split featurized once; runs share it and never modify it."""

    feat: FeatureConfig
    mels: list[MelSpectrogram]     # un-augmented log-mels
    stats: MelStats                # their per-clip statistics over valid frames
    captions: list[list[str]]      # raw captions of each clip

    def __len__(self):
        return len(self.mels)


def prepare_split(ds: PairedDataset, feat: FeatureConfig) -> PreparedSplit:
    """Resample every clip and compute its log-mel and statistics, once."""
    mels = [logmel(resample_linear(w, feat.target_sr), feat) for _, w, _ in ds.items]
    return PreparedSplit(feat, mels, mel_stats(mels), [caps for _, _, caps in ds.items])


def caption_queries(split: PreparedSplit, vocab: TokenVocab) -> tuple[np.ndarray, np.ndarray]:
    """Every caption of the split as one token id matrix, and the index of the clip it describes."""
    tokens = tokenize([preprocess_caption(c) for caps in split.captions for c in caps], vocab)
    targets = np.array([i for i, caps in enumerate(split.captions) for _ in caps], dtype=np.int64)
    return tokens, targets


def pooled_audio(split: PreparedSplit, idx: np.ndarray, norm: NormStats, update: bool,
                 cfg: audio_aug.AudioAugConfig | None = None, rng=None) -> np.ndarray:
    """The model input [B, n_mels] of the clips ``idx``: each bin's (mean + max) / 2
    over valid frames after gain, frequency normalization (with ``update``, by the
    batch's own statistics, folded into ``norm``), Freq-MixStyle and SpecAugment.

    ``cfg`` None skips the augmentations. Frames are read again only for the
    statistics of gained clips and of the unstriped frames of striped ones.
    """
    stats, mels = split.stats.take(idx), [split.mels[i] for i in idx]
    if cfg is not None and cfg.g_max:  # with g_max 0 every gain is 0 and draws nothing
        mels = [audio_aug.gain_logmel(m, audio_aug.sample_gain(rng, cfg.g_max),
                                      split.feat.log_floor) for m in mels]
        stats = mel_stats(mels)
    center, scale = freq_normalize(stats, norm, update)
    normed = stats.mapped(center, scale)
    if cfg is None:
        return pool_audio(normed)
    mix_center, slope, offset = audio_aug.freq_mixstyle(normed, cfg.alpha, cfg.p_ms, rng)
    unstriped = []
    for k, m in enumerate(mels):
        t = m.n_frames_valid
        # the clip's stripes, read off SpecAugment of a matrix of ones
        kept = audio_aug.spec_augment(MelSpectrogram(np.ones_like(m.values[:, :t]), t),
                                      cfg.n_f, cfg.w_f, cfg.n_t, cfg.w_t, rng).values > 0
        # a clip with every frame or every bin striped reads 0 in every bin
        bins, frames = kept.any(axis=1), kept.any(axis=0) | ~kept.any()
        slope[k, ~bins] = offset[k, ~bins] = 0.0
        if cfg.n_t:  # every clip has time stripes: pool its unstriped frames
            unstriped.append(MelSpectrogram(m.values[:, :t][:, frames], int(frames.sum())))
    if unstriped:
        normed = mel_stats(unstriped).mapped(center, scale)
    return pool_audio(normed.mapped(mix_center, slope, offset), stats.count)


def score_split(split: PreparedSplit, tokens: np.ndarray, targets: np.ndarray, params: ModelParams,
                stats: NormStats) -> RetrievalResult:
    """Rank the split's clips for each caption query under frozen normalization stats."""
    audio_emb = embed_audio(pooled_audio(split, np.arange(len(split)), stats, update=False), params)
    text_emb = embed_text(tokens, params)
    scores = similarity_matrix(text_emb, audio_emb)  # queries x recordings
    return evaluate(scores, targets)


def train_run(
    train: PreparedSplit,
    val: PreparedSplit,
    dims: ModelDims,
    audio_cfg: audio_aug.AudioAugConfig | None,
    text_cfg: text_aug.TextAugConfig | None,
    optim: OptimConfig,
    provider=None,
    lexicon: text_aug.SynonymLexicon | None = None,
    checkpoint_path=None,
) -> RunResult:
    """Full optimization run; returns per-epoch losses and validation mAP@10.

    ``dims.vocab_size`` and ``dims.n_mels`` are replaced by the training
    vocabulary's size and the splits' ``feat.n_mels``. Pass ``audio_cfg`` /
    ``text_cfg`` as None to disable that augmentation path entirely. RNG
    streams: one for batch order and caption sampling, one for augmentation;
    per batch the augmentation draws happen in the fixed order caption text
    (BT then EDA, per item) -> gain (per item) -> Freq-MixStyle ->
    SpecAugment (per item).
    """
    if len(train) < 2:
        raise ValueError(f"train split has {len(train)} clip(s); contrastive training needs >= 2")
    if len(val) == 0:
        raise ValueError("val split is empty")
    if train.feat != val.feat:
        raise ValueError("train and val splits were featurized under different feature configs")
    feat = train.feat
    seeds = np.random.SeedSequence(optim.seed).spawn(3)
    rng_init, rng_order, rng_aug = (np.random.default_rng(s) for s in seeds)
    lexicon = lexicon or text_aug.SynonymLexicon(({}))

    caps_pre = [[preprocess_caption(c) for c in caps] for caps in train.captions]
    vocab = build_vocab([c for caps in caps_pre for c in caps])
    dims = replace(dims, vocab_size=len(vocab), n_mels=feat.n_mels)

    params = init_params(dims, int(rng_init.integers(2**31)))
    stats = NormStats.fresh(dims.n_mels)
    state = AdamState()
    best = None  # (params, stats) at the best validation epoch

    # without text augmentation a clip's caption j is row first[i] + j of one matrix
    if text_cfg is None:
        caption_rows = tokenize([c for caps in caps_pre for c in caps], vocab)
        first = np.cumsum([0] + [len(caps) for caps in caps_pre])
    val_tokens, val_targets = caption_queries(val, vocab)

    result = RunResult(checkpoint_path=str(checkpoint_path) if checkpoint_path else None)
    stopper = EarlyStopping(optim.patience)
    n = len(train)

    for epoch in range(optim.epochs):
        lr = lr_at(epoch, optim)
        order = rng_order.permutation(n)
        cap_choice = {int(i): int(rng_order.integers(len(train.captions[i]))) for i in order}
        batch_losses = []
        for start in range(0, n, optim.batch_size):
            idx = order[start : start + optim.batch_size]
            if len(idx) < 2:
                continue  # nt_xent needs N >= 2
            if text_cfg is None:
                tokens = caption_rows[[first[i] + cap_choice[int(i)] for i in idx]]
            else:
                tokens = tokenize([
                    text_aug.augment_caption(train.captions[i][cap_choice[int(i)]], text_cfg,
                                             provider, lexicon, vocab, rng_aug)
                    for i in idx
                ], vocab)
            pooled = pooled_audio(train, idx, stats, True, audio_cfg, rng_aug)
            loss, grads = backward(pooled, tokens, params)
            adam_step(params, grads, state, lr)
            batch_losses.append(loss)

        result.train_losses.append(float(np.mean(batch_losses)))
        val_map = score_split(val, val_tokens, val_targets, params, stats).map10
        result.val_maps.append(val_map)
        result.epochs_run = epoch + 1

        if val_map > stopper.best:
            best = (params.copy(), NormStats(stats.mean.copy(), stats.var.copy(), stats.count))
        if stopper.update(epoch, val_map):
            result.stopped_early = True
            break

    if checkpoint_path is not None and best is not None:
        save_checkpoint(checkpoint_path, best[0], dims, best[1], vocab, feat)
    result.best_val_map = stopper.best if stopper.best_epoch >= 0 else 0.0
    result.best_epoch = stopper.best_epoch
    return result
