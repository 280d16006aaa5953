"""Training loop: splits featurized once, Adam, step-decayed learning rate,
on-the-fly augmentation, retrieval scoring for validation and eval, early
stopping."""
from __future__ import annotations

import copy
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

import numpy as np

from . import audio_aug, text_aug
from .data import (
    FeatureConfig,
    ManifestError,
    MelStats,
    NormStats,
    TokenVocab,
    Waveform,
    build_vocab,
    check_int,
    check_positive,
    freq_normalize,
    logmel,
    mel_stats,
    preprocess_caption,
    resample_linear,
    tokenize,
)
from .metrics import RetrievalResult, from_ranks, rank_targets
from .model import (
    TEXT_BLOCK,
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

    def __post_init__(self):
        check_positive(self, "lr0")
        for name, minimum in (("batch_size", 2), ("epochs", 1), ("patience", 1)):
            check_int(self, name, minimum)


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
        step, denom = (1.0 - b1) * g, (1.0 - b2) * g
        m *= b1
        m += step
        v *= b2
        denom *= g
        v += denom
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in that order, in the two buffers
        np.divide(m, bc1, out=step)
        step *= lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p = getattr(params, name)
        p -= step


class FrameStore:
    """The log-mel frames of a split's clips, float64 [n_mels, T] each, end to end in
    one unnamed temporary file: clip i is the bytes from ``offsets[i]`` to
    ``offsets[i + 1]``, read back bit for bit with one read. The file has no name, so
    no run leaves it behind, not even a killed one; it lives in a given directory
    rather than TMPDIR, which is often RAM (tmpfs)."""

    def __init__(self, directory, n_mels: int):
        self.n_mels = n_mels
        self.offsets = [0]
        self._file = tempfile.TemporaryFile(dir=directory)

    def append(self, values: np.ndarray) -> None:
        values = np.ascontiguousarray(values, dtype=np.float64)  # [n_mels, T]
        self._file.write(values)
        self.offsets.append(self.offsets[-1] + values.nbytes)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        if not 0 <= i < len(self):  # an IndexError also ends iteration
            raise IndexError(f"clip {i} of {len(self)}")
        start, end = self.offsets[i], self.offsets[i + 1]
        values = np.empty((self.n_mels, (end - start) // (8 * self.n_mels)))
        self._file.seek(start)
        if self._file.readinto(values) != end - start:
            raise OSError(f"frame store: clip {i} is cut short")
        return values

    def close(self) -> None:
        self._file.close()


@dataclass(frozen=True)
class PreparedSplit:
    """A split featurized once; runs share it and never modify it."""

    feat: FeatureConfig
    mels: FrameStore | None    # un-augmented log-mel frames, None when not kept
    stats: MelStats            # their per-clip statistics
    captions: list[list[str]]  # raw captions of each clip

    def __len__(self):
        return len(self.captions)


def check_splits(train: PreparedSplit, val: PreparedSplit) -> None:
    """Raise ValueError unless a run can train on ``train`` and validate on ``val``."""
    if len(train) < 2:
        raise ValueError(f"train split has {len(train)} clip(s); contrastive training needs >= 2")
    if len(val) == 0:
        raise ValueError("val split is empty")
    if train.feat != val.feat:
        raise ValueError("train and val splits were featurized under different feature configs")


def prepare_split(items: Iterable[tuple[str, Waveform, list[str]]],
                  feat: FeatureConfig, frames=None) -> PreparedSplit:
    """Resample every clip and compute its log-mel statistics, once.

    ``items`` (``data.synth_dataset`` or ``data.iter_manifest``, which make or decode
    one clip at a time) is read once, and no clip's audio is kept. Each clip's statistics are
    taken as soon as its log-mel exists; the log-mel itself is appended to ``frames``
    when given (``pooled_audio`` reads it only for time stripes): a FrameStore its caller
    opens and closes, or a list. A clip shorter than one hop raises ManifestError naming it.
    """
    captions = []

    def clips():
        for audio_id, w, caps in items:
            try:
                m = logmel(resample_linear(w, feat.target_sr), feat)
            except ValueError as exc:
                raise ManifestError(f"clip {audio_id!r}: {exc}") from exc
            if frames is not None:
                frames.append(m.values)
            captions.append(caps)
            yield m.values
    return PreparedSplit(feat, frames, mel_stats(clips()), captions)


def caption_queries(split: PreparedSplit, vocab: TokenVocab) -> tuple[np.ndarray, np.ndarray]:
    """Every caption of the split as one token id matrix, and the index of the clip it describes."""
    tokens = tokenize([preprocess_caption(c) for caps in split.captions for c in caps], vocab)
    targets = np.array([i for i, caps in enumerate(split.captions) for _ in caps], dtype=np.int64)
    return tokens, targets


def pooled_audio(split: PreparedSplit, idx: np.ndarray, norm: NormStats, update: bool,
                 cfg: audio_aug.AudioAugConfig = audio_aug.AudioAugConfig(),
                 rng=None) -> np.ndarray:
    """The model input [B, n_mels] of the clips ``idx``: each bin's (mean + max) / 2
    over its frames after gain, frequency normalization (with ``update``, by the
    batch's own statistics, folded into ``norm``), Freq-MixStyle and SpecAugment.

    A ``cfg`` that cannot fire draws nothing. Gain is a per-clip shift of the log-mel
    (``audio_aug.LOG_MEL_PER_DB``), so frames are read, one read from the split's
    FrameStore per clip, only for the statistics of the unstriped frames of
    time-striped clips; a split prepared without frames raises ValueError for those.
    """
    if cfg.n_t > 0 and split.mels is None:
        raise ValueError("cannot apply time stripes (n_t > 0): the split was prepared "
                         "without log-mel frames")
    stats, shift = split.stats.take(idx), 0.0
    if cfg.g_max:  # with g_max 0 every gain is 0 and draws nothing
        gains = np.array([[audio_aug.sample_gain(rng, cfg.g_max)] for _ in idx])
        shift = audio_aug.LOG_MEL_PER_DB * gains
        stats = stats.mapped(0.0, 1.0, shift)
    center, scale = freq_normalize(stats, norm, update)
    normed = stats.mapped(center, scale)
    if not cfg.draws:
        return pool_audio(normed)
    mix_center, slope, offset = audio_aug.freq_mixstyle(normed, cfg.alpha, cfg.p_ms, rng)
    unstriped = []
    for k, t in enumerate(stats.count.tolist()):
        bins, frames = audio_aug.stripe_masks(split.feat.n_mels, t, cfg.n_f, cfg.w_f, cfg.n_t,
                                              cfg.w_t, rng)
        # a clip with every bin or every frame striped reads 0 in every bin; its
        # statistics are still taken over all its frames, so that they exist
        if not (bins.any() and frames.any()):
            bins[:], frames[:] = False, True
        slope[k, ~bins] = offset[k, ~bins] = 0.0
        if cfg.n_t:  # every clip has time stripes: pool its unstriped frames
            unstriped.append(split.mels[idx[k]][:, frames])
    if unstriped:  # the gain's shift is folded into the center
        normed = mel_stats(unstriped).mapped(center - shift, scale)
    return pool_audio(normed.mapped(mix_center, slope, offset), stats.count)


def score_split(split: PreparedSplit, tokens: np.ndarray, targets: np.ndarray, params: ModelParams,
                stats: NormStats) -> RetrievalResult:
    """Rank the split's clips for each caption query under frozen normalization stats.

    Queries are embedded, scored against every clip and ranked TEXT_BLOCK at a time, so
    no [queries, clips] array exists. A one-row last block joins the one before it:
    BLAS computes a one-row product with another kernel, which rounds differently."""
    audio_emb = embed_audio(pooled_audio(split, np.arange(len(split)), stats, update=False), params)
    starts = list(range(0, len(tokens) - 1, TEXT_BLOCK)) or [0]
    ranks = []
    for a, b in zip(starts, starts[1:] + [len(tokens)]):
        scores = similarity_matrix(embed_text(tokens[a:b], params), audio_emb)  # block x clips
        ranks.append(rank_targets(scores, targets[a:b]))
    return from_ranks(np.concatenate(ranks))


@dataclass
class TrainState:
    """Everything an epoch reads and changes; a copy of it resumes the run exactly."""
    params: ModelParams
    norm: NormStats
    adam: AdamState
    vocab: TokenVocab
    captions: list[list[str]]  # the training captions, preprocessed
    val_queries: tuple[np.ndarray, np.ndarray]  # caption_queries(val, vocab)
    rng_order: np.random.Generator  # batch order and caption choice
    rng_aug: np.random.Generator  # every augmentation draw
    result: RunResult = field(default_factory=RunResult)
    best: tuple[ModelParams, NormStats] | None = None  # at the best epoch; epoch 0 sets it


def start_run(train: PreparedSplit, val: PreparedSplit, dims: ModelDims, seed: int) -> TrainState:
    """The state before epoch 0 of a run from ``seed``. The model's input widths are the
    splits' ``feat.n_mels`` and the training vocabulary's size."""
    check_splits(train, val)
    rng_init, rng_order, rng_aug = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))
    captions = [[preprocess_caption(c) for c in caps] for caps in train.captions]
    vocab = build_vocab([c for caps in captions for c in caps])
    params = init_params(dims, train.feat.n_mels, len(vocab), int(rng_init.integers(2**31)))
    return TrainState(params, NormStats.fresh(train.feat.n_mels), AdamState(), vocab, captions,
                      caption_queries(val, vocab), rng_order, rng_aug)


@np.errstate(all="ignore")  # a diverging run ends in the FloatingPointError below, not in warnings
def run_epoch(state: TrainState, train: PreparedSplit, val: PreparedSplit,
              audio_cfg: audio_aug.AudioAugConfig, text_cfg: text_aug.TextAugConfig,
              optim: OptimConfig, provider, lexicon: text_aug.SynonymLexicon) -> None:
    """Train and validate epoch ``state.result.epochs_run``, into ``state.result`` and
    ``state.best``. A config that cannot fire draws nothing; per batch, augmentation draws
    caption text (BT then EDA, per item) -> gain (per item) -> Freq-MixStyle -> SpecAugment
    (per item). A non-finite loss, embedding norm or gradient raises FloatingPointError."""
    result = state.result
    epoch, lr = result.epochs_run, lr_at(result.epochs_run, optim)
    order = state.rng_order.permutation(len(train))
    cap_choice = {int(i): int(state.rng_order.integers(len(train.captions[i]))) for i in order}
    batch_losses = []
    for start in range(0, len(train), optim.batch_size):
        idx = order[start : start + optim.batch_size]
        if len(idx) < 2:
            continue  # nt_xent needs N >= 2
        tokens = tokenize([
            state.captions[i][cap_choice[int(i)]] if not text_cfg.draws
            else text_aug.augment_caption(train.captions[i][cap_choice[int(i)]], text_cfg,
                                          provider, lexicon, state.vocab, state.rng_aug)
            for i in idx
        ], state.vocab)
        pooled = pooled_audio(train, idx, state.norm, True, audio_cfg, state.rng_aug)
        try:
            loss, grads = backward(pooled, tokens, state.params)
            adam_step(state.params, grads, state.adam, lr)
        except FloatingPointError as exc:
            raise FloatingPointError(f"training diverged at epoch {epoch}: {exc}") from exc
        batch_losses.append(loss)

    result.train_losses.append(float(np.mean(batch_losses)))
    val_map = score_split(val, *state.val_queries, state.params, state.norm).map10
    result.val_maps.append(val_map)
    result.epochs_run = epoch + 1
    if result.best_epoch < 0 or val_map > result.best_val_map:
        result.best_val_map, result.best_epoch = val_map, epoch
        state.best = copy.deepcopy((state.params, state.norm))


def train_run(
    train: PreparedSplit,
    val: PreparedSplit,
    dims: ModelDims,
    audio_cfg: audio_aug.AudioAugConfig,
    text_cfg: text_aug.TextAugConfig,
    optim: OptimConfig,
    seed: int,
    provider=None,
    lexicon: text_aug.SynonymLexicon | None = None,
    checkpoint_path=None,
) -> RunResult:
    """Epochs of a run from ``seed`` until ``optim.epochs``, or until ``optim.patience`` epochs
    have not strictly improved on the best validation mAP@10; the best epoch's model is then
    saved to ``checkpoint_path`` when given."""
    state = start_run(train, val, dims, seed)
    result = state.result
    result.checkpoint_path = str(checkpoint_path) if checkpoint_path else None
    while not result.stopped_early and result.epochs_run < optim.epochs:
        run_epoch(state, train, val, audio_cfg, text_cfg, optim, provider,
                  lexicon or text_aug.SynonymLexicon())
        result.stopped_early = result.epochs_run - result.best_epoch > optim.patience
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, *state.best, state.vocab, train.feat)
    return result
