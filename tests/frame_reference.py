"""Reference for the pooled audio path: the frame chain it replaced.

Gain (a shift of the frames), frequency normalization, Freq-MixStyle,
SpecAugment (``aug_reference.spec_augment``) and (mean + max) / 2 pooling, each
over every clip's [n_mels, T] frames, with the same random draws in the same
order as ``trainer.pooled_audio``.
"""
import numpy as np

from audioretrieval import audio_aug
from audioretrieval.data import NormStats

from aug_reference import spec_augment


def freq_normalize(batch: list[np.ndarray], stats: NormStats, update: bool = False):
    if update:
        cols = np.concatenate(batch, axis=1)
        mean = cols.mean(axis=1)
        var = cols.var(axis=1)
        stats.mean = 0.9 * stats.mean + 0.1 * mean
        stats.var = 0.9 * stats.var + 0.1 * var
        stats.count += cols.shape[1]
    else:
        mean, var = stats.mean, stats.var
    scale = 1.0 / np.sqrt(var + 1e-5)
    return [(m - mean[:, None]) * scale[:, None] for m in batch]


def _bin_stats(m: np.ndarray):
    return m.mean(axis=1), m.std(axis=1)  # population std


def freq_mixstyle(batch, alpha, p_ms, rng):
    n = len(batch)
    fire = rng.uniform(size=n) < p_ms
    partners = rng.permutation(n)
    lambdas = audio_aug.sample_mix_lambdas(rng, alpha, n)
    out = []
    for i, m in enumerate(batch):
        j = int(partners[i])
        if not fire[i] or j == i:
            out.append(m.copy())
            continue
        lam = float(lambdas[i])
        mu_i, sd_i = _bin_stats(m)
        mu_j, sd_j = _bin_stats(batch[j])
        mu_new = lam * mu_i + (1.0 - lam) * mu_j
        sd_new = lam * sd_i + (1.0 - lam) * sd_j
        norm = (m - mu_i[:, None]) / np.maximum(sd_i[:, None], 1e-5)
        out.append(norm * sd_new[:, None] + mu_new[:, None])
    return out


def pool_audio(batch: list[np.ndarray]) -> np.ndarray:
    """Per-bin (mean + max) / 2 over each clip's frames, one clip at a time, [N, n_mels]."""
    return np.stack([0.5 * (m.mean(axis=1) + m.max(axis=1)) for m in batch])


def gain(m: np.ndarray, g: float) -> np.ndarray:
    """A gain of g dB on the frames: the mel power scales by 10^(g/10), so without the
    log floor every log-mel value moves by g ln(10) / 10."""
    return m + g * np.log(10.0) / 10.0


def pooled_batch(mels, norm, update, cfg=audio_aug.AudioAugConfig(), rng=None):
    """The frame chain: gain -> normalize -> Freq-MixStyle -> SpecAugment -> pool; a
    ``cfg`` that cannot fire draws nothing."""
    if cfg.draws:
        mels = [gain(m, audio_aug.sample_gain(rng, cfg.g_max)) for m in mels]
    mels = freq_normalize(mels, norm, update)
    if cfg.draws:
        mels = freq_mixstyle(mels, cfg.alpha, cfg.p_ms, rng)
        mels = [spec_augment(m, cfg.n_f, cfg.w_f, cfg.n_t, cfg.w_t, rng) for m in mels]
    return pool_audio(mels)


def apply_map(m: np.ndarray, center, scale, offset=0.0) -> np.ndarray:
    """Frames ``m`` under the per-bin map x -> (x - center) * scale + offset."""
    values = (m - np.asarray(center)[..., None]) * np.asarray(scale)[..., None]
    return values + np.asarray(offset)[..., None]
