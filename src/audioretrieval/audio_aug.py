"""Audio augmentations: random gain, SpecAugment, Freq-MixStyle."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MelStats, check_int, check_range

# a gain of g dB scales the mel power by 10^(g/10): on the log-mel, a shift by g times this
LOG_MEL_PER_DB = np.log(10.0) / 10.0


@dataclass(frozen=True)
class AudioAugConfig:
    g_max: int = 0       # dB, {0..6}
    n_f: int = 0         # frequency stripes, {0, 1}
    w_f: int = 1         # max stripe width in mel bins, {1..32}
    n_t: int = 0         # time stripes, {0..8}
    w_t: int = 1         # max stripe width in frames, {1..64}
    p_ms: float = 0.0    # Freq-MixStyle probability
    alpha: float = 0.5   # Beta shape for the mixing coefficient

    def __post_init__(self):
        for name, lo, hi in (("g_max", 0, 6), ("n_f", 0, 1), ("w_f", 1, 32), ("n_t", 0, 8),
                             ("w_t", 1, 64)):
            check_int(self, name, lo, hi)
        check_range(self, "p_ms", 0, 1)
        check_range(self, "alpha", 0, 1, open_below=True)

    @property
    def draws(self) -> bool:
        """Whether any augmentation can fire; a config that cannot draws nothing."""
        return bool(self.g_max or self.n_f or self.n_t or self.p_ms)


def sample_gain(rng: np.random.Generator, g_max: int) -> float:
    """Draw a gain in dB uniformly from [-g_max, g_max]."""
    if g_max < 0:
        raise ValueError("g_max must be >= 0")
    if g_max == 0:
        return 0.0
    return float(rng.uniform(-g_max, g_max))


def stripe_masks(n_mels: int, n_frames: int, n_f: int, w_f: int, n_t: int, w_t: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One clip's SpecAugment stripes, as the kept mel bins [n_mels] and the kept
    frames [n_frames] (boolean masks).

    Stripe width ~ Uniform{1..w_max} (clamped to the dimension), offset
    uniform over valid placements; n_f frequency stripes are drawn, then n_t
    time stripes.
    """
    bins, frames = np.ones(n_mels, dtype=bool), np.ones(n_frames, dtype=bool)
    for mask, n, w_max in ((bins, n_f, w_f), (frames, n_t, w_t)):
        for _ in range(n):
            width = int(rng.integers(1, min(w_max, len(mask)) + 1))
            offset = int(rng.integers(0, len(mask) - width + 1))
            mask[offset : offset + width] = False
    return bins, frames


def sample_mix_lambdas(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    """Draw n mixing coefficients from Beta(alpha, alpha) folded to [0.5, 1]."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    lambdas = rng.beta(alpha, alpha, size=n)
    return np.maximum(lambdas, 1.0 - lambdas)


def freq_mixstyle(stats: MelStats, alpha: float, p_ms: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mix per-bin mean/std statistics between random batch partners.

    ``stats`` are the clips' statistics over valid frames. For each example
    that fires (probability p_ms): draw a partner from one random permutation
    of the batch and lambda ~ Beta(alpha, alpha) folded to max(lambda,
    1 - lambda), so the example's own statistics always get the larger
    weight. Returns each clip's per-bin map x -> (x - center) * slope + offset
    as three [N, n_mels] arrays, with slope >= 0 and the exact identity
    (0, 1, 0) where nothing fires.
    """
    n = len(stats.count)
    fire = rng.uniform(size=n) < p_ms
    partners = rng.permutation(n)
    lam = sample_mix_lambdas(rng, alpha, n)[:, None]
    mix = (fire & (partners != np.arange(n)))[:, None]
    sd = np.sqrt(stats.var)
    mu_new = lam * stats.mean + (1.0 - lam) * stats.mean[partners]
    sd_new = lam * sd + (1.0 - lam) * sd[partners]
    # floor (not additive) stabilizer so lambda=1 is an exact identity
    slope = np.where(mix, sd_new / np.maximum(sd, 1e-5), 1.0)
    return np.where(mix, stats.mean, 0.0), slope, np.where(mix, mu_new, 0.0)
