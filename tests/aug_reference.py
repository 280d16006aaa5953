"""Reference for the augmentations as they acted on signals before training moved them
onto clip statistics: gain scales the waveform, and SpecAugment zeroes each stripe of
the frames as it is drawn. Training applies gain as the log-mel shift
``audio_aug.LOG_MEL_PER_DB`` and its stripes as ``audio_aug.stripe_masks``."""
import numpy as np

from audioretrieval.data import Waveform


def apply_gain(w: Waveform, g: float) -> Waveform:
    """Scale the waveform by 10^(g/20); no clipping."""
    return Waveform(w.samples * 10.0 ** (g / 20.0), w.sample_rate)


def spec_augment(values: np.ndarray, n_f: int, w_f: int, n_t: int, w_t: int,
                 rng: np.random.Generator) -> np.ndarray:
    """A copy of a clip's frames [n_mels, T] with n_f frequency stripes, then n_t time
    stripes, zeroed one by one: width ~ Uniform{1..w_max} (clamped to the dimension),
    then the offset uniform over the placements that fit."""
    values = values.copy()
    n_mels, n_frames = values.shape
    for _ in range(n_f):
        width = int(rng.integers(1, min(w_f, n_mels) + 1))
        offset = int(rng.integers(0, n_mels - width + 1))
        values[offset : offset + width] = 0.0
    for _ in range(n_t):
        width = int(rng.integers(1, min(w_t, n_frames) + 1))
        offset = int(rng.integers(0, n_frames - width + 1))
        values[:, offset : offset + width] = 0.0
    return values
