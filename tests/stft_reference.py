"""Reference for ``data.logmel``: the whole clip windowed, transformed and squared
in one block, as before the STFT was blocked."""
import numpy as np

from audioretrieval.data import LOG_FLOOR, FeatureConfig, Waveform, mel_filterbank


def logmel_values(w: Waveform, cfg: FeatureConfig) -> np.ndarray:
    n_frames = 1 + len(w.samples) // cfg.hop
    padded = np.pad(w.samples, cfg.n_fft // 2, mode="reflect")
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft))
    starts = np.arange(n_frames) * cfg.hop
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)[starts]
    spec = np.fft.rfft(frames * window, axis=1)
    power = (spec.real**2 + spec.imag**2).T  # [n_bins, T]
    return np.log(mel_filterbank(cfg) @ power + LOG_FLOOR)
