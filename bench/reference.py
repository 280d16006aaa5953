"""Independent recomputation of the retrieval metrics from a written checkpoint.

Nothing here imports the program. It reads the WAVs with the standard
``wave`` module, resamples by explicit linear interpolation, and computes a
periodic-Hann STFT, a Slaney mel filterbank, per-bin normalization with the
checkpoint's statistics, (mean + max) / 2 pooling, both MLP heads, cosine
scores, and ranks under the documented tie rule (a tied candidate with a
lower index counts ahead of the target).
"""
from __future__ import annotations

import json
import unicodedata
import wave
from pathlib import Path

import numpy as np

N_FFT, HOP, N_MELS, TARGET_SR, LOG_FLOOR = 1024, 320, 64, 32000, 1e-10
NORM_EPS, COS_EPS, MAX_TOKENS = 1e-5, 1e-12, 32


def read_wav(path) -> tuple[np.ndarray, int]:
    with wave.open(str(path), "rb") as fh:
        if fh.getsampwidth() != 2 or fh.getnchannels() != 1:
            raise ValueError(f"{path}: expected 16-bit mono PCM")
        rate = fh.getframerate()
        pcm = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    return pcm / 32768.0, rate


def resample(x: np.ndarray, rate: int, target: int) -> np.ndarray:
    """Output sample k takes the input at position k * rate / target, linearly."""
    if rate == target:
        return x.copy()
    n_out = len(x) * target // rate
    pos = np.arange(n_out) * (rate / target)
    left = np.floor(pos).astype(np.int64)
    right = np.minimum(left + 1, len(x) - 1)
    frac = pos - left
    return x[left] * (1.0 - frac) + x[right] * frac


def hz_to_mel(f):
    f = np.asarray(f, dtype=np.float64)
    step = np.log(6.4) / 27.0
    return np.where(f < 1000.0, 3.0 * f / 200.0, 15.0 + np.log(np.maximum(f, 1e-12) / 1000.0) / step)


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    step = np.log(6.4) / 27.0
    return np.where(m < 15.0, 200.0 * m / 3.0, 1000.0 * np.exp(step * (m - 15.0)))


def slaney_filterbank(sr: int = TARGET_SR, n_fft: int = N_FFT, n_mels: int = N_MELS) -> np.ndarray:
    """[n_mels, n_fft // 2 + 1] triangles on the Slaney mel scale, each of unit area."""
    freqs = np.linspace(0.0, sr / 2, n_fft // 2 + 1)
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2), n_mels + 2))
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (freqs[None, :] - lo) / (mid - lo)
    falling = (hi - freqs[None, :]) / (hi - mid)
    return np.clip(np.minimum(rising, falling), 0.0, None) * (2.0 / (hi - lo))


def log_mel(x: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """[n_mels, 1 + len(x) // HOP] natural-log mel power of reflect-centred frames."""
    half = N_FFT // 2
    padded = np.concatenate([x[half:0:-1], x, x[-2:-half - 2:-1]])
    n_frames = 1 + len(x) // HOP
    index = np.arange(n_frames)[:, None] * HOP + np.arange(N_FFT)[None, :]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)
    power = np.abs(np.fft.rfft(padded[index] * window, axis=1)) ** 2
    return np.log(power @ fb.T + LOG_FLOOR).T


def clean_caption(text: str) -> list[str]:
    kept = "".join(c for c in text.lower() if not unicodedata.category(c).startswith("P"))
    return kept.split()


def vocabulary(captions) -> dict[str, int]:
    """Word ids from 2 upward in order of first appearance (0 pads, 1 is unknown)."""
    ids: dict[str, int] = {}
    for caption in captions:
        for word in clean_caption(caption):
            ids.setdefault(word, len(ids) + 2)
    return ids


def load_params(checkpoint) -> dict[str, np.ndarray]:
    doc = json.loads(Path(checkpoint).read_text())
    return {name: np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
            for name, rec in doc["arrays"].items()}


def mlp(x, w_in, b_in, w_out, b_out):
    return np.maximum(x @ w_in + b_in, 0.0) @ w_out + b_out


def unit_rows(x):
    return x / (np.sqrt((x * x).sum(axis=1, keepdims=True)) + COS_EPS)


def ranks(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based position of each query's target after a stable descending sort."""
    out = np.empty(len(targets), dtype=np.int64)
    candidates = np.arange(scores.shape[1])
    for q, target in enumerate(targets):
        order = np.lexsort((candidates, -scores[q]))  # by score, then lower index
        out[q] = 1 + int(np.flatnonzero(order == target)[0])
    return out


def retrieval_metrics(rank: np.ndarray) -> dict[str, float]:
    return {
        "r1": float(np.mean(rank <= 1)),
        "r5": float(np.mean(rank <= 5)),
        "r10": float(np.mean(rank <= 10)),
        "map10": float(np.mean(np.where(rank <= 10, 1.0 / rank, 0.0))),
    }


def read_manifest(path) -> list[tuple[str, list[str]]]:
    with open(path, encoding="utf-8") as fh:
        return [(rec["audio"], rec["captions"]) for rec in map(json.loads, fh) if rec]


def recompute(checkpoint, train_manifest, eval_manifest) -> dict[str, float]:
    """R@1/5/10 and mAP@10 of ``eval_manifest`` under the checkpoint's model."""
    p = load_params(checkpoint)
    fb = slaney_filterbank()
    scale = 1.0 / np.sqrt(p["norm_var"] + NORM_EPS)
    root = Path(eval_manifest).parent
    pooled = []
    for audio, _ in read_manifest(eval_manifest):
        x, rate = read_wav(root / audio)
        mel = (log_mel(resample(x, rate, TARGET_SR), fb) - p["norm_mean"][:, None]) * scale[:, None]
        pooled.append(0.5 * (mel.mean(axis=1) + mel.max(axis=1)))
    audio_emb = mlp(np.array(pooled), p["w1"], p["b1"], p["w2"], p["b2"])

    vocab = vocabulary(c for _, caps in read_manifest(train_manifest) for c in caps)
    text_rows, targets = [], []
    for i, (_, caps) in enumerate(read_manifest(eval_manifest)):
        for caption in caps:
            ids = [vocab.get(w, 1) for w in clean_caption(caption)][:MAX_TOKENS]
            ids = [t for t in ids if t != 0]
            text_rows.append(p["embed"][ids].mean(axis=0) if ids else np.zeros(p["embed"].shape[1]))
            targets.append(i)
    text_emb = mlp(np.array(text_rows), p["w3"], p["b3"], p["w4"], p["b4"])
    scores = unit_rows(text_emb) @ unit_rows(audio_emb).T  # caption queries x clips
    return retrieval_metrics(ranks(scores, np.array(targets)))
