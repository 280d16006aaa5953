"""Audio/caption encoders, cosine similarity matrix, NT-Xent loss, and
hand-written reverse-mode gradients for the full objective."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import FeatureConfig, MelStats, NormStats, TokenVocab, write_atomic

NORM_EPS = 1e-12  # guard added to embedding norms before division


@dataclass
class ModelDims:
    n_mels: int = 64
    embed_dim: int = 64
    audio_hidden: int = 128
    text_hidden: int = 128
    token_embed_dim: int = 64
    vocab_size: int = 2

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")


@dataclass
class ModelParams:
    """All trainable arrays: audio head (w1/b1/w2/b2), token table, text head."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    embed: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: np.ndarray

    def arrays(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: arr.copy() for name, arr in self.arrays()})


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(**{name: np.zeros_like(arr) for name, arr in params.arrays()})


def init_params(dims: ModelDims, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, Normal(0, 0.02) token embeddings."""
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-s, s, size=(fan_in, fan_out))

    return ModelParams(
        w1=glorot(dims.n_mels, dims.audio_hidden),
        b1=np.zeros(dims.audio_hidden),
        w2=glorot(dims.audio_hidden, dims.embed_dim),
        b2=np.zeros(dims.embed_dim),
        embed=rng.normal(0.0, 0.02, size=(dims.vocab_size, dims.token_embed_dim)),
        w3=glorot(dims.token_embed_dim, dims.text_hidden),
        b3=np.zeros(dims.text_hidden),
        w4=glorot(dims.text_hidden, dims.embed_dim),
        b4=np.zeros(dims.embed_dim),
    )


def pool_audio(stats: MelStats, n_valid=None) -> np.ndarray:
    """Per-bin (mean + max) / 2 over each clip's valid frames, shape [N, n_mels].

    ``stats`` cover the frames a clip keeps; with ``n_valid`` [N] larger than
    ``stats.count``, the other valid frames read 0 (SpecAugment time stripes).
    """
    frac = (stats.count / (stats.count if n_valid is None else n_valid))[:, None]
    top = np.where(frac < 1.0, np.maximum(stats.max, 0.0), stats.max)
    return 0.5 * (stats.mean * frac + top)


def pool_text(ids: np.ndarray, embed: np.ndarray) -> np.ndarray:
    """Mean token embedding over the non-PAD positions of each row of an id
    matrix [N, width], shape [N, token_embed_dim]; a row of only PAD -> zeros."""
    valid = ids != TokenVocab.PAD
    summed = np.where(valid[..., None], embed[ids], 0.0).sum(axis=1)
    return summed / np.maximum(valid.sum(axis=1, keepdims=True), 1)


def _head(x, w_in, b_in, w_out, b_out):
    """Two-layer ReLU head: (pre-activation, hidden layer, output)."""
    pre = x @ w_in + b_in
    hidden = np.maximum(pre, 0.0)
    return pre, hidden, hidden @ w_out + b_out


def _unit_rows(x):
    """(row norms, norms + NORM_EPS, rows divided by the latter)."""
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    den = norm + NORM_EPS
    return norm, den, x / den


def embed_audio(pooled: np.ndarray, params: ModelParams) -> np.ndarray:
    """Audio embeddings [N, embed_dim] of pooled log-mels [N, n_mels]."""
    if not len(pooled):
        raise ValueError("empty batch")
    return _head(pooled, params.w1, params.b1, params.w2, params.b2)[2]


def embed_text(ids: np.ndarray, params: ModelParams) -> np.ndarray:
    return _head(pool_text(ids, params.embed), params.w3, params.b3, params.w4, params.b4)[2]


def similarity_matrix(audio_emb: np.ndarray, text_emb: np.ndarray) -> np.ndarray:
    """Cosine agreement C[i, j] between audio row i and caption row j."""
    return _unit_rows(audio_emb)[2] @ _unit_rows(text_emb)[2].T


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def nt_xent(C: np.ndarray, tau: float = 1.0) -> float:
    """Average of row-wise and column-wise softmax CE against the identity."""
    n = C.shape[0]
    if C.shape != (n, n) or n < 2:
        raise ValueError("similarity matrix must be square with N >= 2")
    if tau <= 0:
        raise ValueError("tau must be positive")
    logits = C / tau
    row_ce = -np.diag(_log_softmax(logits))
    col_ce = -np.diag(_log_softmax(logits.T))
    return float((row_ce.sum() + col_ce.sum()) / (2.0 * n))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def backward(
    pooled_a: np.ndarray,
    text_ids: np.ndarray,
    params: ModelParams,
    tau: float = 1.0,
) -> tuple[float, ModelParams]:
    """Loss and exact gradients of nt_xent(similarity(embeddings)) w.r.t. params.

    ``pooled_a`` is the pooled audio [N, n_mels] as ``pool_audio`` returns it and
    ``text_ids`` a PAD-padded id matrix as ``data.tokenize`` returns it.
    Feature normalization statistics are constants; the cosine gradient uses
    the full quotient rule.
    """
    n = len(pooled_a)
    if len(text_ids) != n:
        raise ValueError("audio and text batch sizes differ")

    pre1, h1, A = _head(pooled_a, params.w1, params.b1, params.w2, params.b2)
    pooled_t = pool_text(text_ids, params.embed)
    pre3, h3, T = _head(pooled_t, params.w3, params.b3, params.w4, params.b4)
    a_raw, a_den, An = _unit_rows(A)
    t_raw, t_den, Tn = _unit_rows(T)
    C = An @ Tn.T
    loss = nt_xent(C, tau)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")

    logits = C / tau
    eye = np.eye(n)
    dC = ((_softmax(logits) - eye) + (_softmax(logits.T) - eye).T) / (2.0 * n * tau)

    # cosine backward: An = A / (|A| + eps)
    def through_norm(dXn, X, raw, den):
        safe = np.maximum(raw, NORM_EPS)
        return dXn / den - X * ((dXn * X).sum(axis=1, keepdims=True) / (safe * den**2))

    dA = through_norm(dC @ Tn, A, a_raw, a_den)
    dT = through_norm(dC.T @ An, T, t_raw, t_den)

    def through_head(x, pre, hidden, w_out, d_out):
        """(dw_in, db_in, dw_out, db_out) of a head, and the gradient at its pre-activation."""
        d_pre = (d_out @ w_out.T) * (pre > 0.0)
        return x.T @ d_pre, d_pre.sum(axis=0), hidden.T @ d_out, d_out.sum(axis=0), d_pre

    w1, b1, w2, b2, _ = through_head(pooled_a, pre1, h1, params.w2, dA)
    w3, b3, w4, b4, dh3 = through_head(pooled_t, pre3, h3, params.w4, dT)
    # token table: each valid position gets its row's share, scattered in row order
    valid = text_ids != TokenVocab.PAD
    dpool_t = (dh3 @ params.w3.T) / np.maximum(valid.sum(axis=1, keepdims=True), 1)
    embed = np.zeros_like(params.embed)
    np.add.at(embed, text_ids[valid], dpool_t[np.nonzero(valid)[0]])
    return loss, ModelParams(w1, b1, w2, b2, embed, w3, b3, w4, b4)


def save_checkpoint(path, params: ModelParams, dims: ModelDims, stats: NormStats,
                    vocab: TokenVocab, feat: FeatureConfig):
    """Version 2: ``arrays`` holds only numeric arrays; the vocabulary (words in
    id order), the feature config and the normalization frame count sit beside it."""
    arrays = {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()} for name, arr in params.arrays()}
    arrays["norm_mean"] = {"shape": list(stats.mean.shape), "data": stats.mean.tolist()}
    arrays["norm_var"] = {"shape": list(stats.var.shape), "data": stats.var.tolist()}
    doc = {
        "dims": asdict(dims), "arrays": arrays, "vocab": vocab.words(),
        "features": asdict(feat), "norm_count": stats.count, "version": 2,
    }
    write_atomic(path, json.dumps(doc))


def load_checkpoint(path) -> tuple[ModelParams, ModelDims, NormStats, TokenVocab, FeatureConfig]:
    doc = json.loads(Path(path).read_text())
    if doc.get("version") == 1:
        raise ValueError("checkpoint version 1 carries no vocabulary or feature config; "
                         "retrain to write a version-2 checkpoint")
    if doc.get("version") != 2:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    dims = ModelDims(**doc["dims"])
    arrays = {
        name: np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
        for name, rec in doc["arrays"].items()
    }
    stats = NormStats(arrays.pop("norm_mean"), arrays.pop("norm_var"), doc["norm_count"])
    vocab = TokenVocab({word: i for i, word in enumerate(doc["vocab"], start=TokenVocab.UNK + 1)})
    if len(vocab) != dims.vocab_size:
        raise ValueError(f"vocabulary of {len(vocab)} ids != vocab_size {dims.vocab_size}")
    return ModelParams(**arrays), dims, stats, vocab, FeatureConfig(**doc["features"])
