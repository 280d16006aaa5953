"""Reference for ``model.backward``: the NT-Xent loss as its own function over the similarity
matrix, and the gradients with each softmax computed again for them, into separate arrays,
as before ``backward`` computed each softmax once and wrote its gradients into one vector."""
import numpy as np

from audioretrieval.data import TokenVocab
from audioretrieval.model import (NORM_EPS, ModelParams, _head, _unit_rows, pool_text,
                                  scatter_rows)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def nt_xent(C: np.ndarray) -> float:
    """Average of row-wise and column-wise softmax CE against the identity, at temperature 1."""
    n = C.shape[0]
    if C.shape != (n, n) or n < 2:
        raise ValueError("similarity matrix must be square with N >= 2")
    row_ce = -np.diag(log_softmax(C))
    col_ce = -np.diag(log_softmax(C.T))
    return float((row_ce.sum() + col_ce.sum()) / (2.0 * n))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def backward(pooled_a: np.ndarray, text_ids: np.ndarray,
             params: ModelParams) -> tuple[float, ModelParams]:
    """Loss and gradients of nt_xent(similarity(embeddings)), each gradient its own array."""
    n = len(pooled_a)
    if len(text_ids) != n:
        raise ValueError("audio and text batch sizes differ")

    pre1, h1, A = _head(pooled_a, params.w1, params.b1, params.w2, params.b2)
    pooled_t = pool_text(text_ids, params.embed)
    pre3, h3, T = _head(pooled_t, params.w3, params.b3, params.w4, params.b4)
    a_raw, a_den, An = _unit_rows(A)
    t_raw, t_den, Tn = _unit_rows(T)
    C = An @ Tn.T
    loss = nt_xent(C)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    if not (np.isfinite(a_raw).all() and np.isfinite(t_raw).all()):
        raise FloatingPointError("non-finite embedding norm")

    eye = np.eye(n)
    dC = ((softmax(C) - eye) + (softmax(C.T) - eye).T) / (2.0 * n)

    def through_norm(dXn, X, raw, den):
        safe = np.maximum(raw, NORM_EPS)
        return dXn / den - X * ((dXn * X).sum(axis=1, keepdims=True) / (safe * den**2))

    dA = through_norm(dC @ Tn, A, a_raw, a_den)
    dT = through_norm(dC.T @ An, T, t_raw, t_den)

    def through_head(x, pre, hidden, w_out, d_out):
        d_pre = (d_out @ w_out.T) * (pre > 0.0)
        return x.T @ d_pre, d_pre.sum(axis=0), hidden.T @ d_out, d_out.sum(axis=0), d_pre

    w1, b1, w2, b2, _ = through_head(pooled_a, pre1, h1, params.w2, dA)
    w3, b3, w4, b4, dh3 = through_head(pooled_t, pre3, h3, params.w4, dT)
    valid = text_ids != TokenVocab.PAD
    dpool_t = (dh3 @ params.w3.T) / np.maximum(valid.sum(axis=1, keepdims=True), 1)
    embed = scatter_rows(text_ids[valid], dpool_t[np.nonzero(valid)[0]], len(params.embed))
    return loss, ModelParams(w1, b1, w2, b2, embed, w3, b3, w4, b4)
