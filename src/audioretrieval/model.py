"""Audio/caption encoders, cosine similarity matrix, NT-Xent loss, and
hand-written reverse-mode gradients for the full objective."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import FeatureConfig, MelStats, NormStats, TokenVocab, check_int, write_atomic

NORM_EPS = 1e-12  # guard added to embedding norms before division
TEXT_BLOCK = 64  # id rows pool_text gathers, and caption queries score_split ranks, at a time
CHECKPOINT_SLICE = 1024  # values of an array that save_checkpoint turns into JSON at a time


@dataclass
class ModelDims:  # the widths a config sets; init_params takes the input widths
    embed_dim: int = 64
    audio_hidden: int = 128
    text_hidden: int = 128
    token_embed_dim: int = 64

    def __post_init__(self):
        for f in fields(self):
            check_int(self, f.name, 1)


class ModelParams:
    """All trainable arrays: audio head (w1/b1/w2/b2), token table, text head, as named
    views of one float64 vector ``flat`` that holds them end to end in that order.

    The views are made once per object; ``copy()``, ``copy.deepcopy`` and pickle copy
    ``flat`` and make them again on the copy."""

    NAMES = ("w1", "b1", "w2", "b2", "embed", "w3", "b3", "w4", "b4")

    def __init__(self, w1, b1, w2, b2, embed, w3, b3, w4, b4):
        arrays = (w1, b1, w2, b2, embed, w3, b3, w4, b4)
        layout, end = [], 0
        for name, arr in zip(self.NAMES, arrays):
            start, end = end, end + np.size(arr)
            layout.append((name, slice(start, end), np.shape(arr)))
        self.__setstate__((np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64),
                           tuple(layout)))

    def __getstate__(self):
        return self.flat, self.layout

    def __setstate__(self, state):
        self.flat, self.layout = state  # layout: each array's name, slice of flat and shape
        for name, part, shape in self.layout:
            setattr(self, name, self.flat[part].reshape(shape))

    def arrays(self):
        for name in self.NAMES:
            yield name, getattr(self, name)

    def on(self, flat: np.ndarray) -> "ModelParams":
        """Arrays of this layout as views of ``flat``, which they share."""
        other = object.__new__(ModelParams)
        other.__setstate__((flat, self.layout))
        return other

    def copy(self) -> "ModelParams":
        return self.on(self.flat.copy())


def zeros_like_params(params: ModelParams) -> ModelParams:
    return params.on(np.zeros_like(params.flat))


def init_params(dims: ModelDims, n_mels: int, vocab_size: int, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, Normal(0, 0.02) token embeddings."""
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-s, s, size=(fan_in, fan_out))

    return ModelParams(
        w1=glorot(n_mels, dims.audio_hidden),
        b1=np.zeros(dims.audio_hidden),
        w2=glorot(dims.audio_hidden, dims.embed_dim),
        b2=np.zeros(dims.embed_dim),
        embed=rng.normal(0.0, 0.02, size=(vocab_size, dims.token_embed_dim)),
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
    matrix [N, width], shape [N, token_embed_dim]; a row of only PAD -> zeros.

    The gathered [rows, width, token_embed_dim] embeddings exist for TEXT_BLOCK
    rows at a time; each row's sum is the same as over all rows at once."""
    valid = ids != TokenVocab.PAD
    summed = np.empty((len(ids), embed.shape[1]), dtype=embed.dtype)
    for start in range(0, len(ids), TEXT_BLOCK):
        rows = slice(start, start + TEXT_BLOCK)
        summed[rows] = np.where(valid[rows, :, None], embed[ids[rows]], 0.0).sum(axis=1)
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


def _softmax_parts(logits: np.ndarray):
    """(logits minus each row's max, their exp, and the exp's row sums [n, 1])."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=1, keepdims=True)


def scatter_rows(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """A zero [n, width] table with each row ``rows[k]`` added to its row ``ids[k]`` in
    order of k: the sums of ``np.add.at``, bit for bit, from one bincount over the table's
    flattened (id, column) cells."""
    width = rows.shape[1]
    cells = ids[:, None] * width + np.arange(width)
    return np.bincount(cells.ravel(), rows.ravel(), n * width).reshape(n, width)


def backward(pooled_a: np.ndarray, text_ids: np.ndarray,
             params: ModelParams) -> tuple[float, ModelParams]:
    """The NT-Xent loss of similarity(embeddings) and its exact gradients w.r.t. params.

    The loss averages the row-wise and column-wise softmax cross-entropy of C against
    the identity, at temperature 1; each softmax is computed once, for both. ``pooled_a``
    is the pooled audio [N, n_mels] as ``pool_audio`` returns it and ``text_ids`` a
    PAD-padded id matrix as ``data.tokenize`` returns it, N >= 2. Feature normalization
    statistics are constants; the cosine gradient uses the full quotient rule. The
    gradients are views of one vector, as ``params`` are.
    """
    n = len(pooled_a)
    if len(text_ids) != n:
        raise ValueError("audio and text batch sizes differ")
    if n < 2:
        raise ValueError(f"a contrastive batch needs N >= 2 pairs, got {n}")

    pre1, h1, A = _head(pooled_a, params.w1, params.b1, params.w2, params.b2)
    pooled_t = pool_text(text_ids, params.embed)
    pre3, h3, T = _head(pooled_t, params.w3, params.b3, params.w4, params.b4)
    a_raw, a_den, An = _unit_rows(A)
    t_raw, t_den, Tn = _unit_rows(T)
    C = An @ Tn.T
    rows, cols = _softmax_parts(C), _softmax_parts(C.T)
    # each row's and column's cross-entropy: minus the diagonal of its log-softmax
    ce = [-(np.diagonal(shifted) - np.log(sums[:, 0])) for shifted, _, sums in (rows, cols)]
    loss = float((ce[0].sum() + ce[1].sum()) / (2.0 * n))
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    if not (np.isfinite(a_raw).all() and np.isfinite(t_raw).all()):  # rows then divide to 0
        raise FloatingPointError("non-finite embedding norm")

    eye = np.eye(n)
    (_, e_rows, rows_sum), (_, e_cols, cols_sum) = rows, cols
    dC = ((e_rows / rows_sum - eye) + (e_cols / cols_sum - eye).T) / (2.0 * n)

    # cosine backward: An = A / (|A| + eps)
    def through_norm(dXn, X, raw, den):
        safe = np.maximum(raw, NORM_EPS)
        return dXn / den - X * ((dXn * X).sum(axis=1, keepdims=True) / (safe * den**2))

    dA = through_norm(dC @ Tn, A, a_raw, a_den)
    dT = through_norm(dC.T @ An, T, t_raw, t_den)
    grads = params.on(np.empty_like(params.flat))

    def through_head(x, pre, hidden, w_out, d_out, dw_in, db_in, dw_out, db_out):
        """A head's four gradients, written into the given views; the gradient at its
        pre-activation."""
        d_pre = (d_out @ w_out.T) * (pre > 0.0)
        np.matmul(x.T, d_pre, out=dw_in)
        d_pre.sum(axis=0, out=db_in)
        np.matmul(hidden.T, d_out, out=dw_out)
        d_out.sum(axis=0, out=db_out)
        return d_pre

    through_head(pooled_a, pre1, h1, params.w2, dA, grads.w1, grads.b1, grads.w2, grads.b2)
    dh3 = through_head(pooled_t, pre3, h3, params.w4, dT, grads.w3, grads.b3, grads.w4, grads.b4)
    # token table: each valid position gets its row's share, scattered in row order
    valid = text_ids != TokenVocab.PAD
    counts = valid.sum(axis=1, keepdims=True)
    dpool_t = (dh3 @ params.w3.T) / np.maximum(counts, 1)
    grads.embed[...] = scatter_rows(text_ids[valid], np.repeat(dpool_t, counts[:, 0], axis=0),
                                    len(params.embed))
    return loss, grads


def save_checkpoint(path, params: ModelParams, stats: NormStats, vocab: TokenVocab,
                    feat: FeatureConfig):
    """Version 3: ``arrays`` holds the numeric arrays, whose shapes give every width; the
    vocabulary (words in id order), feature config and normalization frame count sit beside it.

    The file is ``json.dumps`` of the whole document, with the arrays written
    CHECKPOINT_SLICE values at a time, so one slice's JSON text is held at once."""
    arrays = [*params.arrays(), ("norm_mean", stats.mean), ("norm_var", stats.var)]

    def chunks():
        yield '{"arrays": {'
        for k, (name, arr) in enumerate(arrays):
            yield f'{", " if k else ""}{json.dumps(name)}: {{"shape": {list(arr.shape)}, "data": ['
            flat = arr.ravel()
            for s in range(0, flat.size, CHECKPOINT_SLICE):  # each slice's list, unbracketed
                piece = json.dumps(flat[s : s + CHECKPOINT_SLICE].tolist())[1:-1]
                yield f", {piece}" if s else piece
            yield "]}"
        rest = {"vocab": vocab.words(), "features": asdict(feat), "norm_count": stats.count,
                "version": 3}
        yield "}, " + json.dumps(rest)[1:]  # the rest of the document, and its closing brace

    write_atomic(path, chunks())


def _array_record(obj: dict):
    """A checkpoint's ``{"shape", "data"}`` record as a float64 array, made as the parser closes
    it, so one array's values at a time exist as floats; data other than finite floats raise."""
    if obj.keys() == {"shape", "data"}:
        if not all(type(v) is float and abs(v) < np.inf for v in obj["data"]):
            raise ValueError("array data must be a list of finite numbers")
        return np.array(obj["data"], dtype=np.float64).reshape(obj["shape"])
    return obj


def load_checkpoint(path) -> tuple[ModelParams, NormStats, TokenVocab, FeatureConfig]:
    """A version-3 checkpoint, every fact checked: FeatureConfig's fields alone, distinct string
    words, norm_count an int >= 0, norm_var >= 0, and array shapes that agree with one another,
    features.n_mels and the vocabulary. A failed check raises ValueError, KeyError or TypeError."""
    doc = json.loads(Path(path).read_text(), object_hook=_array_record)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != 3:
        raise ValueError(f"unsupported checkpoint version {version!r}; retrain")
    arrays, words, features = dict(doc["arrays"]), doc["vocab"], dict(doc["features"])
    feat = FeatureConfig(**{f.name: features[f.name] for f in fields(FeatureConfig)})
    if len(features) != len(fields(FeatureConfig)):
        raise ValueError(f"features: unknown keys among {sorted(features)}")
    vocab = TokenVocab({word: i for i, word in enumerate(words, start=TokenVocab.UNK + 1)})
    if type(words) is not list or len(vocab) != len(words) + 2 or {*map(type, words)} - {str}:
        raise ValueError("vocab must be a list of distinct strings")
    shapes = {name: getattr(arr, "shape", None) for name, arr in arrays.items()}
    (m, a), (_, e), (_, t), (_, h) = (s if s and len(s) == 2 else (0, 0)  # 0 fails the check
                                      for s in map(shapes.get, ("w1", "w2", "embed", "w3")))
    want = {"w1": (feat.n_mels, a), "b1": (a,), "w2": (a, e), "b2": (e,), "embed": (len(vocab), t),
            "w3": (t, h), "b3": (h,), "w4": (h, e), "b4": (e,), "norm_mean": (m,), "norm_var": (m,)}
    if shapes != want or not all((a, e, t, h)):
        raise ValueError(f"arrays {shapes} do not fit n_mels {feat.n_mels}, vocab {len(vocab)}")
    stats = NormStats(arrays.pop("norm_mean"), arrays.pop("norm_var"), doc["norm_count"])
    if type(stats.count) is not int or stats.count < 0:
        raise ValueError(f"norm_count must be an integer >= 0, got {stats.count!r}")
    if (stats.var < 0).any():
        raise ValueError("norm_var holds a variance < 0")
    return ModelParams(**arrays), stats, vocab, feat
