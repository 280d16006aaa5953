import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from audioretrieval.data import MelSpectrogram, mel_stats
from audioretrieval.model import (
    NORM_EPS,
    ModelDims,
    _softmax,
    backward,
    embed_audio,
    embed_text,
    init_params,
    load_checkpoint,
    nt_xent,
    pool_audio,
    pool_text,
    save_checkpoint,
    similarity_matrix,
)

from conftest import random_mel_batch, random_token_batch
from frame_reference import pool_audio as pool_frames


class TestInit:
    def test_deterministic(self, small_dims):
        p1, p2 = init_params(small_dims, 5), init_params(small_dims, 5)
        for (_, a), (_, b) in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_biases_zero(self, small_dims):
        p = init_params(small_dims, 0)
        for name in ("b1", "b2", "b3", "b4"):
            assert np.all(getattr(p, name) == 0.0)

    def test_glorot_bound(self):
        dims = ModelDims(n_mels=64, audio_hidden=128, vocab_size=5)
        p = init_params(dims, 0)
        bound = np.sqrt(6.0 / (64 + 128))
        assert np.abs(p.w1).max() <= bound

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            ModelDims(n_mels=0)


class TestEmbedAudio:
    def test_constant_spectrogram_pools_to_constant(self, small_params, small_dims):
        m = MelSpectrogram(np.full((8, 10), 3.0), 10)
        pooled = pool_audio(mel_stats([m]))
        assert np.allclose(pooled, 3.0)

    def test_identical_inputs_identical_rows(self, small_params, small_dims):
        m = MelSpectrogram(np.random.default_rng(0).normal(size=(8, 10)), 10)
        out = embed_audio(pool_audio(mel_stats([m, m])), small_params)
        assert np.array_equal(out[0], out[1])

    def test_padding_invariance(self, small_params, small_dims):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(8, 10))
        m1 = MelSpectrogram(base, 10)
        m2 = MelSpectrogram(np.concatenate([base, np.zeros((8, 5))], axis=1), 10)
        e1 = embed_audio(pool_audio(mel_stats([m1])), small_params)
        e2 = embed_audio(pool_audio(mel_stats([m2])), small_params)
        assert np.array_equal(e1, e2)

    def test_empty_batch_rejected(self, small_params, small_dims):
        with pytest.raises(ValueError):
            embed_audio(np.zeros((0, small_dims.n_mels)), small_params)


class TestEmbedText:
    def test_order_invariance(self, small_params, small_dims):
        out = embed_text(np.array([[2, 3, 4], [4, 2, 3]]), small_params)
        assert np.allclose(out[0], out[1])

    def test_duplicate_token_mean(self, small_params, small_dims):
        out = embed_text(np.array([[5, 5], [5, 0]]), small_params)
        assert np.allclose(out[0], out[1])

    def test_pad_invariance(self, small_params, small_dims):
        out = np.concatenate([embed_text(np.array([[2, 3]]), small_params),
                              embed_text(np.array([[2, 3, 0, 0, 0]]), small_params)])
        assert np.allclose(out[0], out[1], atol=1e-9)

    def test_empty_sequence_uses_zero_vector(self, small_params, small_dims):
        out = embed_text(np.zeros((1, 0), dtype=np.int64), small_params)
        assert np.all(np.isfinite(out))


class TestSimilarity:
    def test_identical_rows_unit_diagonal(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(5, 8))
        C = similarity_matrix(A, A)
        assert np.allclose(np.diag(C), 1.0, atol=1e-9)

    def test_orthogonal_zero(self):
        A = np.array([[1.0, 0.0]])
        T = np.array([[0.0, 1.0]])
        assert similarity_matrix(A, T)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(4, 6))
        T = rng.normal(size=(4, 6))
        C1 = similarity_matrix(A, T)
        C2 = similarity_matrix(7.3 * A, T)
        assert np.allclose(C1, C2, atol=1e-9)

    def test_entries_bounded(self):
        rng = np.random.default_rng(2)
        C = similarity_matrix(rng.normal(size=(10, 4)), rng.normal(size=(10, 4)))
        assert np.all(np.abs(C) <= 1 + 1e-9)


class TestNtXent:
    def test_identity_n2(self):
        loss = nt_xent(np.eye(2), tau=1.0)
        assert loss == pytest.approx(np.log(1 + np.exp(-1)), abs=1e-6)

    @pytest.mark.parametrize("n", [2, 8, 30])
    def test_uniform_matrix(self, n):
        loss = nt_xent(np.full((n, n), 0.37), tau=1.0)
        assert loss == pytest.approx(np.log(n), abs=1e-9)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(0)
        C = rng.normal(size=(6, 6))
        assert nt_xent(C, 0.8) == pytest.approx(nt_xent(C.T, 0.8), abs=1e-12)

    def test_lower_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            tau = float(rng.uniform(0.3, 2.0))
            C = rng.uniform(-1, 1, size=(n, n))
            assert nt_xent(C, tau) >= np.log(n) - (C.max() - C.min()) / tau - 1e-12

    def test_diagonal_monotonicity(self):
        rng = np.random.default_rng(2)
        C = rng.uniform(-0.5, 0.5, size=(5, 5))
        bumped = C + 0.2 * np.eye(5)
        assert nt_xent(bumped, 1.0) < nt_xent(C, 1.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            nt_xent(np.ones((1, 1)), 1.0)
        with pytest.raises(ValueError):
            nt_xent(np.eye(3), 0.0)
        with pytest.raises(ValueError):
            nt_xent(np.ones((2, 3)), 1.0)


def finite_difference_check(dims, seed, tau=0.7, step=1e-5):
    rng = np.random.default_rng(seed)
    params = init_params(dims, seed + 1000)
    # scale up the token table so ReLU preactivations sit far from the kink
    # relative to the finite-difference step
    params.embed *= 50.0
    pooled = pool_frames(random_mel_batch(rng, 4, n_mels=dims.n_mels))
    toks = random_token_batch(rng, 4, vocab_size=dims.vocab_size)
    loss, grads = backward(pooled, toks, params, tau)

    def loss_at():
        A = embed_audio(pooled, params)
        T = embed_text(toks, params)
        return nt_xent(similarity_matrix(A, T), tau)

    max_rel = 0.0
    for name, arr in params.arrays():
        g = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = arr[ix]
            arr[ix] = old + step
            lp = loss_at()
            arr[ix] = old - step
            lm = loss_at()
            arr[ix] = old
            fd = (lp - lm) / (2 * step)
            denom = max(abs(fd), abs(g[ix]), 1e-6)
            max_rel = max(max_rel, abs(fd - g[ix]) / denom)
    return loss, max_rel


class TestBackward:
    def test_gradient_matches_finite_differences(self, small_dims):
        loss, max_rel = finite_difference_check(small_dims, seed=0)
        assert np.isfinite(loss)
        assert max_rel <= 1e-4

    def test_duplicated_batch_finite(self, small_dims):
        rng = np.random.default_rng(3)
        params = init_params(small_dims, 3)
        mels = random_mel_batch(rng, 2)
        toks = random_token_batch(rng, 2)
        loss, grads = backward(pool_frames(mels * 2), np.concatenate([toks, toks]), params, 1.0)
        assert np.isfinite(loss)
        for _, g in grads.arrays():
            assert np.all(np.isfinite(g))

    @given(n=st.integers(2, 9), n_mels=st.integers(1, 10), embed_dim=st.integers(1, 10),
           hidden=st.integers(1, 12), vocab_size=st.integers(2, 12),
           tau=st.floats(0.05, 5.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_loss_is_the_forward_pass(self, n, n_mels, embed_dim, hidden, vocab_size, tau, seed):
        rng = np.random.default_rng(seed)
        dims = ModelDims(n_mels=n_mels, embed_dim=embed_dim, audio_hidden=hidden,
                         text_hidden=hidden + 1, token_embed_dim=embed_dim + 1,
                         vocab_size=vocab_size)
        params = init_params(dims, seed % 1000)
        pooled = rng.normal(size=(n, n_mels))
        toks = random_token_batch(rng, n, vocab_size=vocab_size)
        forward = nt_xent(similarity_matrix(embed_audio(pooled, params),
                                            embed_text(toks, params)), tau)
        assert backward(pooled, toks, params, tau)[0] == forward

    def test_single_pair_rejected(self, small_dims):
        rng = np.random.default_rng(4)
        params = init_params(small_dims, 4)
        with pytest.raises(ValueError):
            backward(pool_frames(random_mel_batch(rng, 1)), random_token_batch(rng, 1),
                     params, 1.0)

    def test_mismatched_batches_rejected(self, small_dims):
        rng = np.random.default_rng(5)
        params = init_params(small_dims, 5)
        with pytest.raises(ValueError):
            backward(pool_frames(random_mel_batch(rng, 3)), random_token_batch(rng, 2),
                     params, 1.0)


def _pool_text_per_caption(rows, embed):
    """Reference: the mean embedding of each caption's non-PAD ids, one caption at a time."""
    out = []
    for ids in rows:
        ids = ids[ids != 0]
        out.append(embed[ids].mean(axis=0) if ids.size else np.zeros(embed.shape[1]))
    return np.stack(out)


def _embed_grad_per_caption(pooled, rows, params, tau):
    """Reference: backward's token-table gradient, scattered one caption at a time."""
    A = embed_audio(pooled, params)
    pre3 = _pool_text_per_caption(rows, params.embed) @ params.w3 + params.b3
    T = np.maximum(pre3, 0.0) @ params.w4 + params.b4
    a_den = np.linalg.norm(A, axis=1, keepdims=True) + NORM_EPS
    t_raw = np.linalg.norm(T, axis=1, keepdims=True)
    t_den = t_raw + NORM_EPS
    An, Tn = A / a_den, T / t_den
    logits = (An @ Tn.T) / tau
    eye = np.eye(len(rows))
    dC = ((_softmax(logits) - eye) + (_softmax(logits.T) - eye).T) / (2.0 * len(rows) * tau)
    dTn = dC.T @ An
    dT = dTn / t_den - T * ((dTn * T).sum(axis=1, keepdims=True)
                            / (np.maximum(t_raw, NORM_EPS) * t_den**2))
    dpool = ((dT @ params.w4.T) * (pre3 > 0.0)) @ params.w3.T
    grad = np.zeros_like(params.embed)
    for i, ids in enumerate(rows):
        ids = ids[ids != 0]
        if ids.size:
            np.add.at(grad, ids, dpool[i] / ids.size)
    return grad


class TestTextMatrixAgainstPerCaption:
    """The padded id matrix path equals the per-caption loop bit for bit."""

    @given(st.lists(st.lists(st.integers(1, 9), max_size=32), min_size=2, max_size=8),
           st.integers(0, 2**32 - 1))
    @example([[], [3] * 32, [1, 2]], 0)
    @example([[4] * 32, [5, 6, 7] * 10 + [8, 9]], 1)
    @settings(max_examples=60, deadline=None)
    def test_pool_and_embed_gradient(self, lists, seed):
        rng = np.random.default_rng(seed)
        dims = ModelDims(n_mels=8, embed_dim=8, audio_hidden=16, text_hidden=16,
                         token_embed_dim=8, vocab_size=10)
        params = init_params(dims, seed % 1000)
        ids = np.zeros((len(lists), max(map(len, lists))), dtype=np.int64)
        for row, tokens in zip(ids, lists):
            row[: len(tokens)] = tokens
        rows = [np.array(tokens, dtype=np.int64) for tokens in lists]
        assert np.array_equal(pool_text(ids, params.embed),
                              _pool_text_per_caption(rows, params.embed))
        pooled = pool_frames(random_mel_batch(rng, len(rows)))
        _, grads = backward(pooled, ids, params, 0.7)
        assert np.array_equal(grads.embed, _embed_grad_per_caption(pooled, rows, params, 0.7))


class TestCheckpoint:
    def test_roundtrip(self, small_dims, small_params, tmp_path):
        from audioretrieval.data import FeatureConfig, NormStats, build_vocab

        stats = NormStats(np.arange(8.0), np.ones(8) * 0.5, 99)
        vocab = build_vocab(["rain on a tin roof", "a dog barks twice"])  # 8 ids
        feat = FeatureConfig(n_mels=8, hop=160)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, small_params, small_dims, stats, vocab, feat)
        params, dims, loaded_stats, loaded_vocab, loaded_feat = load_checkpoint(path)
        assert dims == small_dims
        for (_, a), (_, b) in zip(params.arrays(), small_params.arrays()):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded_stats.mean, stats.mean)
        assert np.array_equal(loaded_stats.var, stats.var)
        assert loaded_stats.count == 99
        assert loaded_vocab == vocab
        assert loaded_feat == feat

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "dims": {}, "arrays": {}}')
        with pytest.raises(ValueError):
            load_checkpoint(path)
