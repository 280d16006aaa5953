import copy
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from audioretrieval.data import (MAX_TOKENS, FeatureConfig, NormStats, TokenVocab, build_vocab,
                                 mel_stats, preprocess_caption, synth_dataset)
from audioretrieval.model import (
    NORM_EPS,
    TEXT_BLOCK,
    ModelDims,
    ModelParams,
    backward,
    embed_audio,
    embed_text,
    init_params,
    load_checkpoint,
    pool_audio,
    pool_text,
    save_checkpoint,
    scatter_rows,
    similarity_matrix,
)
from audioretrieval.trainer import caption_queries, prepare_split, score_split

import checkpoint_reference
from conftest import examples, random_mel_batch, random_token_batch
from frame_reference import pool_audio as pool_frames
from loss_reference import backward as backward_reference, nt_xent, softmax


class TestInit:
    def test_deterministic(self, small_dims):
        p1, p2 = init_params(small_dims, 8, 10, 5), init_params(small_dims, 8, 10, 5)
        for (_, a), (_, b) in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_biases_zero(self, small_dims):
        p = init_params(small_dims, 8, 10, 0)
        for name in ("b1", "b2", "b3", "b4"):
            assert np.all(getattr(p, name) == 0.0)

    def test_glorot_bound(self):
        p = init_params(ModelDims(audio_hidden=128), 64, 5, 0)
        bound = np.sqrt(6.0 / (64 + 128))
        assert np.abs(p.w1).max() <= bound

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            ModelDims(embed_dim=0)


class TestModelParams:
    """Nine named views of one float64 vector ``flat``, made again on every copy."""

    @staticmethod
    def assert_views_of_flat(params):
        assert [name for name, _ in params.arrays()] == list(ModelParams.NAMES)
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert sum(arr.size for _, arr in params.arrays()) == params.flat.size
        offset = 0
        for name, arr in params.arrays():
            assert np.shares_memory(arr, params.flat), name
            assert arr.base is params.flat and arr.flags.c_contiguous, name
            assert arr.__array_interface__["data"][0] \
                == params.flat.__array_interface__["data"][0] + 8 * offset, name
            offset += arr.size

    def test_every_way_of_making_them_shares_flat(self, small_dims, tmp_path):
        params = init_params(small_dims, 8, 10, 0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, NormStats.fresh(8), build_vocab(["a b c d e f g h"]),
                        FeatureConfig(n_mels=8))
        made = {"init_params": params, "load_checkpoint": load_checkpoint(path)[0],
                "copy": params.copy(), "deepcopy": copy.deepcopy(params),
                "pickle": pickle.loads(pickle.dumps(params)),
                "keywords": ModelParams(**dict(params.arrays()))}
        for how, other in made.items():
            self.assert_views_of_flat(other)
            assert other.flat.tobytes() == params.flat.tobytes(), how
            assert other is params or not np.shares_memory(other.flat, params.flat), how
        state = copy.deepcopy((params, params))  # one object deep-copied once, memo and all
        assert state[0] is state[1]
        self.assert_views_of_flat(state[0])

    def test_a_view_writes_through_to_flat(self, small_params):
        small_params.w2[0, 0] = 7.5
        small_params.b4[...] = -1.0
        other = small_params.copy()
        assert other.w2[0, 0] == 7.5 and np.all(other.b4 == -1.0)
        small_params.flat[:] = 0.0
        assert not small_params.w2.any() and other.w2[0, 0] == 7.5

    def test_keyword_constructor_copies_into_float64(self):
        arrays = {name: np.full(shape, k, dtype=np.int64) for k, (name, shape) in enumerate(
            zip(ModelParams.NAMES, [(2, 3), (3,), (3, 2), (2,), (4, 2), (2, 3), (3,), (3, 2),
                                    (2,)]))}
        params = ModelParams(**arrays)
        self.assert_views_of_flat(params)
        for name, arr in params.arrays():
            assert arr.dtype == np.float64 and np.array_equal(arr, arrays[name])
            assert not np.shares_memory(arr, arrays[name])
        with pytest.raises(TypeError):
            ModelParams(**{**arrays, "w5": arrays["w1"]})


class TestEmbedAudio:
    def test_constant_spectrogram_pools_to_constant(self, small_params, small_dims):
        pooled = pool_audio(mel_stats([np.full((8, 10), 3.0)]))
        assert np.allclose(pooled, 3.0)

    def test_identical_inputs_identical_rows(self, small_params, small_dims):
        m = np.random.default_rng(0).normal(size=(8, 10))
        out = embed_audio(pool_audio(mel_stats([m, m])), small_params)
        assert np.array_equal(out[0], out[1])

    def test_empty_batch_rejected(self, small_params, small_dims):
        with pytest.raises(ValueError):
            embed_audio(np.zeros((0, 8)), small_params)


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
        loss = nt_xent(np.eye(2))
        assert loss == pytest.approx(np.log(1 + np.exp(-1)), abs=1e-6)

    @pytest.mark.parametrize("n", [2, 8, 30])
    def test_uniform_matrix(self, n):
        loss = nt_xent(np.full((n, n), 0.37))
        assert loss == pytest.approx(np.log(n), abs=1e-9)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(0)
        C = rng.normal(size=(6, 6))
        assert nt_xent(C) == pytest.approx(nt_xent(C.T), abs=1e-12)

    def test_lower_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            C = rng.uniform(-1, 1, size=(n, n))
            assert nt_xent(C) >= np.log(n) - (C.max() - C.min()) - 1e-12

    def test_diagonal_monotonicity(self):
        rng = np.random.default_rng(2)
        C = rng.uniform(-0.5, 0.5, size=(5, 5))
        bumped = C + 0.2 * np.eye(5)
        assert nt_xent(bumped) < nt_xent(C)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            nt_xent(np.ones((1, 1)))
        with pytest.raises(ValueError):
            nt_xent(np.ones((2, 3)))


def finite_difference_check(dims, n_mels, vocab_size, seed, step=1e-5):
    rng = np.random.default_rng(seed)
    params = init_params(dims, n_mels, vocab_size, seed + 1000)
    # scale up the token table so ReLU preactivations sit far from the kink
    # relative to the finite-difference step
    params.embed *= 50.0
    pooled = pool_frames(random_mel_batch(rng, 4, n_mels=n_mels))
    toks = random_token_batch(rng, 4, vocab_size=vocab_size)
    loss, grads = backward(pooled, toks, params)

    def loss_at():
        A = embed_audio(pooled, params)
        T = embed_text(toks, params)
        return nt_xent(similarity_matrix(A, T))

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
        loss, max_rel = finite_difference_check(small_dims, 8, 10, seed=0)
        assert np.isfinite(loss)
        assert max_rel <= 1e-4

    def test_duplicated_batch_finite(self, small_dims):
        rng = np.random.default_rng(3)
        params = init_params(small_dims, 8, 10, 3)
        mels = random_mel_batch(rng, 2)
        toks = random_token_batch(rng, 2)
        loss, grads = backward(pool_frames(mels * 2), np.concatenate([toks, toks]), params)
        assert np.isfinite(loss)
        for _, g in grads.arrays():
            assert np.all(np.isfinite(g))

    @given(n=st.integers(2, 9), n_mels=st.integers(1, 10), embed_dim=st.integers(1, 10),
           hidden=st.integers(1, 12), vocab_size=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=examples(60), deadline=None)
    def test_loss_is_the_forward_pass(self, n, n_mels, embed_dim, hidden, vocab_size, seed):
        rng = np.random.default_rng(seed)
        dims = ModelDims(embed_dim=embed_dim, audio_hidden=hidden, text_hidden=hidden + 1,
                         token_embed_dim=embed_dim + 1)
        params = init_params(dims, n_mels, vocab_size, seed % 1000)
        pooled = rng.normal(size=(n, n_mels))
        toks = random_token_batch(rng, n, vocab_size=vocab_size)
        forward = nt_xent(similarity_matrix(embed_audio(pooled, params),
                                            embed_text(toks, params)))
        assert backward(pooled, toks, params)[0] == forward

    @given(lists=st.lists(st.lists(st.integers(0, 11), max_size=12), min_size=2, max_size=9),
           n_mels=st.integers(1, 10), embed_dim=st.integers(1, 10), hidden=st.integers(1, 12),
           scale=st.sampled_from([1e-3, 1.0, 50.0]), seed=st.integers(0, 2**32 - 1))
    @example(lists=[[], []], n_mels=3, embed_dim=2, hidden=4, scale=1.0, seed=0)
    @settings(max_examples=examples(60), deadline=None)
    def test_equals_the_reference_bit_for_bit(self, lists, n_mels, embed_dim, hidden, scale,
                                              seed):
        """One softmax per direction and gradients written into one vector give the loss and
        every gradient of the separate computations, bit for bit; rows may be all PAD."""
        rng = np.random.default_rng(seed)
        dims = ModelDims(embed_dim=embed_dim, audio_hidden=hidden, text_hidden=hidden + 1,
                         token_embed_dim=embed_dim + 1)
        params = init_params(dims, n_mels, 12, seed % 1000)
        params.embed *= scale
        ids = np.zeros((len(lists), max(map(len, lists))), dtype=np.int64)
        for row, tokens in zip(ids, lists):
            tokens = [t for t in tokens if t]  # PAD only after a row's ids
            row[: len(tokens)] = tokens
        pooled = rng.normal(size=(len(lists), n_mels)) * scale
        loss, grads = backward(pooled, ids, params)
        ref_loss, ref_grads = backward_reference(pooled, ids, params)
        assert loss == ref_loss
        for (name, a), (_, b) in zip(grads.arrays(), ref_grads.arrays()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert np.shares_memory(a, grads.flat), name

    def test_single_pair_rejected(self, small_dims):
        rng = np.random.default_rng(4)
        params = init_params(small_dims, 8, 10, 4)
        with pytest.raises(ValueError, match="N >= 2 pairs, got 1"):
            backward(pool_frames(random_mel_batch(rng, 1)), random_token_batch(rng, 1), params)
        with pytest.raises(ValueError, match="N >= 2 pairs, got 0"):
            backward(np.zeros((0, 8)), random_token_batch(rng, 0), params)

    def test_mismatched_batches_rejected(self, small_dims):
        rng = np.random.default_rng(5)
        params = init_params(small_dims, 8, 10, 5)
        with pytest.raises(ValueError):
            backward(pool_frames(random_mel_batch(rng, 3)), random_token_batch(rng, 2), params)


class TestScatterRows:
    @given(n=st.integers(1, 12), width=st.integers(1, 16), k=st.integers(0, 60),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=examples(100), deadline=None)
    def test_equals_add_at_bit_for_bit(self, n, width, k, seed):
        """Repeated ids and values of either sign and of magnitude 1e-5 to 1e5, some zero."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, n, size=k)
        rows = (rng.choice([-1.0, 1.0], size=(k, width)) * rng.uniform(1.0, 10.0, (k, width))
                * 10.0 ** rng.integers(-5, 5, (k, width)) * (rng.random((k, width)) > 0.1))
        expected = np.zeros((n, width))
        np.add.at(expected, ids, rows)
        assert scatter_rows(ids, rows, n).tobytes() == expected.tobytes()


def _pool_text_per_caption(rows, embed):
    """Reference: the mean embedding of each caption's non-PAD ids, one caption at a time."""
    out = []
    for ids in rows:
        ids = ids[ids != 0]
        out.append(embed[ids].mean(axis=0) if ids.size else np.zeros(embed.shape[1]))
    return np.stack(out)


def _embed_grad_per_caption(pooled, rows, params):
    """Reference: backward's token-table gradient, scattered one caption at a time."""
    A = embed_audio(pooled, params)
    pre3 = _pool_text_per_caption(rows, params.embed) @ params.w3 + params.b3
    T = np.maximum(pre3, 0.0) @ params.w4 + params.b4
    a_den = np.linalg.norm(A, axis=1, keepdims=True) + NORM_EPS
    t_raw = np.linalg.norm(T, axis=1, keepdims=True)
    t_den = t_raw + NORM_EPS
    An, Tn = A / a_den, T / t_den
    logits = An @ Tn.T
    eye = np.eye(len(rows))
    dC = ((softmax(logits) - eye) + (softmax(logits.T) - eye).T) / (2.0 * len(rows))
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
    @settings(max_examples=examples(60), deadline=None)
    def test_pool_and_embed_gradient(self, lists, seed):
        rng = np.random.default_rng(seed)
        dims = ModelDims(embed_dim=8, audio_hidden=16, text_hidden=16, token_embed_dim=8)
        params = init_params(dims, 8, 10, seed % 1000)
        ids = np.zeros((len(lists), max(map(len, lists))), dtype=np.int64)
        for row, tokens in zip(ids, lists):
            row[: len(tokens)] = tokens
        rows = [np.array(tokens, dtype=np.int64) for tokens in lists]
        assert np.array_equal(pool_text(ids, params.embed),
                              _pool_text_per_caption(rows, params.embed))
        pooled = pool_frames(random_mel_batch(rng, len(rows)))
        _, grads = backward(pooled, ids, params)
        assert np.array_equal(grads.embed, _embed_grad_per_caption(pooled, rows, params))


def _pool_text_one_shot(ids, embed):
    """Reference: pool_text's expression over every row at once."""
    valid = ids != 0
    summed = np.where(valid[..., None], embed[ids], 0.0).sum(axis=1)
    return summed / np.maximum(valid.sum(axis=1, keepdims=True), 1)


def _traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPoolTextBlocks:
    """pool_text gathers TEXT_BLOCK rows at a time, with the one-shot result's bits."""

    @given(n=st.sampled_from([0, 1, TEXT_BLOCK - 1, TEXT_BLOCK, TEXT_BLOCK + 1, 2 * TEXT_BLOCK + 2]),
           width=st.integers(0, MAX_TOKENS), dim=st.integers(1, 16),
           pad=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=examples(80), deadline=None)
    def test_matches_one_shot(self, n, width, dim, pad, seed):
        rng = np.random.default_rng(seed)
        embed = rng.normal(0.0, 0.02, size=(20, dim))
        ids = rng.integers(1, 20, size=(n, width))
        ids[rng.uniform(size=ids.shape) < pad] = 0
        ids[rng.uniform(size=n) < 0.2] = 0  # some rows of only PAD
        out = pool_text(ids, embed)
        assert out.shape == (n, dim)
        assert np.array_equal(out, _pool_text_one_shot(ids, embed))

    def test_embed_text_memory_bounded_by_block(self):
        dims = ModelDims(embed_dim=16, audio_hidden=16, text_hidden=16, token_embed_dim=16)
        params = init_params(dims, 8, 50, 0)
        ids = np.random.default_rng(0).integers(0, 50, size=(5000, MAX_TOKENS))
        one_shot = ids.size * dims.token_embed_dim * 8  # one gathered copy: 20.5 MB
        # the [5000, 16] pooled rows and the head's three [5000, 16] arrays, about 3.3 MB
        assert _traced_peak(embed_text, ids, params) < one_shot / 4


class TestCheckpoint:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bytes_equal_one_shot_document(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        dims = ModelDims(embed_dim=3, audio_hidden=4, text_hidden=6, token_embed_dim=2)
        params = init_params(dims, 5, 9, seed)
        params.b1[:] = rng.normal(size=4) * 1e300  # extreme magnitudes print in exponent form
        stats = NormStats(rng.normal(size=5), rng.uniform(size=5), 12345)
        vocab = build_vocab(["rain on a tin roof", "ünïcode \"quoted\" words"])
        feat = FeatureConfig(n_mels=5, hop=160)
        save_checkpoint(tmp_path / "a.json", params, stats, vocab, feat)
        checkpoint_reference.save_checkpoint(tmp_path / "b.json", params, stats, vocab, feat)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_memory_bounded_by_largest_array(self, tmp_path):
        # four arrays of 40,000 values each, so the whole document is far larger than one
        dims = ModelDims(embed_dim=200, audio_hidden=200, text_hidden=200, token_embed_dim=8)
        params = init_params(dims, 200, 5000, 0)
        vocab = TokenVocab({f"w{i}": i for i in range(TokenVocab.UNK + 1, 5000)})
        args = (tmp_path / "ckpt.json", params, NormStats.fresh(200), vocab,
                FeatureConfig(n_mels=200))
        largest = max(len(json.dumps(arr.ravel().tolist())) for _, arr in params.arrays())
        peak = _traced_peak(save_checkpoint, *args)
        # one array's float list, its float reprs and its JSON text: about 6x its JSON
        assert peak < 8 * largest
        assert peak < _traced_peak(checkpoint_reference.save_checkpoint, *args) / 2

    def test_memory_does_not_grow_with_the_largest_array(self, tmp_path):
        """The arrays are written CHECKPOINT_SLICE values at a time: doubling the
        largest array (w1, [n_mels, audio_hidden]) leaves the traced peak about as it was."""
        peaks, largest = [], []
        for n_mels in (200, 400):
            dims = ModelDims(embed_dim=50, audio_hidden=200, text_hidden=50, token_embed_dim=8)
            params = init_params(dims, n_mels, 50, 0)
            largest.append(max(len(json.dumps(arr.ravel().tolist())) for _, arr in params.arrays()))
            peaks.append(_traced_peak(save_checkpoint, tmp_path / "ckpt.json", params,
                                      NormStats.fresh(n_mels), build_vocab(["a b"]),
                                      FeatureConfig(n_mels=n_mels)))
        assert largest[1] - largest[0] > 700_000  # w1 grew by 40,000 floats
        assert peaks[1] - peaks[0] < (largest[1] - largest[0]) / 100
        assert peaks[1] < largest[0] / 4  # about 6x one slice's JSON

    def test_roundtrip(self, small_params, tmp_path):
        stats = NormStats(np.arange(8.0), np.ones(8) * 0.5, 99)
        vocab = build_vocab(["rain on a tin roof", "a dog barks twice"])  # 8 ids
        feat = FeatureConfig(n_mels=8, hop=160)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, small_params, stats, vocab, feat)
        params, loaded_stats, loaded_vocab, loaded_feat = load_checkpoint(path)
        for (_, a), (_, b) in zip(params.arrays(), small_params.arrays()):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded_stats.mean, stats.mean)
        assert np.array_equal(loaded_stats.var, stats.var)
        assert loaded_stats.count == 99
        assert loaded_vocab == vocab
        assert loaded_feat == feat

    # -0.0, the smallest and largest subnormals, the smallest normal, +-1e308, the largest
    EDGE_VALUES = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                   1e308, -1e308, 1.7976931348623157e308]

    @given(data=st.data())
    @settings(max_examples=examples(60), deadline=None)
    def test_load_matches_whole_document_loader(self, tmp_path_factory, data):
        """Every array is made as its record is parsed, with the bits of the one-shot parse.
        A variance is >= 0 (the loader rejects one below), so ``norm_var`` takes those values."""
        vocab = build_vocab(["a b c d e f"])  # 8 ids with PAD and UNK: one per edge value
        dims = ModelDims(embed_dim=2, audio_hidden=3, text_hidden=3, token_embed_dim=1)
        values = st.sampled_from(self.EDGE_VALUES) | st.floats(allow_nan=False,
                                                               allow_infinity=False)
        params = ModelParams(**{name: data.draw(arrays(np.float64, arr.shape, elements=values))
                                for name, arr in init_params(dims, 2, len(vocab), 0).arrays()})
        params.embed[:, 0] = self.EDGE_VALUES  # every edge value, in every example
        stats = NormStats(*(data.draw(arrays(np.float64, 2, elements=elements))
                            for elements in (values, values.filter(lambda v: v >= 0))), 3)
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        save_checkpoint(path, params, stats, vocab, FeatureConfig(n_mels=2))
        loaded, loaded_stats, _, _ = load_checkpoint(path)
        ref, ref_stats = checkpoint_reference.load_arrays(path)

        def bits(arr):
            return arr.dtype, arr.shape, arr.tobytes()
        for (name, a), (_, b), (_, c) in zip(loaded.arrays(), ref.arrays(), params.arrays()):
            assert bits(a) == bits(b) == bits(c), name
        for name in ("mean", "var"):
            a, b, c = (getattr(x, name) for x in (loaded_stats, ref_stats, stats))
            assert bits(a) == bits(b) == bits(c), name

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.json"
        for version in (99, None, 1, 2, 4, "3"):
            path.write_text(json.dumps({"version": version, "arrays": {}}))
            with pytest.raises(ValueError, match=f"version {version!r}; retrain"):
                load_checkpoint(path)


@pytest.fixture(scope="module")
def scored_checkpoint(tmp_path_factory):
    """A valid checkpoint's document, a split, and the split's metrics under the checkpoint as
    ``eval`` computes them. Every width differs from the others."""
    feat = FeatureConfig(n_mels=6, n_fft=256, hop=128)
    split = prepare_split(synth_dataset(3, 6, 7, duration=0.2), feat)
    vocab = build_vocab([preprocess_caption(c) for caps in split.captions for c in caps])
    dims = ModelDims(embed_dim=3, audio_hidden=4, text_hidden=5, token_embed_dim=2)
    rng = np.random.default_rng(0)
    stats = NormStats(rng.normal(size=6), rng.uniform(0.5, 2.0, size=6), 17)
    path = tmp_path_factory.mktemp("valid") / "ckpt.json"
    save_checkpoint(path, init_params(dims, 6, len(vocab), 0), stats, vocab, feat)
    return json.loads(path.read_text()), split, _metrics(load_checkpoint(path), split)


def _metrics(loaded, split):
    params, stats, vocab, feat = loaded
    assert feat == split.feat  # eval featurizes with the checkpoint's features
    result = score_split(split, *caption_queries(split, vocab), params, stats)
    return result.as_dict(), result.ranks.tolist()


JSON_VALUES = {"int": st.integers(), "float": st.floats(), "str": st.text(max_size=3),
               "null": st.none(), "bool": st.booleans(), "list": st.lists(st.floats(), max_size=2),
               "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)}


def _not_a(kind: str):
    """JSON values of every type but ``kind``."""
    return st.one_of(*(values for name, values in JSON_VALUES.items() if name != kind))


def _mutate(doc: dict, data) -> None:
    """Make one change to a checkpoint document, in place: a shape, a non-finite value, a
    negative count or variance, a removed or added key, a value of another type, or a
    repeated word. No value turns into another value of its own type: no loader could tell
    that apart."""
    arrays, names = doc["arrays"], sorted(doc["arrays"])
    kind = data.draw(st.sampled_from(["shape", "data", "non-finite", "negative", "removed",
                                      "added", "type", "repeated word"]), label="kind")
    if kind in ("shape", "data", "non-finite"):
        record = arrays[data.draw(st.sampled_from(names), label="array")]
        values = record["data"]
        if kind == "shape":  # the data are resized to fit the new shape, or kept as they are
            shape = record["shape"]
            axis = data.draw(st.integers(0, len(shape) - 1))
            record["shape"] = data.draw(st.sampled_from([
                [n + (k == axis) for k, n in enumerate(shape)],
                [n - (k == axis) for k, n in enumerate(shape)],
                shape[::-1], [1, *shape], [int(np.prod(shape))]]), label="shape")
            if data.draw(st.booleans(), label="resize"):
                record["data"] = np.resize(values, int(np.prod(record["shape"]))).tolist()
        elif kind == "data":  # a value more or fewer than the shape holds
            record["data"] = values[1:] if data.draw(st.booleans()) else [*values, 0.5]
        else:
            values[data.draw(st.integers(0, len(values) - 1))] = \
                data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "negative":
        if data.draw(st.booleans(), label="norm_count"):
            doc["norm_count"] = -data.draw(st.integers(1, 2**40))
        else:
            var = arrays["norm_var"]["data"]
            var[data.draw(st.integers(0, len(var) - 1))] = -data.draw(
                st.floats(0.0, 1e300, exclude_min=True))
    elif kind == "removed":
        obj = data.draw(st.sampled_from([doc, arrays, doc["features"]]), label="from")
        del obj[data.draw(st.sampled_from(sorted(obj)), label="key")]
    elif kind == "added":  # an unknown key: a top-level one, an array, or a feature (f_min)
        obj = data.draw(st.sampled_from([doc, arrays, doc["features"]]), label="to")
        key = data.draw(st.sampled_from(["f_min", "log_floor", "dims", "w5"]) | st.text(),
                        label="key")
        obj.setdefault(key, arrays["b1"] if obj is arrays else data.draw(st.integers()))
    elif kind == "type":
        target = data.draw(st.sampled_from(["section", "array data", "array value",
                                            "vocab word", "feature", "norm_count"]),
                           label="target")
        if target == "section":  # an array record, say, where an object or a list belongs
            section = data.draw(st.sampled_from(["arrays", "vocab", "features"]))
            doc[section] = data.draw(st.just({"shape": [1], "data": [1.0]})
                                     | _not_a("list" if section == "vocab" else "object"))
        elif target == "array data":
            arrays[data.draw(st.sampled_from(names))]["data"] = data.draw(_not_a("float"))
        elif target == "array value":
            values = arrays[data.draw(st.sampled_from(names))]["data"]
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(_not_a("float"))
        elif target == "vocab word":
            words = doc["vocab"]
            words[data.draw(st.integers(0, len(words) - 1))] = data.draw(_not_a("str"))
        elif target == "feature":
            features = doc["features"]
            features[data.draw(st.sampled_from(sorted(features)))] = data.draw(_not_a("int"))
        else:
            doc["norm_count"] = data.draw(_not_a("int"))
    else:  # one word in place of another: two ids for one word
        words = doc["vocab"]
        i, j = data.draw(st.lists(st.integers(0, len(words) - 1), min_size=2, max_size=2,
                                  unique=True))
        words[i] = words[j]


class TestCheckpointChecked:
    @given(data=st.data())
    @settings(max_examples=examples(150), deadline=None)
    def test_one_change_raises_or_scores_the_same(self, scored_checkpoint, tmp_path_factory,
                                                  data):
        """A checkpoint changed in one place either fails to load with an error that ``eval``
        reports as one line (ValueError, KeyError or TypeError), or was not changed at all
        (a reversed 1-D shape, say) and scores as it did. An unknown top-level key is the one
        change that loads: nothing reads it."""
        before, split, metrics = scored_checkpoint
        doc = json.loads(json.dumps(before))
        _mutate(doc, data)
        path = tmp_path_factory.mktemp("changed") / "ckpt.json"
        path.write_text(json.dumps(doc))
        try:
            loaded = load_checkpoint(path)
        except (ValueError, KeyError, TypeError):
            return
        assert {key: doc[key] for key in before} == before
        assert _metrics(loaded, split) == metrics

    @pytest.mark.parametrize("name", ["w1", "w2", "embed", "w3"])
    def test_weight_not_2d_names_the_shapes(self, scored_checkpoint, tmp_path, name):
        doc = json.loads(json.dumps(scored_checkpoint[0]))
        record = doc["arrays"][name]
        record["shape"] = [int(np.prod(record["shape"]))]
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^arrays \{.*\} do not fit n_mels 6, vocab "):
            load_checkpoint(path)

    @pytest.mark.parametrize("count", [-1, 1.5, True, "3", None])
    def test_bad_norm_count_names_the_key(self, scored_checkpoint, tmp_path, count):
        doc = dict(scored_checkpoint[0], norm_count=count)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^norm_count must be an integer >= 0, got "):
            load_checkpoint(path)
