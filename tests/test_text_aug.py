import json
from unittest import mock

import numpy as np
import pytest

from audioretrieval.data import build_vocab, preprocess_caption
from audioretrieval.text_aug import (
    PIVOTS,
    SynonymLexicon,
    TextAugConfig,
    TranslationCache,
    apply_eda_op,
    augment_caption,
    back_translate,
    cache_build,
    eda,
    mock_provider,
)


def _failing_provider(text, pivot):
    raise AssertionError("provider must not be invoked")


class TestBackTranslate:
    def test_cache_hit(self):
        cache = TranslationCache({
            ("The rain pours down.", p): "It rains cats and dogs." for p in PIVOTS
        })
        cfg = TextAugConfig(p_bt=1.0)
        out = back_translate("The rain pours down.", cfg, cache, np.random.default_rng(0))
        assert out == "It rains cats and dogs."

    def test_probability_zero_skips_provider(self):
        cfg = TextAugConfig(p_bt=0.0)
        out = back_translate("hello", cfg, _failing_provider, np.random.default_rng(0))
        assert out == "hello"

    def test_deterministic(self):
        cache = TranslationCache({("x", p): f"x-{p}" for p in PIVOTS})
        cfg = TextAugConfig(p_bt=0.7)
        runs = [back_translate("x", cfg, cache, np.random.default_rng(42)) for _ in range(3)]
        assert len(set(runs)) == 1

    def test_cache_miss_names_pair(self):
        cache = TranslationCache({})
        cfg = TextAugConfig(p_bt=1.0)
        with pytest.raises(KeyError, match="missing caption"):
            back_translate("missing caption", cfg, cache, np.random.default_rng(0))

    def test_no_provider_errors_when_firing(self):
        with pytest.raises(ValueError):
            back_translate("x", TextAugConfig(p_bt=1.0), None, np.random.default_rng(0))


class TestEda:
    def test_probability_zero_identity(self):
        cfg = TextAugConfig(p_eda=0.0, p_del=0.3)
        tokens = ["a", "b", "c"]
        out = eda(tokens, cfg, SynonymLexicon(), build_vocab(["a b c"]), np.random.default_rng(0))
        assert out == tokens

    def test_delete_removes_word(self):
        # apply delete with certainty on a single word to reproduce the
        # "it rains cats and dogs" -> "it rains cats and" style edit
        cfg = TextAugConfig(p_eda=1.0, p_del=0.3)
        tokens = "it rains cats and dogs".split()
        for seed in range(200):
            out = apply_eda_op(tokens, "delete", cfg, SynonymLexicon(), build_vocab([]),
                               np.random.default_rng(seed))
            if out == ["it", "rains", "cats", "and"]:
                return
        pytest.fail("delete never produced the expected edit")

    def test_empty_lexicon_synonym_identity(self):
        cfg = TextAugConfig(p_eda=1.0, p_syn=0.3)
        tokens = ["some", "words", "here"]
        for seed in range(20):
            out = apply_eda_op(tokens, "synonym", cfg, SynonymLexicon(), build_vocab([]),
                               np.random.default_rng(seed))
            assert out == tokens

    def test_delete_expectation(self):
        cfg = TextAugConfig(p_eda=1.0, p_del=0.3)
        tokens = ["w"] * 20
        rng = np.random.default_rng(0)
        lengths = [
            len(apply_eda_op(tokens, "delete", cfg, SynonymLexicon(), build_vocab([]), rng))
            for _ in range(10_000)
        ]
        assert np.mean(lengths) == pytest.approx(14.0, abs=0.1)

    def test_empty_input(self):
        cfg = TextAugConfig(p_eda=1.0, p_ins=0.3)
        assert eda([], cfg, SynonymLexicon(), build_vocab([]), np.random.default_rng(0)) == []

    @pytest.mark.parametrize("op", ["swap", "synonym"])
    def test_count_preserving_ops(self, op):
        lex = SynonymLexicon({"rain": ["drizzle"]})
        cfg = TextAugConfig(p_eda=1.0, p_swp=0.3, p_syn=0.3)
        tokens = "heavy rain falls on the roof".split()
        for seed in range(50):
            out = apply_eda_op(tokens, op, cfg, lex, build_vocab([]), np.random.default_rng(seed))
            assert len(out) == len(tokens)

    def test_swap_preserves_multiset(self):
        cfg = TextAugConfig(p_eda=1.0, p_swp=0.3)
        tokens = "a b c d e f".split()
        for seed in range(50):
            out = apply_eda_op(tokens, "swap", cfg, SynonymLexicon(), build_vocab([]),
                               np.random.default_rng(seed))
            assert sorted(out) == sorted(tokens)

    def test_delete_only_decreases_insert_only_increases(self):
        cfg = TextAugConfig(p_eda=1.0, p_del=0.3, p_ins=0.3)
        vocab = build_vocab(["extra words pool"])
        tokens = "one two three four five".split()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            assert len(apply_eda_op(tokens, "delete", cfg, SynonymLexicon(), vocab, rng)) <= 5
            assert len(apply_eda_op(tokens, "insert", cfg, SynonymLexicon(), vocab, rng)) >= 5


class TestAugmentCaption:
    def test_all_zero_probabilities_identity(self):
        cfg = TextAugConfig()
        out = augment_caption("The rain POURS down!", cfg, None, SynonymLexicon(),
                              build_vocab([]), np.random.default_rng(0))
        assert out == "the rain pours down"

    def test_identity_provider_equals_eda_only(self):
        lex = SynonymLexicon({"rain": ["drizzle"]})
        vocab = build_vocab(["a caption about rain"])
        cfg_bt = TextAugConfig(p_bt=1.0, p_eda=1.0, p_syn=0.3)
        cfg_nobt = TextAugConfig(p_bt=0.0, p_eda=1.0, p_syn=0.3)
        identity = lambda text, pivot: text
        for seed in range(10):
            a = augment_caption("heavy rain outside", cfg_bt, identity, lex, vocab,
                                np.random.default_rng(seed))
            b = augment_caption("heavy rain outside", cfg_nobt, None, lex, vocab,
                                np.random.default_rng(seed))
            assert a == b

    def test_deterministic(self):
        cfg = TextAugConfig(p_eda=1.0, p_del=0.2, p_bt=0.5)
        cache = TranslationCache({("noise somewhere", p): "a noise is heard" for p in PIVOTS})
        outs = {
            augment_caption("noise somewhere", cfg, cache, SynonymLexicon(),
                            build_vocab(["noise somewhere"]), np.random.default_rng(9))
            for _ in range(5)
        }
        assert len(outs) == 1

    def test_output_is_preprocessed(self):
        lex = SynonymLexicon.bundled()
        vocab = build_vocab(["some words"])
        cfg = TextAugConfig(p_eda=1.0, p_syn=0.3, p_ins=0.3, p_bt=1.0)
        for seed in range(20):
            out = augment_caption("The DOG barks, loudly!", cfg, mock_provider, lex, vocab,
                                  np.random.default_rng(seed))
            assert out == preprocess_caption(out)


class TestCacheBuild:
    def test_empty_captions(self, tmp_path):
        out = tmp_path / "cache.jsonl"
        new, failures = cache_build([], PIVOTS, mock_provider, out)
        assert new == 0 and not failures
        assert out.exists()
        assert len(TranslationCache.load(out)) == 0

    def test_cardinality(self, tmp_path):
        out = tmp_path / "cache.jsonl"
        new, _ = cache_build(["a", "b", "c"], PIVOTS, mock_provider, out)
        assert new == 9
        assert len(TranslationCache.load(out)) == 9

    def test_idempotent_rerun(self, tmp_path):
        out = tmp_path / "cache.jsonl"
        cache_build(["a", "b"], PIVOTS, mock_provider, out)
        calls = []

        def counting(text, pivot):
            calls.append((text, pivot))
            return mock_provider(text, pivot)

        new, _ = cache_build(["a", "b"], PIVOTS, counting, out)
        assert new == 0 and calls == []

    def test_partial_on_failure(self, tmp_path):
        out = tmp_path / "cache.jsonl"

        def flaky(text, pivot):
            if text == "bad":
                raise RuntimeError("boom")
            return mock_provider(text, pivot)

        new, failures = cache_build(["ok", "bad"], PIVOTS, flaky, out)
        assert new == 3
        assert sorted(failures) == [("bad", p) for p in sorted(PIVOTS)]
        assert len(TranslationCache.load(out)) == 3

    def test_jsonl_roundtrip_exact(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = TranslationCache({("Ünïcode text.", "fr"): "retour du texte"})
        cache.save(path)
        assert TranslationCache.load(path).entries == cache.entries

    def test_save_writes_joined_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = TranslationCache({("a dog barks.", "de"): "ein Hund bellt", ("ünï", "fr"): "\"x\""})
        cache.save(path)
        joined = "".join(json.dumps({"source": s, "pivot": p, "result": r}) + "\n"
                         for (s, p), r in cache.entries.items())
        assert path.read_bytes() == joined.encode("utf-8")

    def test_save_failing_partway_keeps_old_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache_build(["a"], PIVOTS, mock_provider, path)
        before = path.read_bytes()
        dumps, calls = json.dumps, []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("serialization failed")
            return dumps(*args, **kwargs)

        cache = TranslationCache.load(path)
        cache.entries[("b", "de")] = "b via de"
        with mock.patch("audioretrieval.text_aug.json.dumps", second_fails):
            with pytest.raises(RuntimeError, match="serialization failed"):
                cache.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


class TestLexiconAndConfig:
    def test_self_reference_rejected(self):
        with pytest.raises(ValueError):
            SynonymLexicon({"rain": ["rain", "drizzle"]})

    def test_bundled_loads(self):
        lex = SynonymLexicon.bundled()
        assert lex.get("rains")  # drizzles, per the preview example
        assert "drizzles" in lex.get("rains")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "lex.json"
        path.write_text(json.dumps({"big": ["large"]}))
        assert SynonymLexicon.load(path).get("big") == ["large"]

    @pytest.mark.parametrize("kwargs", [
        {"p_eda": 1.5}, {"p_bt": -0.1}, {"p_syn": 0.4}, {"p_del": 0.31},
    ])
    def test_config_ranges(self, kwargs):
        with pytest.raises(ValueError):
            TextAugConfig(**kwargs)

    def test_config_draws_only_when_eda_or_back_translation_can_fire(self):
        assert not TextAugConfig(p_syn=0.3, p_swp=0.3, p_ins=0.3, p_del=0.3).draws
        assert TextAugConfig(p_eda=0.01).draws and TextAugConfig(p_bt=0.01).draws
