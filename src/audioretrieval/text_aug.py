"""Text augmentations: back translation (pluggable provider + offline cache) and EDA."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .data import TokenVocab, preprocess_caption, write_atomic

PIVOTS = ("de", "fr", "es")

# provider signature: (text, pivot) -> back-translated text
TranslateFn = Callable[[str, str], str]


@dataclass
class TextAugConfig:
    p_eda: float = 0.0
    p_syn: float = 0.0
    p_swp: float = 0.0
    p_ins: float = 0.0
    p_del: float = 0.0
    p_bt: float = 0.0

    def __post_init__(self):
        for name in ("p_eda", "p_bt"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} outside [0, 1]")
        for name in ("p_syn", "p_swp", "p_ins", "p_del"):
            if not 0.0 <= getattr(self, name) <= 0.3:
                raise ValueError(f"{name} outside [0, 0.3]")


@dataclass
class SynonymLexicon:
    synonyms: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        for word, alts in self.synonyms.items():
            if word in alts:
                raise ValueError(f"lexicon entry {word!r} lists itself as a synonym")

    @classmethod
    def load(cls, path) -> "SynonymLexicon":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    @classmethod
    def bundled(cls) -> "SynonymLexicon":
        text = resources.files("audioretrieval").joinpath("resources/synonyms.json").read_text("utf-8")
        return cls(json.loads(text))

    def get(self, word: str) -> list[str]:
        return self.synonyms.get(word, [])


class TranslationCache:
    """Offline (source, pivot) -> back-translated text store, JSONL on disk."""

    def __init__(self, entries: dict[tuple[str, str], str] | None = None):
        self.entries = dict(entries or {})

    @classmethod
    def load(cls, path) -> "TranslationCache":
        entries = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                entries[(rec["source"], rec["pivot"])] = rec["result"]
        return cls(entries)

    def save(self, path) -> None:
        write_atomic(path, "".join(json.dumps({"source": source, "pivot": pivot, "result": result})
                                   + "\n" for (source, pivot), result in self.entries.items()))

    def __len__(self):
        return len(self.entries)

    def __call__(self, text: str, pivot: str) -> str:
        try:
            return self.entries[(text, pivot)]
        except KeyError:
            raise KeyError(
                f"translation cache miss for ({text!r}, {pivot!r}) and no live provider"
            ) from None


def mock_provider(text: str, pivot: str) -> str:
    """Deterministic stand-in provider: tags the text with the pivot."""
    return f"{text} via {pivot}"


def back_translate(
    text: str, cfg: TextAugConfig, provider: TranslateFn, rng: np.random.Generator
) -> str:
    """With probability p_bt, round-trip the text through a random pivot language."""
    fire = rng.uniform() < cfg.p_bt
    pivot = PIVOTS[int(rng.integers(len(PIVOTS)))]
    if not fire:
        return text
    if provider is None:
        raise ValueError(f"back translation requested for ({text!r}, {pivot!r}) but no provider")
    return provider(text, pivot)


def eda(
    tokens: list[str],
    cfg: TextAugConfig,
    lex: SynonymLexicon,
    corpus_vocab: TokenVocab,
    rng: np.random.Generator,
) -> list[str]:
    """Apply one word-level manipulation (insert/delete/swap/synonym) per word.

    Fires with probability p_eda; the operation is chosen uniformly and then
    applied to each word with that operation's own probability.
    """
    if rng.uniform() >= cfg.p_eda:
        return list(tokens)
    op = EDA_OPS[int(rng.integers(4))]
    return apply_eda_op(tokens, op, cfg, lex, corpus_vocab, rng)


EDA_OPS = ("insert", "delete", "swap", "synonym")


def apply_eda_op(
    tokens: list[str],
    op: str,
    cfg: TextAugConfig,
    lex: SynonymLexicon,
    corpus_vocab: TokenVocab,
    rng: np.random.Generator,
) -> list[str]:
    """One named EDA manipulation applied per word with its own probability."""
    words = list(tokens)
    if op == "insert":
        pool = corpus_vocab.words()
        out = []
        for w in words:
            out.append(w)
            if pool and rng.uniform() < cfg.p_ins:
                out.append(pool[int(rng.integers(len(pool)))])
        return out
    if op == "delete":
        return [w for w in words if rng.uniform() >= cfg.p_del]
    if op == "swap":
        for i in range(len(words)):
            if len(words) > 1 and rng.uniform() < cfg.p_swp:
                j = int(rng.integers(len(words)))
                words[i], words[j] = words[j], words[i]
        return words
    if op != "synonym":
        raise ValueError(f"unknown EDA operation {op!r}")
    for i, w in enumerate(words):
        if rng.uniform() < cfg.p_syn:
            alts = lex.get(w)
            if alts:
                words[i] = alts[int(rng.integers(len(alts)))]
    return words


def augment_caption(
    text: str,
    cfg: TextAugConfig,
    provider: TranslateFn,
    lex: SynonymLexicon,
    vocab: TokenVocab,
    rng: np.random.Generator,
) -> str:
    """Back translation on raw text, then preprocessing, then EDA."""
    text = back_translate(text, cfg, provider, rng)
    words = preprocess_caption(text).split()
    words = eda(words, cfg, lex, vocab, rng)
    return " ".join(words)


def cache_build(
    captions: Iterable[str],
    pivots: Iterable[str],
    provider: TranslateFn,
    out_path,
) -> tuple[int, list[tuple[str, str]]]:
    """Resolve every (caption, pivot) pair through the provider into a JSONL cache.

    Idempotent: existing entries are kept and skipped. Returns the number of
    newly added entries and the list of pairs that failed.
    """
    out_path = Path(out_path)
    cache = TranslationCache.load(out_path) if out_path.exists() else TranslationCache()
    new, failures = 0, []
    for caption in captions:
        for pivot in pivots:
            if (caption, pivot) in cache.entries:
                continue
            try:
                cache.entries[(caption, pivot)] = provider(caption, pivot)
                new += 1
            except Exception:
                failures.append((caption, pivot))
    cache.save(out_path)
    return new, failures
