"""Text augmentations: back translation (pluggable provider + offline cache) and EDA."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .data import TokenVocab, check_range, preprocess_caption, write_atomic

PIVOTS = ("de", "fr", "es")

# provider signature: (text, pivot) -> back-translated text
TranslateFn = Callable[[str, str], str]


@dataclass(frozen=True)
class TextAugConfig:
    p_eda: float = 0.0
    p_syn: float = 0.0
    p_swp: float = 0.0
    p_ins: float = 0.0
    p_del: float = 0.0
    p_bt: float = 0.0

    def __post_init__(self):
        for f in fields(self):  # an EDA operation's probability is at most 0.3
            check_range(self, f.name, 0, 1 if f.name in ("p_eda", "p_bt") else 0.3)

    @property
    def draws(self) -> bool:
        """Whether back translation or EDA can fire; a config that cannot draws nothing."""
        return bool(self.p_eda or self.p_bt)


@dataclass
class SynonymLexicon:
    synonyms: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        for word, alts in self.synonyms.items():
            if word in alts:
                raise ValueError(f"lexicon entry {word!r} lists itself as a synonym")

    @classmethod
    def load(cls, path) -> "SynonymLexicon":
        """A JSON object of word -> list of synonyms; any other file raises ValueError naming it."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            lists = doc.values() if isinstance(doc, dict) else [None]
            if not all(isinstance(a, list) and all(isinstance(w, str) for w in a) for a in lists):
                raise ValueError("expected a JSON object of word -> list of synonyms (strings)")
            return cls(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

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
        """Read the JSONL cache; a line that is not a record with string ``source``,
        ``pivot`` and ``result`` raises ValueError naming the file and line."""
        entries = {}
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    source, pivot, result = rec["source"], rec["pivot"], rec["result"]
                    if not all(isinstance(value, str) for value in (source, pivot, result)):
                        raise TypeError("source, pivot and result must be strings")
                    entries[(source, pivot)] = result
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(f"{path}: line {line_no}: bad record: {exc!r}") from exc
        return cls(entries)

    def save(self, path) -> None:
        write_atomic(path, (json.dumps({"source": source, "pivot": pivot, "result": result}) + "\n"
                            for (source, pivot), result in self.entries.items()))

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
