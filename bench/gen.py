"""Seeded generator of the benchmark's Clotho-shaped dataset.

Writes 44.1 kHz 16-bit mono WAVs of varied duration, five captions per clip,
``train.jsonl`` / ``val.jsonl`` / ``test.jsonl`` manifests and an offline
back-translation cache. It shares no code with ``data.synth_dataset``; only
the cache is built through the program's own ``text_aug.cache_build`` with
``text_aug.mock_provider``, the format the program reads back.

    python3 bench/gen.py --out DIR --seed 1 --n-train 400 --n-val 100 --n-test 200
"""
from __future__ import annotations

import argparse
import json
import sys
import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 44100
CAPTIONS_PER_CLIP = 5
DURATION_RANGE = (0.5, 1.5)  # seconds, uniform per clip

# Each sound class: caption words and the base frequency of its partials (Hz).
SOUND_CLASSES = [
    (["kettle", "whistles", "kitchen", "steam"], 2600.0),
    (["cat", "meows", "hungry", "pet"], 700.0),
    (["truck", "reverses", "beeping", "lot"], 1100.0),
    (["owl", "hoots", "night", "forest"], 380.0),
    (["cello", "bows", "string", "melody"], 160.0),
    (["drill", "whirs", "workshop", "motor"], 4300.0),
    (["frogs", "croak", "pond", "evening"], 520.0),
    (["phone", "rings", "office", "desk"], 1650.0),
    (["sirens", "wail", "street", "emergency"], 950.0),
    (["foghorn", "blares", "harbor", "ship"], 110.0),
    (["cicadas", "buzz", "summer", "heat"], 6800.0),
    (["choir", "sings", "hall", "voices"], 260.0),
]
# Per-clip attributes, each with caption words and an audio effect.
PITCH = {"low": (["low", "deep"], 0.8), "high": (["high", "shrill"], 1.25)}
RHYTHM = {"steady": (["steady", "constant"], 0.0), "pulsing": (["pulsing", "repeating"], 4.0)}
FILLER = [
    "a", "the", "is", "and", "some", "very", "can", "be", "heard", "while",
    "in", "background", "with", "sound", "of", "it", "continues", "then",
    "somewhere", "faint", "clearly", "recording",
]


def _clip(rng, n_samples: int, f0: float, pitch: float, am_hz: float) -> np.ndarray:
    t = np.arange(n_samples) / SAMPLE_RATE
    sig = np.zeros(n_samples)
    for k, amp in enumerate((0.5, 0.25, 0.12), start=1):
        f = min(f0 * pitch * k * rng.uniform(0.98, 1.02), 0.45 * 32000)
        sig += amp * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    if am_hz:
        sig *= 0.55 + 0.45 * np.sin(2 * np.pi * am_hz * t)
    sig += rng.normal(0.0, 0.03, n_samples)
    sig *= rng.uniform(0.3, 0.9) / max(np.abs(sig).max(), 1e-9)
    return np.round(sig * 32767).astype(np.int16)


def _caption(rng, words: list[str], pitch_words: list[str], rhythm_words: list[str]) -> str:
    picked = list(rng.choice(words, size=3, replace=False))
    picked.append(str(rng.choice(pitch_words)))
    picked.append(str(rng.choice(rhythm_words)))
    picked += list(rng.choice(FILLER, size=int(rng.integers(2, 5)), replace=False))
    rng.shuffle(picked)
    text = " ".join(picked)
    return text[0].upper() + text[1:] + "."


def write_wav(path: Path, pcm: np.ndarray) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def _split_plan(rng, n: int):
    """Per clip: (sound class, pitch, rhythm, duration in samples).

    Every split holds the class/pitch/rhythm combinations in equal shares and
    durations evenly spaced over DURATION_RANGE, in an order the seed
    shuffles; so two seeds differ in content but not in amount of audio or
    in class balance.
    """
    combos = [(c, p, r) for c in range(len(SOUND_CLASSES)) for p in PITCH for r in RHYTHM]
    kinds = [combos[i % len(combos)] for i in rng.permutation(n)]
    seconds = rng.permutation(np.linspace(*DURATION_RANGE, n)) if n else []
    return [(*kind, int(d * SAMPLE_RATE)) for kind, d in zip(kinds, seconds)]


def generate(out: Path, seed: int, sizes: dict[str, int]) -> None:
    """Write the dataset for ``seed`` into ``out`` (which must not exist yet)."""
    from audioretrieval import text_aug

    out.mkdir(parents=True)
    train_captions = []
    for offset, split in enumerate(("train", "val", "test")):
        rng = np.random.default_rng([seed, offset])
        (out / split).mkdir()
        with open(out / f"{split}.jsonl", "w", encoding="utf-8") as fh:
            for i, (c, pitch, rhythm, n) in enumerate(_split_plan(rng, sizes[split])):
                words, f0 = SOUND_CLASSES[c]
                pitch_words, factor = PITCH[pitch]
                rhythm_words, am_hz = RHYTHM[rhythm]
                rel = f"{split}/{i:05d}.wav"
                write_wav(out / rel, _clip(rng, n, f0, factor, am_hz))
                caps = [_caption(rng, words, pitch_words, rhythm_words)
                        for _ in range(CAPTIONS_PER_CLIP)]
                if split == "train":
                    train_captions += caps
                fh.write(json.dumps({"audio": rel, "captions": caps}) + "\n")
    _, failures = text_aug.cache_build(
        train_captions, text_aug.PIVOTS, text_aug.mock_provider, out / "bt_cache.jsonl")
    if failures:
        raise RuntimeError(f"back-translation cache misses {len(failures)} pairs")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-val", type=int, required=True)
    p.add_argument("--n-test", type=int, required=True)
    args = p.parse_args(argv)
    generate(args.out, args.seed, {"train": args.n_train, "val": args.n_val, "test": args.n_test})
    return 0


if __name__ == "__main__":
    sys.exit(main())
