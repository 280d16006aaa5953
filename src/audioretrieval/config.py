"""Run configuration: one JSON document covering every pipeline stage.

Validation is strict (unknown keys rejected) and fail-fast, reporting the
first offending key path.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

from .audio_aug import AudioAugConfig
from .data import FeatureConfig
from .model import ModelDims
from .text_aug import TextAugConfig
from .trainer import OptimConfig


class ConfigError(ValueError):
    """Invalid run configuration; message starts with the failing key path."""


@dataclass
class SyntheticSpec:
    n_classes: int = 8
    n_train: int = 200
    n_val: int = 100
    n_test: int = 100
    sample_rate: int = 32000
    duration: float = 1.0
    captions_per_item: int = 3


@dataclass
class PathsConfig:
    out_dir: str = "runs/out"
    dataset: str | None = None
    val_dataset: str | None = None
    test_dataset: str | None = None
    audio_root: str | None = None
    bt_cache: str | None = None
    synonym_lexicon: str | None = None


@dataclass
class RunConfig:
    seed: int = 0
    paths: PathsConfig = None
    data: SyntheticSpec | None = None  # None -> manifest paths must be set
    features: FeatureConfig = None
    audio_aug: AudioAugConfig | None = None
    text_aug: TextAugConfig | None = None
    model: ModelDims = None
    optim: OptimConfig = None


_SECTION_TYPES = {
    "paths": PathsConfig,
    "features": FeatureConfig,
    "audio_aug": AudioAugConfig,
    "text_aug": TextAugConfig,
    "model": ModelDims,
    "optim": OptimConfig,
}

# keys the program sets itself, and what from; a config that sets one is rejected
_DERIVED = {
    ("model", "vocab_size"): "the training captions",
    ("model", "n_mels"): "features.n_mels",
    ("optim", "seed"): "the top-level seed",
}


def _build(cls, doc: dict, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {f.name for f in fields(cls)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    known = {"seed", "data"} | set(_SECTION_TYPES)
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown key")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed: expected an integer")

    cfg = RunConfig(seed=seed)
    data = doc.get("data")
    if data is not None:
        if not isinstance(data, dict) or set(data) - {"synthetic"}:
            raise ConfigError("data: expected {'synthetic': {...}} or null")
        cfg.data = _build(SyntheticSpec, data.get("synthetic", {}), "data.synthetic")
    for name, cls in _SECTION_TYPES.items():
        section = doc.get(name)
        if section is None and name in ("audio_aug", "text_aug"):
            setattr(cfg, name, None)  # augmentation path disabled
        else:
            setattr(cfg, name, _build(cls, section or {}, name))
    for (name, key), source in _DERIVED.items():
        if key in (doc.get(name) or {}):
            raise ConfigError(f"{name}.{key}: derived from {source}, not configurable")
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return parse_config(doc)


def config_hash(path) -> str:
    """Provenance hash of the canonicalized config document."""
    doc = json.loads(Path(path).read_text())
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
