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
from .data import CLASS_WORDS, FeatureConfig, check_int, check_positive
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

    def __post_init__(self):
        for name, minimum, maximum in (
            ("n_classes", 2, len(CLASS_WORDS)), ("n_train", 0, None), ("n_val", 0, None),
            ("n_test", 0, None), ("sample_rate", 1, None), ("captions_per_item", 1, None),
        ):
            check_int(self, name, minimum, maximum)
        check_positive(self, "duration")
        if int(self.sample_rate * self.duration) < 1:
            raise ValueError(f"duration {self.duration!r} s at sample_rate {self.sample_rate} "
                             f"gives a clip of no samples")


@dataclass
class PathsConfig:
    out_dir: str = "runs/out"
    dataset: str | None = None
    val_dataset: str | None = None
    test_dataset: str | None = None
    audio_root: str | None = None
    bt_cache: str | None = None
    synonym_lexicon: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, str) and (value is not None or f.name == "out_dir"):
                raise ValueError(f"{f.name} must be a string, got {value!r}")


@dataclass
class RunConfig:
    seed: int = 0
    paths: PathsConfig = None
    data: SyntheticSpec | None = None  # None -> manifest paths must be set
    features: FeatureConfig = None
    audio_aug: AudioAugConfig = None
    text_aug: TextAugConfig = None
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
    cfg = RunConfig(seed=doc.get("seed", 0))
    try:
        check_int(cfg, "seed", 0)
    except ValueError as exc:
        raise ConfigError(f"seed: {exc}") from exc
    data = doc.get("data")
    if data is not None:
        if not isinstance(data, dict) or set(data) - {"synthetic"}:
            raise ConfigError("data: expected {'synthetic': {...}} or null")
        cfg.data = _build(SyntheticSpec, data.get("synthetic", {}), "data.synthetic")
    for name, cls in _SECTION_TYPES.items():  # an absent or null section is the defaults
        setattr(cfg, name, _build(cls, {} if doc.get(name) is None else doc[name], name))
    return cfg


def load_config(path) -> RunConfig:
    return read_config(path)[0]


def read_config(path) -> tuple[RunConfig, str]:
    """The config in ``path``, and the provenance hash of the document it was parsed
    from: of its canonical JSON, from the same read of the file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return parse_config(doc), hashlib.sha256(canon.encode()).hexdigest()[:16]
