"""References for ``model.save_checkpoint`` and ``model.load_checkpoint``: the whole
document built and written by one ``json.dumps``, and parsed by one ``json.loads``
before its arrays are made, as before either was done array by array."""
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from audioretrieval.data import NormStats, write_atomic
from audioretrieval.model import ModelParams


def save_checkpoint(path, params, stats, vocab, feat) -> None:
    arrays = {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
              for name, arr in params.arrays()}
    arrays["norm_mean"] = {"shape": list(stats.mean.shape), "data": stats.mean.tolist()}
    arrays["norm_var"] = {"shape": list(stats.var.shape), "data": stats.var.tolist()}
    doc = {
        "arrays": arrays, "vocab": vocab.words(), "features": asdict(feat),
        "norm_count": stats.count, "version": 3,
    }
    write_atomic(path, json.dumps(doc))


def load_arrays(path) -> tuple[ModelParams, NormStats]:
    """The parameters and normalization statistics of a version-3 checkpoint."""
    doc = json.loads(Path(path).read_text())
    arrays = {
        name: np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
        for name, rec in doc["arrays"].items()
    }
    stats = NormStats(arrays.pop("norm_mean"), arrays.pop("norm_var"), doc["norm_count"])
    return ModelParams(**arrays), stats
