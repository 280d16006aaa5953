"""Correctness checks on the artifacts one round of a workload writes.

Each check raises ``CheckFailed`` with the reason. None of them import the
program: the search space and the random-ranking baseline are restated here.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import reference

# The paper's 13-parameter augmentation space: (kind, low, high) or choice values.
SEARCH_SPACE = {
    "p_eda": ("float", 0.0, 1.0), "p_syn": ("float", 0.0, 0.3),
    "p_swp": ("float", 0.0, 0.3), "p_ins": ("float", 0.0, 0.3),
    "p_del": ("float", 0.0, 0.3), "p_bt": ("float", 0.0, 1.0),
    "n_f": ("choice", 0, 1), "w_f": ("int", 1, 32), "n_t": ("int", 0, 8),
    "w_t": ("int", 1, 64), "g_max": ("int", 0, 6),
    "p_ms": ("float", 0.0, 1.0), "alpha": ("float", 0.0, 1.0),
}
MAP_OVER_RANDOM = 2.0  # result_map10 must exceed this multiple of H_10 / N
REFERENCE_TOL = 1e-9   # absolute, on each of R@1, R@5, R@10 and mAP@10


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def random_map10(n_candidates: int) -> float:
    """Expected mAP@10 of a uniformly random ranking: H_min(10, N) / N."""
    return sum(1.0 / k for k in range(1, min(10, n_candidates) + 1)) / n_candidates


def check_training(run_result: dict, epochs: int) -> None:
    losses = run_result["train_losses"]
    require(run_result["epochs_run"] == epochs == len(losses),
            f"expected {epochs} epochs, run_result has {run_result['epochs_run']}")
    require(all(math.isfinite(x) for x in losses), "non-finite training loss")
    require(losses[-1] < losses[0], f"last loss {losses[-1]} not below first {losses[0]}")


def check_retrieval(scores: dict, n_candidates: int) -> None:
    r1, r5, r10, m = (scores[k] for k in ("r1", "r5", "r10", "map10"))
    require(0.0 <= r1 <= r5 <= r10 <= 1.0, f"recalls out of order: {r1} {r5} {r10}")
    require(r1 <= m <= r10, f"mAP@10 {m} outside [R@1, R@10] = [{r1}, {r10}]")
    floor = MAP_OVER_RANDOM * random_map10(n_candidates)
    require(m > floor, f"mAP@10 {m:.4f} not above {MAP_OVER_RANDOM} x random ({floor:.4f})")


def check_reference(checkpoint, train_manifest, test_manifest, written: dict) -> None:
    mine = reference.recompute(checkpoint, train_manifest, test_manifest)
    for key, value in mine.items():
        require(abs(value - written[key]) <= REFERENCE_TOL,
                f"eval {key} {written[key]} != independent recomputation {value}")


def in_space(config: dict) -> bool:
    if set(config) != set(SEARCH_SPACE):
        return False
    for name, (kind, lo, hi) in SEARCH_SPACE.items():
        v = config[name]
        if kind == "choice" and v not in (lo, hi):
            return False
        if kind == "int" and not (isinstance(v, int) and lo <= v <= hi):
            return False
        if kind == "float" and not (isinstance(v, float) and lo <= v <= hi):
            return False
    return True


def check_search(trials: list[dict], n_trials: int, max_epochs: int, n_val: int) -> None:
    require([t["trial_id"] for t in trials] == list(range(n_trials)),
            f"trial ids are not 0..{n_trials - 1}")
    for t in trials:
        require(t["status"] in ("completed", "pruned"), f"trial {t['trial_id']} {t['status']}")
        require(in_space(t["config"]), f"trial {t['trial_id']} config outside the space")
        require(1 <= t["epochs_run"] <= max_epochs, f"trial {t['trial_id']} epochs_run")
        require(math.isfinite(t["objective"]) and 0.0 <= t["objective"] <= 1.0,
                f"trial {t['trial_id']} objective {t['objective']}")
    best = max(t["objective"] for t in trials)
    floor = MAP_OVER_RANDOM * random_map10(n_val)
    require(best > floor, f"best objective {best:.4f} not above {MAP_OVER_RANDOM} x random")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def read_trials(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
