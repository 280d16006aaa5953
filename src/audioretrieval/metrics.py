"""Retrieval ranking and metrics: R@1, R@5, R@10, mAP@10."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RetrievalResult:
    ranks: np.ndarray  # 1-based rank of each query's target
    r1: float
    r5: float
    r10: float
    map10: float

    def as_dict(self) -> dict:
        return {"r1": self.r1, "r5": self.r5, "r10": self.r10, "map10": self.map10}


def rank_targets(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of each query's target candidate.

    Ties break by candidate index: a candidate whose score equals the target's
    exactly (float equality) and whose index is lower counts ahead of it. Clips
    with identical features need not score exactly alike, because BLAS rounds a
    product's entries differently with its shape.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    q_idx = np.arange(scores.shape[0])
    target_scores = scores[q_idx, targets]
    greater = (scores > target_scores[:, None]).sum(axis=1)
    tied_before = (
        (scores == target_scores[:, None]) & (np.arange(scores.shape[1])[None, :] < targets[:, None])
    ).sum(axis=1)
    return 1 + greater + tied_before


def recall_at_k(ranks: np.ndarray, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    ranks = np.asarray(ranks)
    return float((ranks <= k).mean())


def map_at_10(ranks: np.ndarray) -> float:
    """Mean of 1/rank truncated at rank 10 (single relevant item per query)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    ap = np.where(ranks <= 10, 1.0 / ranks, 0.0)
    return float(ap.mean())


def from_ranks(ranks: np.ndarray) -> RetrievalResult:
    """R@1, R@5, R@10 and mAP@10 of the queries whose targets have these 1-based ranks."""
    return RetrievalResult(
        ranks=ranks,
        r1=recall_at_k(ranks, 1),
        r5=recall_at_k(ranks, 5),
        r10=recall_at_k(ranks, 10),
        map10=map_at_10(ranks),
    )


def metrics_table(rows: dict[str, RetrievalResult]) -> str:
    """Aligned plain-text table with R@1, R@5, R@10, mAP@10 columns."""
    name_w = max(len(n) for n in rows) if rows else 4
    lines = [f"{'':<{name_w}}  {'R@1':>7} {'R@5':>7} {'R@10':>7} {'mAP@10':>7}"]
    for name, r in rows.items():
        lines.append(
            f"{name:<{name_w}}  {100 * r.r1:>7.2f} {100 * r.r5:>7.2f} "
            f"{100 * r.r10:>7.2f} {100 * r.map10:>7.2f}"
        )
    return "\n".join(lines)
