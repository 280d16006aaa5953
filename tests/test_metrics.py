import numpy as np
import pytest

from audioretrieval.metrics import (
    from_ranks,
    map_at_10,
    metrics_table,
    rank_targets,
    recall_at_k,
)


def oracle_rank(scores_row, target):
    """Sort the full row (score desc, index asc) and locate the target."""
    order = sorted(range(len(scores_row)), key=lambda j: (-scores_row[j], j))
    return order.index(target) + 1


class TestRankTargets:
    def test_unique_max_is_rank_one(self):
        scores = np.array([[0.1, 0.9, 0.2]])
        assert rank_targets(scores, np.array([1]))[0] == 1

    def test_all_tied_rank_by_index(self):
        scores = np.ones((3, 5))
        targets = np.array([0, 2, 4])
        assert list(rank_targets(scores, targets)) == [1, 3, 5]

    def test_sort_and_locate(self):
        scores = np.array([[0.9, 0.5, 0.7]])
        assert rank_targets(scores, np.array([2]))[0] == 2

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = int(rng.integers(1, 20))
            m = int(rng.integers(2, 30))
            scores = rng.normal(size=(q, m))
            targets = rng.integers(0, m, size=q)
            ranks = rank_targets(scores, targets)
            for i in range(q):
                assert ranks[i] == oracle_rank(scores[i], targets[i])

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = int(rng.integers(1, 10))
            m = int(rng.integers(2, 20))
            scores = rng.integers(0, 4, size=(q, m)).astype(float)  # heavy ties
            targets = rng.integers(0, m, size=q)
            ranks = rank_targets(scores, targets)
            for i in range(q):
                assert ranks[i] == oracle_rank(scores[i], targets[i])


class TestRecall:
    def test_example(self):
        assert recall_at_k(np.array([1, 2, 11]), 5) == pytest.approx(2 / 3)

    def test_all_top(self):
        assert recall_at_k(np.ones(7), 1) == 1.0

    def test_k_exceeds_candidates(self):
        assert recall_at_k(np.array([3, 9]), 100) == 1.0

    def test_k_validated(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([1]), 0)


class TestMap10:
    def test_example(self):
        assert map_at_10(np.array([1, 2, 11])) == pytest.approx(0.5)

    def test_all_rank_one(self):
        assert map_at_10(np.ones(4)) == 1.0

    def test_rank_ten_counts_eleven_does_not(self):
        assert map_at_10(np.array([10])) == pytest.approx(0.1)
        assert map_at_10(np.array([11])) == 0.0

    def test_random_scoring_expectation(self):
        # analytic expectation for uniform ranks over M=100: H_10 / 100
        rng = np.random.default_rng(2)
        ranks = rng.integers(1, 101, size=200_000)
        expected = sum(1.0 / r for r in range(1, 11)) / 100
        assert map_at_10(ranks) == pytest.approx(expected, abs=0.002)


class TestInvariants:
    def test_map_bounded_by_recall(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ranks = rng.integers(1, 40, size=30)
            assert map_at_10(ranks) <= recall_at_k(ranks, 10) + 1e-12

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(10, 16))  # distinct scores: ties excluded
        targets = rng.integers(0, 16, size=10)
        perm = rng.permutation(16)
        inv = np.argsort(perm)
        r1 = from_ranks(rank_targets(scores, targets))
        r2 = from_ranks(rank_targets(scores[:, perm], inv[targets]))
        assert r1.as_dict() == r2.as_dict()


class TestTable:
    def test_layout(self):
        r = from_ranks(rank_targets(np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0, 1])))
        text = metrics_table({"test": r})
        lines = text.splitlines()
        assert "R@1" in lines[0] and "mAP@10" in lines[0]
        assert lines[1].startswith("test")
        assert "100.00" in lines[1]
