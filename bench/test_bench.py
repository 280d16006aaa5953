"""Tests of the benchmark's own code: the reference forward pass, the rank
metrics, the span arithmetic and the search-space membership. Run with

    python3 -m pytest -q bench
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402


def test_ranks_follow_the_tie_rule():
    scores = np.array([
        [0.9, 0.5, 0.1],   # target 0 strictly best
        [0.2, 0.2, 0.2],   # all tied: both lower indices count ahead of target 2
        [0.3, 0.8, 0.8],   # tied with a lower index
        [0.3, 0.8, 0.8],   # tied with a higher index only
    ])
    assert reference.ranks(scores, np.array([0, 2, 2, 1])).tolist() == [1, 3, 2, 1]


def test_retrieval_metrics_by_hand():
    got = reference.retrieval_metrics(np.array([1, 3, 12, 5]))
    assert got["r1"] == 0.25 and got["r5"] == 0.75 and got["r10"] == 0.75
    assert got["map10"] == pytest.approx((1 + 1 / 3 + 0 + 1 / 5) / 4, abs=1e-15)


def test_random_ranking_expectation():
    assert checks.random_map10(200) == pytest.approx(sum(1 / k for k in range(1, 11)) / 200)
    assert checks.random_map10(3) == pytest.approx((1 + 1 / 2 + 1 / 3) / 3)


def test_mel_scale_points():
    assert reference.hz_to_mel(1000.0) == pytest.approx(15.0)
    assert reference.hz_to_mel(600.0) == pytest.approx(9.0)
    assert reference.mel_to_hz(15.0 + 27.0) == pytest.approx(6400.0)
    f = np.array([50.0, 999.0, 1000.0, 4321.0, 16000.0])
    np.testing.assert_allclose(reference.mel_to_hz(reference.hz_to_mel(f)), f, rtol=1e-12)


def test_filterbank_by_hand():
    # Below 1 kHz the scale is linear, so 3 filters over 0..800 Hz have edges
    # 0, 200, 400, 600, 800 Hz; bins sit every 100 Hz; peak height 2 / 400.
    fb = reference.slaney_filterbank(sr=1600, n_fft=16, n_mels=3)
    h = 2.0 / 400.0
    expected = np.array([
        [0, h / 2, h, h / 2, 0, 0, 0, 0, 0],
        [0, 0, 0, h / 2, h, h / 2, 0, 0, 0],
        [0, 0, 0, 0, 0, h / 2, h, h / 2, 0],
    ])
    np.testing.assert_allclose(fb, expected, atol=1e-15)


def test_log_mel_of_a_constant_signal():
    # A constant frame under a periodic Hann window has DFT N/2 at bin 0,
    # -N/4 at bin 1 and 0 elsewhere; reflect padding keeps it constant.
    n = reference.N_FFT
    fb = reference.slaney_filterbank()
    mel = reference.log_mel(np.ones(3200), fb)
    column = np.log(fb[:, 0] * (n / 2) ** 2 + fb[:, 1] * (n / 4) ** 2 + reference.LOG_FLOOR)
    assert mel.shape == (reference.N_MELS, 1 + 3200 // reference.HOP)
    np.testing.assert_allclose(mel, np.repeat(column[:, None], mel.shape[1], axis=1), rtol=1e-9)


def test_resample_by_hand():
    np.testing.assert_allclose(reference.resample(np.arange(10.0), 4, 2), [0, 2, 4, 6, 8])
    np.testing.assert_allclose(reference.resample(np.arange(10.0), 3, 2), [0, 1.5, 3, 4.5, 6, 7.5])


def test_captions_and_vocabulary():
    assert reference.clean_caption("A Dog, barks!  loudly…") == ["a", "dog", "barks", "loudly"]
    assert reference.vocabulary(["a b.", "B c"]) == {"a": 2, "b": 3, "c": 4}


def test_self_time_subtracts_direct_children(tmp_path):
    spans = [["a", -1, 0.0, 10.0, None], ["b", 0, 1.0, 4.0, None], ["d", 1, 2.0, 3.0, None],
             ["c", 0, 5.0, 6.0, {"bytes": 7}], ["c", 0, 7.0, 7.5, {"bytes": 1}]]
    path = tmp_path / "spans.jsonl"
    path.write_text("\n".join(json.dumps(x) for x in [{"distinct_clips": 3}] + spans) + "\n")
    totals, clips = tracer.layer_totals(path)
    assert clips == 3
    assert totals["a"]["s"] == pytest.approx(10 - 3 - 1 - 0.5)
    assert totals["b"]["s"] == pytest.approx(2.0)
    assert totals["c"] == {"s": pytest.approx(1.5), "calls": 2, "bytes": 8}


def test_search_space_membership():
    cfg = {name: (lo if kind != "float" else float(lo))
           for name, (kind, lo, _) in checks.SEARCH_SPACE.items()}
    assert checks.in_space(cfg)
    assert not checks.in_space({**cfg, "w_f": 33})
    assert not checks.in_space({**cfg, "n_f": 2})
    assert not checks.in_space({k: v for k, v in cfg.items() if k != "alpha"})
