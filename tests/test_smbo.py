import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from audioretrieval.smbo import (
    PRIOR_WEIGHT,
    CorruptLog,
    SPACE,
    ParamSpec,
    TrialRecord,
    open_log,
    run_search,
    sample_random,
    tpe_suggest,
    _fit_kde,
    _kde_density,
    ndtr,
)

from conftest import examples, logged_search


def quadratic_1d(cfg, trial_id, seed):
    return -((cfg["x"] - 0.7) ** 2), "completed", 1


SPACE_1D = (ParamSpec("x", "uniform_float", 0.0, 1.0),)


class TestSpecs:
    def test_default_space_is_full_augmentation_set(self):
        assert [p.name for p in SPACE] == ["p_eda", "p_syn", "p_swp", "p_ins", "p_del", "p_bt",
                                           "n_f", "w_f", "n_t", "w_t", "g_max", "p_ms", "alpha"]


class TestSampleRandom:
    def test_degenerate_int(self):
        space = (ParamSpec("k", "choice", values=(3,)),)
        rng = np.random.default_rng(0)
        assert all(sample_random(space, rng)["k"] == 3 for _ in range(10))

    def test_uniform_mean(self):
        space = (ParamSpec("p_eda", "uniform_float", 0.0, 1.0),)
        rng = np.random.default_rng(1)
        draws = [sample_random(space, rng)["p_eda"] for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.5) < 0.01

    def test_within_ranges(self):
        space = SPACE
        rng = np.random.default_rng(2)
        for _ in range(200):
            cfg = sample_random(space, rng)
            assert 0.0 <= cfg["p_eda"] <= 1.0
            assert cfg["n_f"] in (0, 1)
            assert 1 <= cfg["w_f"] <= 32
            assert 0 <= cfg["n_t"] <= 8
            assert 1 <= cfg["w_t"] <= 64
            assert 0 <= cfg["g_max"] <= 6
            assert 0.0 <= cfg["p_syn"] <= 0.3
            assert 1e-3 <= cfg["alpha"] <= 1.0


def _history(space, objectives, seed=0):
    rng = np.random.default_rng(seed)
    return [
        TrialRecord(i, sample_random(space, rng), obj, "completed", 1)
        for i, obj in enumerate(objectives)
    ]


def _kde_density_scipy_stats(x, mus, bw, lo, hi):
    """Reference: the kernel density written with scipy.stats.norm."""
    from scipy.stats import norm

    dens = norm.pdf(x, loc=mus, scale=bw)
    mass = norm.cdf(hi, loc=mus, scale=bw) - norm.cdf(lo, loc=mus, scale=bw)
    kernels = float((dens / np.maximum(mass, 1e-12)).sum())
    return (kernels + PRIOR_WEIGHT / (hi - lo)) / (len(mus) + PRIOR_WEIGHT)


class TestTpeSuggest:
    def test_density_equals_scipy_stats(self):
        rng = np.random.default_rng(11)
        for _ in range(5000):
            lo = float(rng.uniform(-5.0, 5.0))
            hi = lo + float(rng.uniform(0.1, 10.0))
            mus = rng.uniform(lo, hi, size=int(rng.integers(1, 30)))
            kde = _fit_kde(mus, lo, hi)
            x = float(rng.uniform(lo - 1.0, hi + 1.0))
            # ndtr is erfc-based, not scipy's: 380 of these 5000 differ, by at most 2 ulp
            ref = _kde_density_scipy_stats(x, mus, kde[1], lo, hi)
            assert _kde_density(x, *kde) == pytest.approx(ref, rel=1e-15, abs=0)

    def test_ndtr_matches_scipy(self):
        from scipy.special import ndtr as scipy_ndtr

        z = np.linspace(-40.0, 40.0, 20_001)
        # measured on this grid: at most 3.4e-13 relative, in the far lower tail (1.3e-14
        # for z >= -8); abs covers the subnormal results below about z = -37.5, which
        # carry few significant bits
        assert ndtr(z) == pytest.approx(scipy_ndtr(z), rel=1e-10, abs=1e-300)

    def test_fallback_to_random_on_short_history(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        history = _history(SPACE_1D, [0.1, 0.2])
        assert tpe_suggest(history, SPACE_1D, rng1) == sample_random(SPACE_1D, rng2)

    def test_within_ranges(self):
        space = SPACE
        history = _history(space, list(np.linspace(0, 1, 20)))
        for seed in range(20):
            cfg = tpe_suggest(history, space, np.random.default_rng(seed))
            for p in space:
                if p.kind == "choice":
                    assert cfg[p.name] in p.values
                else:
                    assert p.lo <= cfg[p.name] <= p.hi
                if p.kind == "int_range":
                    assert isinstance(cfg[p.name], int)

    def test_deterministic_given_history(self):
        history = _history(SPACE_1D, list(np.linspace(0, 1, 15)))
        a = tpe_suggest(history, SPACE_1D, np.random.default_rng(3))
        b = tpe_suggest(history, SPACE_1D, np.random.default_rng(3))
        assert a == b

    def test_identical_objectives_degenerate_split(self):
        history = _history(SPACE_1D, [0.5] * 15)
        cfg = tpe_suggest(history, SPACE_1D, np.random.default_rng(4))
        assert 0.0 <= cfg["x"] <= 1.0

    def test_concentrates_near_good_region(self):
        # trials already scored by the quadratic: suggestions should cluster
        # closer to the optimum than uniform draws
        rng = np.random.default_rng(6)
        history = []
        for i in range(40):
            cfg = sample_random(SPACE_1D, rng)
            history.append(TrialRecord(i, cfg, -((cfg["x"] - 0.7) ** 2), "completed", 1))
        suggestions = [tpe_suggest(history, SPACE_1D, np.random.default_rng(s))["x"]
                       for s in range(30)]
        assert np.median(np.abs(np.array(suggestions) - 0.7)) < 0.25


class TestRunSearch:
    def test_pure_random_boundary(self, tmp_path):
        trials, best = run_search(quadratic_1d, SPACE_1D, n_init=5, n_trials=5, seed=0)
        assert len(trials) == 5
        assert best is not None

    def test_monotone_best_so_far(self):
        trials, _ = run_search(quadratic_1d, SPACE_1D, n_init=5, n_trials=25, seed=1)
        best = -np.inf
        for t in trials:
            best = max(best, t.objective)
            assert max(x.objective for x in trials[: t.trial_id + 1]) == best

    def test_resume_matches_uninterrupted(self, tmp_path):
        log_a = tmp_path / "a.jsonl"
        full, _ = logged_search(log_a, quadratic_1d, SPACE_1D, n_init=5, n_trials=20, seed=2)
        log_b = tmp_path / "b.jsonl"
        logged_search(log_b, quadratic_1d, SPACE_1D, n_init=5, n_trials=8, seed=2)
        resumed, _ = logged_search(log_b, quadratic_1d, SPACE_1D, n_init=5, n_trials=20,
                                   seed=2, resume=True)
        assert [t.config for t in resumed] == [t.config for t in full]
        assert log_a.read_bytes() == log_b.read_bytes()

    def test_continues_history_into_an_open_log(self, tmp_path, monkeypatch):
        """run_search opens no file: it writes each new record to the log it is given."""
        monkeypatch.chdir(tmp_path)
        history, _ = run_search(quadratic_1d, SPACE_1D, n_init=2, n_trials=3, seed=9)
        log = io.StringIO()
        trials, _ = run_search(quadratic_1d, SPACE_1D, n_init=2, n_trials=6, seed=9,
                               trials=history, log=log)
        assert trials[:3] == history and len(history) == 3
        assert log.getvalue().splitlines() == [t.to_json() for t in trials[3:]]
        assert os.listdir(tmp_path) == []

    def test_failed_trials_recorded_and_skipped(self):
        def flaky(cfg, trial_id, seed):
            if trial_id % 3 == 0:
                raise RuntimeError("boom")
            return quadratic_1d(cfg, trial_id, seed)

        trials, best = run_search(flaky, SPACE_1D, n_init=5, n_trials=15, seed=3)
        statuses = [t.status for t in trials]
        assert statuses.count("failed") == 5
        assert all(t.objective is None for t in trials if t.status == "failed")
        assert all(t.error == "RuntimeError: boom" for t in trials if t.status == "failed")
        assert all(t.error is None for t in trials if t.status != "failed")
        assert best is not None

    def test_pruned_status_preserved(self):
        def pruned_objective(cfg, trial_id, seed):
            return 0.4, "pruned", 11  # best value before pruning

        trials, _ = run_search(pruned_objective, SPACE_1D, n_init=2, n_trials=2, seed=4)
        assert all(t.status == "pruned" and t.objective == 0.4 for t in trials)
        assert all(t.epochs_run == 11 for t in trials)

    @pytest.mark.parametrize("tear", [lambda rec: rec[: len(rec) // 2], lambda rec: rec[:-1]],
                             ids=["half of the last record", "last record without its newline"])
    def test_resume_after_torn_last_line(self, tmp_path, tear):
        full_log, log = tmp_path / "full.jsonl", tmp_path / "torn.jsonl"
        logged_search(full_log, quadratic_1d, SPACE_1D, n_init=5, n_trials=12, seed=7)
        logged_search(log, quadratic_1d, SPACE_1D, n_init=5, n_trials=7, seed=7)
        with open(log, "ab") as fh:
            fh.write(tear(full_log.read_bytes().splitlines(keepends=True)[7]))
        logged_search(log, quadratic_1d, SPACE_1D, n_init=5, n_trials=12, seed=7, resume=True)
        assert log.read_bytes() == full_log.read_bytes()

    def test_open_log_changes_nothing_it_rejects(self, tmp_path):
        log = tmp_path / "t.jsonl"
        logged_search(log, quadratic_1d, SPACE_1D, n_init=2, n_trials=3, seed=8)
        with open(log, "ab") as fh:
            fh.write(b'{"trial_id": 3, "con')  # a torn tail the rejected opens must keep
        before, name = log.read_bytes(), re.escape(str(log))
        with pytest.raises(ValueError, match=f"^trials log {name} exists; pass --resume"):
            open_log(log, 5, resume=False)
        with pytest.raises(ValueError, match=f"^{name} holds 3 trials, more than --n-trials 2$"):
            open_log(log, 2, resume=True)
        assert log.read_bytes() == before
        log.write_bytes(b'{"schema": 7}\n' + before)
        with pytest.raises(CorruptLog, match=f"^corrupt trials log {name}: "):
            open_log(log, 5, resume=True)
        assert log.read_bytes() == b'{"schema": 7}\n' + before

    def test_open_log_returns_the_dropped_fragment(self, tmp_path):
        log = tmp_path / "t.jsonl"
        trials, _ = logged_search(log, quadratic_1d, SPACE_1D, n_init=2, n_trials=3, seed=8)
        whole = log.read_bytes()
        log.write_bytes(whole + b'{"trial_id": 3, "con')
        assert open_log(log, 3, resume=True) == (trials, '{"trial_id": 3, "con')
        assert log.read_bytes() == whole
        assert open_log(tmp_path / "absent.jsonl", 3, resume=True) == ([], None)

    @pytest.mark.parametrize("line", ["5", "[0]", '"trial"', "null"])
    def test_line_that_is_not_an_object_is_corrupt(self, tmp_path, line):
        with pytest.raises(ValueError, match="^not a trial record: "):
            TrialRecord.from_json(line)
        log = tmp_path / "t.jsonl"
        first = TrialRecord(0, {"x": 0.5}, 0.1, "completed", 1).to_json() + "\n"
        log.write_text(first + line + "\n")
        with pytest.raises(CorruptLog, match="^corrupt trials log .*: not a trial record: "):
            open_log(log, 5, resume=True)
        assert log.read_text() == first + line + "\n"
        log.write_text(first + line)  # unterminated, it is a torn tail
        assert open_log(log, 5, resume=True) == ([TrialRecord.from_json(first)], line)
        assert log.read_text() == first

    @pytest.mark.parametrize("ids,sep,where", [
        ((0, 2), "\n", "line 2 holds trial 2 where trial 1"),
        ((0, 0), "\n", "line 2 holds trial 0 where trial 1"),
        ((1,), "\n", "line 1 holds trial 1 where trial 0"),
        ((0, 1, 3), "\n\n", "line 5 holds trial 3 where trial 2")],
        ids=["gap", "repeat", "first missing", "gap past blank lines"])
    @pytest.mark.parametrize("terminated", [True, False], ids=["terminated", "unterminated"])
    def test_trial_out_of_place_is_corrupt(self, tmp_path, ids, sep, where, terminated):
        log = tmp_path / "t.jsonl"
        text = sep.join(TrialRecord(i, {"x": 0.5}, 0.1, "completed", 1).to_json()
                        for i in ids) + ("\n" if terminated else "")
        log.write_text(text)
        with pytest.raises(CorruptLog, match=f"^corrupt trials log .*: {where} belongs$"):
            open_log(log, 5, resume=True)
        assert log.read_text() == text

    def test_record_roundtrip(self):
        rec = TrialRecord(3, {"x": 0.25, "n_f": 1}, 0.9, "completed", 20)
        assert TrialRecord.from_json(rec.to_json()) == rec

    def test_error_key_only_on_failed_lines(self, tmp_path):
        def flaky(cfg, trial_id, seed):
            if trial_id == 1:
                raise ValueError("split too small")
            return quadratic_1d(cfg, trial_id, seed)

        log = tmp_path / "t.jsonl"
        logged_search(log, flaky, SPACE_1D, n_init=2, n_trials=3, seed=6)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [("error" in rec) for rec in lines] == [False, True, False]
        assert lines[1]["error"] == "ValueError: split too small"
        assert open_log(log, 3, resume=True)[0][1].error == "ValueError: split too small"


class TestTpeEfficacy1D:
    def test_beats_random_median(self):
        # operational check behind the search procedure: guided sampling finds
        # better optima than an equal budget of random draws
        tpe_best, rand_best = [], []
        for seed in range(20):
            trials, best = run_search(quadratic_1d, SPACE_1D, n_init=10, n_trials=60,
                                      seed=seed)
            tpe_best.append(max(t.objective for t in trials))
            rng = np.random.default_rng(seed)
            rand = [quadratic_1d(sample_random(SPACE_1D, rng), 0, 0)[0] for _ in range(60)]
            rand_best.append(max(rand))
        assert np.median(tpe_best) > np.median(rand_best)


# the uninterrupted log that every resume of TrialsLogMachine must reproduce a prefix of
LOG_TRIALS, LOG_INIT, LOG_SEED = 8, 3, 5
_full = io.StringIO()
run_search(quadratic_1d, SPACE_1D, LOG_INIT, LOG_TRIALS, LOG_SEED, log=_full)
FULL_LINES = _full.getvalue().encode().splitlines(keepends=True)


def expected_open(raw: bytes, n_trials: int) -> str:
    """What open_log must do with the bytes ``raw``, all made from FULL_LINES by the machine's
    rules: "ok", "corrupt" or "too many". A non-blank line is a trial record exactly when it
    is one of FULL_LINES; glued, split or cut lines never parse."""
    cut = raw.rfind(b"\n") + 1
    records = [line + b"\n" for line in raw[:cut].split(b"\n")[:-1] if line]
    if any(line not in FULL_LINES for line in records):
        return "corrupt"
    if raw[cut:] + b"\n" in FULL_LINES:  # a tail that parses is kept; any other is dropped
        records.append(raw[cut:] + b"\n")
    if records != FULL_LINES[:len(records)]:
        return "corrupt"  # a trial out of its place
    return "ok" if len(records) <= n_trials else "too many"


class TrialsLogMachine(RuleBasedStateMachine):
    """Appends records to a trials log, cuts it at any byte, glues lines or puts blank ones
    between them, and resumes a search on it with any n_trials, as ``smbo --resume`` does.
    A resume either leaves the uninterrupted log's first n_trials lines (blank lines kept),
    or raises open_log's error for the log and leaves the file as it was."""

    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.path = Path(self.dir.name) / "trials.jsonl"
        self.path.write_bytes(b"")

    def teardown(self):
        self.dir.cleanup()

    @property
    def raw(self) -> bytes:
        return self.path.read_bytes()

    def _newlines(self) -> list[int]:
        return [i for i, byte in enumerate(self.raw) if byte == ord("\n")]

    @rule(shift=st.integers(-1, 1), k=st.integers(1, 3))
    def append(self, shift, k):
        """The next k records of the uninterrupted log, or ones out of their place."""
        start = max(0, sum(line.strip() != b"" for line in self.raw.splitlines()) + shift)
        with open(self.path, "ab") as fh:
            fh.write(b"".join(FULL_LINES[start:start + k]))

    @rule(data=st.data())
    def cut(self, data):
        raw = self.raw
        self.path.write_bytes(raw[:data.draw(st.integers(0, len(raw)), label="at")])

    @precondition(lambda self: b"\n" in self.raw)
    @rule(data=st.data())
    def glue(self, data):
        raw, at = self.raw, data.draw(st.sampled_from(self._newlines()), label="newline")
        self.path.write_bytes(raw[:at] + raw[at + 1:])

    @rule(data=st.data())
    def blank(self, data):
        raw = self.raw
        at = data.draw(st.sampled_from([0] + [i + 1 for i in self._newlines()]), label="at")
        self.path.write_bytes(raw[:at] + b"\n" + raw[at:])

    @rule(n_trials=st.integers(0, LOG_TRIALS))
    def resume(self, n_trials):
        before = self.raw
        expected = expected_open(before, n_trials)
        try:
            logged_search(self.path, quadratic_1d, SPACE_1D, LOG_INIT, n_trials, LOG_SEED,
                          resume=True)
        except CorruptLog:
            outcome = "corrupt"
        except ValueError as exc:
            assert str(exc).endswith(f"more than --n-trials {n_trials}")
            outcome = "too many"
        else:
            outcome = "ok"
        assert outcome == expected
        after = self.raw
        if outcome != "ok":
            assert after == before
            return
        kept = before[:before.rfind(b"\n") + 1]
        assert after.startswith(kept)
        if before[len(kept):] + b"\n" in FULL_LINES:  # the tail that parses gets its newline
            assert after.startswith(before)
        assert [line for line in after.splitlines(keepends=True) if line.strip()] == \
            FULL_LINES[:n_trials]


TestTrialsLogMachine = TrialsLogMachine.TestCase
TestTrialsLogMachine.settings = settings(max_examples=examples(100), stateful_step_count=20,
                                         deadline=None)
