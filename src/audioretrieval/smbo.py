"""Sequential model-based optimization: random init, Tree-structured Parzen
Estimator suggestions, early-stopped trials, JSONL persistence."""
from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GAMMA = 0.25          # good/bad split quantile
N_CANDIDATES = 24     # candidates drawn from l(x) per suggestion
MIN_BANDWIDTH = 0.1   # fraction of the parameter range; keeps exploration alive
PRIOR_WEIGHT = 1.0    # uniform pseudo-observation mixed into each density


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # "uniform_float" | "int_range" | "choice"
    lo: float | None = None
    hi: float | None = None
    values: tuple | None = None


# the full 13-parameter augmentation search space
SPACE = (
    ParamSpec("p_eda", "uniform_float", 0.0, 1.0),
    ParamSpec("p_syn", "uniform_float", 0.0, 0.3),
    ParamSpec("p_swp", "uniform_float", 0.0, 0.3),
    ParamSpec("p_ins", "uniform_float", 0.0, 0.3),
    ParamSpec("p_del", "uniform_float", 0.0, 0.3),
    ParamSpec("p_bt", "uniform_float", 0.0, 1.0),
    ParamSpec("n_f", "choice", values=(0, 1)),
    ParamSpec("w_f", "int_range", 1, 32),
    ParamSpec("n_t", "int_range", 0, 8),
    ParamSpec("w_t", "int_range", 1, 64),
    ParamSpec("g_max", "int_range", 0, 6),
    ParamSpec("p_ms", "uniform_float", 0.0, 1.0),
    ParamSpec("alpha", "uniform_float", 1e-3, 1.0),  # a Beta shape: must be > 0
)


@dataclass
class TrialRecord:
    trial_id: int
    config: dict
    objective: float | None
    status: str  # "completed" | "pruned" | "failed"
    epochs_run: int = 0
    error: str | None = None  # "<Type>: <message>" of a failed trial

    def to_json(self) -> str:
        rec = {
            "schema": 1,
            "trial_id": self.trial_id,
            "config": self.config,
            "objective": self.objective,
            "status": self.status,
            "epochs_run": self.epochs_run,
        }
        return json.dumps(rec if self.error is None else {**rec, "error": self.error})

    @classmethod
    def from_json(cls, line: str) -> "TrialRecord":
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError(f"not a trial record: {line.strip()!r}")
        if rec.pop("schema", 1) != 1:
            raise ValueError("unsupported trial record schema")
        return cls(**rec)


def sample_random(space: Sequence[ParamSpec], rng: np.random.Generator) -> dict:
    """One configuration with every parameter drawn independently."""
    cfg = {}
    for p in space:
        if p.kind == "uniform_float":
            cfg[p.name] = float(rng.uniform(p.lo, p.hi))
        elif p.kind == "int_range":
            cfg[p.name] = int(rng.integers(int(p.lo), int(p.hi) + 1))
        else:
            cfg[p.name] = p.values[int(rng.integers(len(p.values)))]
    return cfg


def _kde_bandwidth(obs: np.ndarray, rng_width: float) -> float:
    # Silverman's rule on the observed spread, floored to 10% of the range so
    # degenerate observation sets still yield a proper density
    bw = 1.06 * float(np.std(obs)) * len(obs) ** (-1.0 / 5.0)
    return max(bw, rng_width * MIN_BANDWIDTH)


def ndtr(z: np.ndarray) -> np.ndarray:
    """The standard normal CDF of each element of the 1-D array ``z``."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2)) for v in z.tolist()])


def _fit_kde(obs: np.ndarray, lo: float, hi: float) -> tuple:
    """(kernel centres, bandwidth, each kernel's mass inside [lo, hi], lo, hi)."""
    bw = _kde_bandwidth(obs, hi - lo)
    return obs, bw, np.maximum(ndtr((hi - obs) / bw) - ndtr((lo - obs) / bw), 1e-12), lo, hi


def _kde_density(x: float, mus: np.ndarray, bw: float, mass: np.ndarray, lo: float,
                 hi: float) -> float:
    """Truncated-Gaussian kernel mixture plus a uniform prior component."""
    z = (x - mus) / bw
    dens = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) / bw
    kernels = float((dens / mass).sum())
    prior = PRIOR_WEIGHT / (hi - lo)
    return (kernels + prior) / (len(mus) + PRIOR_WEIGHT)


def _sample_kde(mus: np.ndarray, bw: float, lo: float, hi: float, rng) -> float:
    if rng.uniform() < PRIOR_WEIGHT / (len(mus) + PRIOR_WEIGHT):
        return float(rng.uniform(lo, hi))
    mu = mus[int(rng.integers(len(mus)))]
    for _ in range(100):
        x = rng.normal(mu, bw)
        if lo <= x <= hi:
            return float(x)
    return float(np.clip(rng.normal(mu, bw), lo, hi))


def tpe_suggest(history: list[TrialRecord], space: Sequence[ParamSpec], rng: np.random.Generator,
                n_init: int = 10) -> dict:
    """Suggest a configuration maximizing the good/bad density ratio.

    History is split at the GAMMA quantile of the objective (higher is
    better); numeric dimensions get Gaussian KDEs truncated to their range,
    categorical ones add-one-smoothed counts. Falls back to random sampling
    with fewer than ``n_init`` scored trials.
    """
    scored = [t for t in history if t.status != "failed" and t.objective is not None]
    if len(scored) < n_init:
        return sample_random(space, rng)

    scored = sorted(scored, key=lambda t: -t.objective)
    n_good = max(1, math.ceil(GAMMA * len(scored)))
    good, bad = scored[:n_good], scored[n_good:]
    if not bad:
        bad = scored  # degenerate split: everything informs g(x)

    # what depends only on the history, fitted once per parameter: the good and
    # bad choice probabilities or densities
    fitted = {}
    for p in space:
        groups = [[t.config[p.name] for t in good], [t.config[p.name] for t in bad]]
        if p.kind == "choice":
            fitted[p.name] = []
            for values in groups:
                counts = np.ones(len(p.values))
                for v in values:
                    counts[p.values.index(v)] += 1
                fitted[p.name].append(counts / counts.sum())
        else:
            fitted[p.name] = [_fit_kde(np.array(v, dtype=float), float(p.lo), float(p.hi))
                              for v in groups]

    candidates = []
    scores = []
    for _ in range(N_CANDIDATES):
        cfg = {}
        log_ratio = 0.0
        for p in space:
            if p.kind == "choice":
                g_prob, b_prob = fitted[p.name]
                k = int(rng.choice(len(p.values), p=g_prob))
                cfg[p.name] = p.values[k]
                log_ratio += math.log(g_prob[k] / b_prob[k])
            else:
                l_kde, g_kde = fitted[p.name]
                mus, bw, _, lo, hi = l_kde
                x = _sample_kde(mus, bw, lo, hi, rng)
                if p.kind == "int_range":
                    x = float(np.clip(round(x), int(p.lo), int(p.hi)))
                l_dens = _kde_density(x, *l_kde)
                g_dens = _kde_density(x, *g_kde)
                cfg[p.name] = int(x) if p.kind == "int_range" else x
                log_ratio += math.log(max(l_dens, 1e-300)) - math.log(max(g_dens, 1e-300))
        candidates.append(cfg)
        scores.append(log_ratio)
    return candidates[int(np.argmax(scores))]


class CorruptLog(ValueError):
    """A complete line of the trials log that is not a trial record."""


def open_log(log_path, n_trials: int, resume: bool) -> tuple[list[TrialRecord], str | None]:
    """The trials logged at ``log_path`` and the torn last line dropped from it (or None).
    Without ``resume`` the log must be absent or empty; with it, an unterminated last line
    that does not parse is truncated away, and one that does gets its newline back. A
    complete line that is not a trial record, or a record whose trial_id is not its
    position in the log, raises CorruptLog; a rejected log is left as it was."""
    path = Path(log_path)
    raw = path.read_bytes() if path.exists() else b""
    if raw and not resume:
        raise ValueError(f"trials log {path} exists; pass --resume to continue")
    cut = raw.rfind(b"\n") + 1
    tail = raw[cut:].decode("utf-8", errors="replace")
    try:
        lines = raw[:cut].decode().splitlines()
        numbered = [(n, TrialRecord.from_json(line)) for n, line in enumerate(lines, 1)
                    if line.strip()]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptLog(f"corrupt trials log {path}: {exc}") from exc
    torn = None
    if tail:
        try:
            numbered.append((len(lines) + 1, TrialRecord.from_json(tail)))
        except (ValueError, KeyError, TypeError):
            torn = tail
    for position, (n, trial) in enumerate(numbered):
        if trial.trial_id != position:
            raise CorruptLog(f"corrupt trials log {path}: line {n} holds trial "
                             f"{trial.trial_id!r} where trial {position} belongs")
    trials = [trial for _, trial in numbered]
    if len(trials) > n_trials:
        raise ValueError(f"{path} holds {len(trials)} trials, more than --n-trials {n_trials}")
    if torn is not None:
        os.truncate(path, cut)
    elif tail:
        with open(path, "ab") as fh:
            fh.write(b"\n")
    return trials, torn


def run_search(
    objective,
    space: Sequence[ParamSpec],
    n_init: int = 10,
    n_trials: int = 100,
    seed: int = 0,
    trials: list[TrialRecord] | None = None,
    log=None,
) -> tuple[list[TrialRecord], dict | None]:
    """Random-then-TPE search over ``space``, maximizing ``objective``.

    ``objective(config, trial_id, seed) -> (value, status, epochs_run)``;
    pruned trials report their best value before pruning. Each trial's RNG
    is derived from (seed, trial_id), so continuing the history ``trials`` (as
    ``open_log`` returns it) yields the same sequence as an uninterrupted run.
    Each new record is written to ``log``, an open text file, as one line and flushed.
    """
    trials = list(trials or [])
    for trial_id in range(len(trials), n_trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial_id]))
        if trial_id < n_init:
            cfg = sample_random(space, rng)
        else:
            cfg = tpe_suggest(trials, space, rng, n_init=n_init)
        try:
            value, status, epochs_run = objective(cfg, trial_id, seed)
            record = TrialRecord(trial_id, cfg, float(value), status, epochs_run)
        except Exception as exc:
            record = TrialRecord(trial_id, cfg, None, "failed", 0,
                                 f"{type(exc).__name__}: {exc}")
        trials.append(record)
        if log is not None:
            log.write(record.to_json() + "\n")
            log.flush()
    scored = [t for t in trials if t.objective is not None]
    best = max(scored, key=lambda t: t.objective).config if scored else None
    return trials, best
