"""Benchmark of the audioretrieval CLI on a generated, Clotho-shaped dataset.

    python3 bench/run.py --workload train-plain --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout. The dataset for a seed is written
once under ``.bench_work/`` (outside every timed span). Each measurement runs
in a fresh interpreter (``worker.py``) with one BLAS thread:

* ``setup_s``: median of several cold starts that import the CLI, load the
  config and decode plus resample every split the workload reads; one comes
  before each round, and any left over after the last;
* rounds: the workload's CLI commands in one process, repeated while the
  next round still fits in ``--seconds``; each round's artifacts are checked.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics from traced rounds (alternating with
untraced ones, whose difference is ``trace.overhead_s``).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
KEEP_DATASETS = 6
WORKER_TIMEOUT_S = 150
sys.path.insert(1, str(SRC))  # gen builds the back-translation cache with the program's text_aug


@dataclass(frozen=True)
class Workload:
    sizes: tuple[int, int, int]  # train, val, test clips
    commands: tuple[str, ...]    # "train", "eval" or "smbo"
    config: dict                 # config sections besides paths and seed
    smbo: dict = field(default_factory=dict)

    @property
    def splits(self) -> tuple[str, ...]:
        """The splits the commands read: those with any clips."""
        return tuple(s for s, n in zip(("train", "val", "test"), self.sizes) if n)


AUGMENT_ALL = {
    "audio_aug": {"g_max": 6, "n_f": 1, "w_f": 8, "n_t": 2, "w_t": 16, "p_ms": 0.5, "alpha": 0.3},
    "text_aug": {"p_eda": 0.5, "p_syn": 0.2, "p_swp": 0.1, "p_ins": 0.1, "p_del": 0.1, "p_bt": 0.5},
}
WORKLOADS = {
    # Features computed once; per-epoch normalize/pool/forward/backward/Adam/ranking
    # dominate (traced: about twice the front end's time). Patience equals the epoch
    # count, so every run trains all epochs.
    "train-plain": Workload(
        (320, 80, 160), ("train", "eval"),
        {"optim": {"epochs": 60, "patience": 60, "lr0": 1e-3}}),
    # Same data; gain forces an STFT per clip per batch, so the front end dominates.
    "train-aug": Workload(
        (320, 80, 160), ("train", "eval"),
        {"optim": {"epochs": 3, "patience": 3, "lr0": 1e-3}, **AUGMENT_ALL}),
    # Short trials: per-trial featurization and TPE dominate. Patience 1 prunes a trial
    # whose second epoch does not improve, but every trial still runs both epochs, so
    # the work does not depend on which trials are pruned. The train split is small
    # and the val split large because the gain recomputation (train clips only)
    # depends on the g_max that TPE picks, which changes with the data seed.
    "smbo-search": Workload(
        (32, 96, 0), ("smbo",),
        {"optim": {"epochs": 2, "patience": 1, "lr0": 1e-2, "batch_size": 4}},
        {"n_init": 6, "n_trials": 10}),
}

# Metric name -> unit, as BENCHMARK.json lists them. A per-layer name is
# "<span>.<count>" with the span "<module>.<function>"; "trace.overhead_s" and
# "data.logmel.calls_per_clip" are derived.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def dataset(sizes: tuple[int, int, int], seed: int) -> Path:
    """The generated dataset for ``sizes`` and ``seed``, built on first use."""
    final = WORK / "data" / f"{'-'.join(map(str, sizes))}-seed{seed}"
    if not final.is_dir():
        tmp = final.with_name(final.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        gen.generate(tmp, seed, dict(zip(("train", "val", "test"), sizes)))
        tmp.rename(final)
    os.utime(final)
    # keep the disk use bounded: only the most recently used datasets stay
    kept = sorted(final.parent.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in kept[KEEP_DATASETS:]:
        shutil.rmtree(old, ignore_errors=True)
    return final


def write_config(wl: Workload, data: Path, run_dir: Path) -> Path:
    doc = {"seed": 0, **wl.config, "paths": {
        "out_dir": str(run_dir / "out"),
        "dataset": str(data / "train.jsonl"),
        "val_dataset": str(data / "val.jsonl"),
        "test_dataset": str(data / "test.jsonl"),
        "bt_cache": str(data / "bt_cache.jsonl"),
    }}
    path = run_dir / "config.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


def command_lines(wl: Workload, config: Path, out: Path) -> list[list[str]]:
    argv = {
        "train": ["train", "--config", str(config)],
        "eval": ["eval", "--config", str(config), "--checkpoint", str(out / "checkpoint.json"),
                 "--split", "test"],
    }
    if "smbo" in wl.commands:
        argv["smbo"] = ["smbo", "--config", str(config), "--n-init", str(wl.smbo["n_init"]),
                        "--n-trials", str(wl.smbo["n_trials"])]
    return [argv[c] for c in wl.commands]


def worker(args: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return proc


def cold_start(config: Path, splits, env: dict) -> float:
    t0 = time.perf_counter()
    worker(["setup", str(config), *splits], env)
    return time.perf_counter() - t0


@dataclass
class Round:
    wall_s: float
    train_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    clip_epochs: int = 0
    result_map10: float = 0.0
    fingerprint: str = ""
    detail: dict = field(default_factory=dict)  # what the seed fixes: epochs, trials, result
    errors: list[str] = field(default_factory=list)  # failed correctness checks
    spans: Path | None = None


def run_round(wl: Workload, config: Path, run_dir: Path, env: dict, spans: Path | None) -> Round:
    """One round of the workload's commands in a fresh worker, then its artifact checks.

    A command's artifacts are read only if it exited with 0; a command that did
    not is a failed operation and a failed check.
    """
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    args = ["run", json.dumps(command_lines(wl, config, out))] + ([str(spans)] if spans else [])
    res = json.loads(worker(args, env).stdout.strip().splitlines()[-1])
    codes = dict(zip(wl.commands, res["codes"]))
    seconds = dict(zip(wl.commands, res["seconds"]))
    rnd = Round(res["wall_s"], seconds.get("train", seconds.get("smbo")), res["peak_rss_mb"],
                attempted=len(codes), failed=sum(c != 0 for c in codes.values()), spans=spans)
    rnd.errors += [f"{c} exited with {code}" for c, code in codes.items() if code != 0]
    ok = {c for c, code in codes.items() if code == 0}
    n_train, n_val, n_test = wl.sizes
    epochs = wl.config["optim"]["epochs"]
    tests = []
    if "smbo" in codes:
        n_trials = wl.smbo["n_trials"]
        trials = checks.read_trials(out / "trials.jsonl") if "smbo" in ok else []
        rnd.attempted += n_trials
        rnd.failed += n_trials - len(trials) + sum(t["status"] == "failed" for t in trials)
        if trials:
            rnd.clip_epochs = n_train * sum(t["epochs_run"] for t in trials)
            rnd.result_map10 = max(t["objective"] or 0.0 for t in trials)
            rnd.fingerprint = json.dumps(trials)
            rnd.detail = {"trials": [[t["status"], t["epochs_run"]] for t in trials],
                          "result_map10": rnd.result_map10}
            tests.append(lambda: checks.check_search(trials, n_trials, epochs, n_val))
    if "train" in ok:
        run_result = checks.read_json(out / "run_result.json")
        rnd.failed += not all(map(math.isfinite, run_result["train_losses"]))
        rnd.clip_epochs = n_train * run_result["epochs_run"]
        rnd.fingerprint = json.dumps([run_result["train_losses"], run_result["val_maps"]])
        rnd.detail = {"epochs_run": run_result["epochs_run"]}
        tests.append(lambda: checks.check_training(run_result, epochs))
    if "eval" in ok:
        scores = checks.read_json(out / "eval_test.json")
        rnd.result_map10 = scores["map10"]
        rnd.fingerprint += json.dumps({k: scores[k] for k in ("r1", "r5", "r10", "map10")})
        rnd.detail["result_map10"] = rnd.result_map10
        tests.append(lambda: checks.check_retrieval(scores, n_test))
    for test in tests:
        try:
            test()
        except checks.CheckFailed as exc:
            rnd.errors.append(str(exc))
    return rnd


def layer_metrics(rnd: Round) -> dict[str, float]:
    totals, distinct_clips = tracer.layer_totals(rnd.spans)
    values = {}
    for name in PER_LAYER:
        span, _, count = name.rpartition(".")
        values[name] = totals.get(span, {}).get(count, 0)
    values["data.logmel.calls_per_clip"] = (
        totals.get("data.logmel", {}).get("calls", 0) / max(distinct_clips, 1))
    return values


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    data = dataset(wl.sizes, seed)
    run_dir = WORK / "runs" / f"{'-'.join(wl.commands)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config = write_config(wl, data, run_dir)
        setup: list[float] = []
        rounds: list[Round] = []
        elapsed = 0.0  # seconds spent in rounds; the cold starts come on top
        while True:
            # one cold start before each round, so that setup_s samples the same
            # stretch of time as the rounds rather than only its start
            if len(setup) < SETUP_REPEATS:
                setup.append(cold_start(config, wl.splits, env))
            # traced rounds alternate with untraced ones in the order u t t u, so that
            # drift in machine speed does not bias trace.overhead_s
            is_traced = trace and len(rounds) % 4 in (1, 2)
            spans = run_dir / f"spans-{len(rounds)}.jsonl" if is_traced else None
            t0 = time.perf_counter()
            rounds.append(run_round(wl, config, run_dir, env, spans))
            elapsed += time.perf_counter() - t0
            pair_done = not trace or len(rounds) % 2 == 0
            if pair_done and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        setup += [cold_start(config, wl.splits, env) for _ in range(SETUP_REPEATS - len(setup))]
        errors = [e for r in rounds for e in r.errors]
        if len({r.fingerprint for r in rounds}) != 1:
            errors.append("rounds of the same inputs wrote different results")
        if "eval" in wl.commands and not rounds[-1].failed:
            out = run_dir / "out"
            try:
                checks.check_reference(out / "checkpoint.json", data / "train.jsonl",
                                       data / "test.jsonl", checks.read_json(out / "eval_test.json"))
            except checks.CheckFailed as exc:
                errors.append(str(exc))
        for error in errors:
            print(f"check failed: {error}", file=sys.stderr)

        plain = [r for r in rounds if r.spans is None]
        if trace:
            traced = [r for r in rounds if r.spans is not None]
            per_round = [layer_metrics(r) for r in traced]
            values = {k: statistics.median(m[k] for m in per_round) for k in PER_LAYER}
            values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                          - statistics.median(r.wall_s for r in plain))
            units = PER_LAYER
        else:
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(r.wall_s for r in plain),
                "train_clips_per_s": statistics.median(r.clip_epochs / r.train_s for r in plain),
                "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
                "result_map10": rounds[0].result_map10,
            }
            units = END_TO_END
        print(f"{len(rounds)} rounds, setup runs {[round(s, 3) for s in setup]}, "
              f"round walls {[round(r.wall_s, 3) for r in rounds]}", file=sys.stderr)
        print(f"detail {json.dumps(rounds[0].detail)}", file=sys.stderr)
        return {
            "correct": not errors,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="audioretrieval benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "audioretrieval" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    print(json.dumps(measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
