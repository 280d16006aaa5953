"""Steadiness self-check: two sets of benchmark runs of the same code, compared.

    python3 bench/steady.py

Two sets, one after the other, each run ``run.py`` once per seed 1..RUNS (10) on
every workload in ``BENCHMARK.json``. For each workload and end-to-end metric,
``setup_s`` included, it prints each set's median and quartiles, the spread
(interquartile distance over the median), and whether both spreads and the
shift of the second set's median from the first, in either direction, stay
within the metric's bound. It also prints whether the per-seed details that the
seed fixes (epochs, trial statuses and epochs, result_map10) repeat exactly
between the sets, and whether the share of failed operations is the same in
every run.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def one_run(spec: dict, workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = [line[len("detail "):] for line in proc.stderr.splitlines() if line.startswith("detail ")]
    return result, json.loads(details[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, RUNS + 1)

    sets = []  # sets[i][workload] = list of (result, details) per seed
    for _ in range(2):
        runs = {}
        for w in workloads:
            runs[w] = []
            for seed in seeds:
                result, details = one_run(spec, w, seed)
                runs[w].append((result, details))
                shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"set {len(sets) + 1} {w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        sets.append(runs)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = [spread([r["metrics"][name]["value"] for r, _ in s[w]]) for s in sets]
            line = f"  {name:18s}" + "".join(
                f" | set{i + 1} med {med:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {sp:.3f}"
                for i, (q1, med, q3, sp) in enumerate(stats))
            shift = (stats[1][1] - stats[0][1]) / stats[0][1] * (1 if lower else -1)
            line += f" | worse by {shift:+.3f}"
            steady = all(sp <= bound for *_, sp in stats) and abs(shift) <= bound
            print(f"{line} | bound {bound} {'OK' if steady else 'OUT'}")
            ok = ok and steady
        for i, s in enumerate(sets):
            correct = all(r["correct"] for r, _ in s[w])
            print(f"  set{i + 1}: all correct {correct}")
            ok = ok and correct
        shares = {r["failed"] / r["attempted"] for s in sets for r, _ in s[w]}
        print(f"  failed share in every run: {sorted(shares)}")
        same = [d0 == d1 for (_, d0), (_, d1) in zip(sets[0][w], sets[1][w])]
        print(f"  epochs, trials and result_map10 repeat exactly per seed: {all(same)}")
        ok = ok and len(shares) == 1 and all(same)
    print("\nSTEADY" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
