"""Reproduce the start-up transient that made the benchmark fix one BLAS thread.

    python3 bench/blas_transient.py

Starts PROCS fresh interpreters twice over, once with the OpenBLAS default thread
count and once with ``OPENBLAS_NUM_THREADS=1``. Each times ``data.logmel``
on a 1 s clip over its first second and over the second after it, and the
script prints, per setting, how many processes ran their first second more
than 3x slower than their second one.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROCS = 14
PROBE = """
import json, time
import numpy as np
from audioretrieval import data
cfg = data.FeatureConfig()
w = data.Waveform(np.random.default_rng(0).normal(0, 0.1, cfg.target_sr), cfg.target_sr)
start = time.perf_counter()
windows = [[], []]
while (now := time.perf_counter()) - start < 2.0:
    data.logmel(w, cfg)
    windows[int(now - start >= 1.0)].append(time.perf_counter() - now)
print(json.dumps([1e3 * float(np.median(x)) for x in windows]))
"""


def main() -> int:
    base = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    base["PYTHONPATH"] = str(ROOT / "src")
    for label, extra in (("default threads", {}), ("one thread", {"OPENBLAS_NUM_THREADS": "1"})):
        slow = 0
        for _ in range(PROCS):
            out = subprocess.run([sys.executable, "-c", PROBE], env={**base, **extra},
                                 capture_output=True, text=True, check=True, timeout=60)
            first, second = json.loads(out.stdout)
            slow += first > 3 * second
            print(f"{label}: logmel {first:.1f} ms/clip in second 1, {second:.1f} in second 2")
        print(f"{label}: {slow} of {PROCS} processes slow in their first second\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
