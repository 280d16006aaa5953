"""One fresh interpreter per measurement; started by ``run.py``, never imported by it.

    worker.py setup CONFIG SPLIT...     cold start: import the CLI, load the
                                        config, decode and resample the splits
    worker.py run CONFIG ARGV_JSON [SPANS]
                                        run the CLI commands in ARGV_JSON in
                                        this process; with SPANS, traced

``run`` prints one JSON line: per-command exit codes (1 for a command that
raised) and seconds, the total seconds of all commands, and the peak resident
memory of this process.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def setup(config: str, splits: list[str]) -> None:
    import audioretrieval.cli  # noqa: F401  importing the CLI is part of a cold start
    from audioretrieval import data
    from audioretrieval.config import load_config

    cfg = load_config(config)
    paths = {"train": cfg.paths.dataset, "val": cfg.paths.val_dataset,
             "test": cfg.paths.test_dataset}
    for split in splits:
        for _, w, _ in data.load_manifest(paths[split], cfg.paths.audio_root).items:
            data.resample_linear(w, cfg.features.target_sr)


def run(commands: list[list[str]], spans_path: str | None) -> dict:
    from audioretrieval import cli

    tracer = None
    if spans_path:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    codes, seconds = [], []
    start = time.perf_counter()
    for argv in commands:
        t0 = time.perf_counter()
        try:
            codes.append(cli.main(argv))
        except Exception:  # a command that raises is a failed operation, not a failed run
            traceback.print_exc()
            codes.append(1)
        seconds.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(spans_path)
    return {"codes": codes, "seconds": seconds, "wall_s": wall, "peak_rss_mb": rss_kb / 1024}


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        setup(argv[1], argv[2:])
        return 0
    if argv[0] == "run":
        result = run(json.loads(argv[1]), argv[2] if len(argv) > 2 else None)
        print(json.dumps(result))
        return 0
    print(f"unknown mode {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
