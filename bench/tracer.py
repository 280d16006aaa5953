"""In-memory span tracer wrapped around the public functions of the program.

``install`` replaces every public function of the traced modules with a
wrapper that records one span per call: name, parent span, start and end
time, and a few counts taken from the call. A module that imported a
function by name (``trainer`` binds ``logmel``, ``backward``, ``evaluate``)
gets its binding replaced too, so those calls are seen as well. Spans stay
in memory until ``dump`` writes them out after the timed commands.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from pathlib import Path

MODULES = ("data", "audio_aug", "text_aug", "model", "trainer", "metrics", "smbo", "cli")
# CLI subcommand handlers are reported under the subcommand's name.
ALIASES = {"cli.cmd_train": "cli.train", "cli.cmd_eval": "cli.eval", "cli.cmd_smbo": "cli.smbo"}


def _logmel_counts(tracer, args, kwargs, out):
    return {"frames": out.values.shape[1]}


def _manifest_counts(tracer, args, kwargs, out):
    path = str(Path(args[0] if args else kwargs["path"]).resolve())
    tracer.clips.update((path, audio_id) for audio_id, _, _ in out.items)
    return {"clips": len(out.items), "bytes": sum(w.samples.nbytes for _, w, _ in out.items)}


def _checkpoint_counts(tracer, args, kwargs, out):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _evaluate_counts(tracer, args, kwargs, out):
    return {"queries": len(out.ranks)}


COUNTERS = {
    "data.logmel": _logmel_counts,
    "data.load_manifest": _manifest_counts,
    "model.save_checkpoint": _checkpoint_counts,
    "metrics.evaluate": _evaluate_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, counts]
        self.clips: set[tuple[str, str]] = set()  # distinct (manifest, audio id) loaded
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(self, args, kwargs, out)
            return out

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"distinct_clips": len(self.clips)}) + "\n")
            for name, parent, start, end, counts in self.spans:
                fh.write(json.dumps([name, parent, start, end, counts]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of ``MODULES`` and every by-name binding of them."""
    mods = {m: importlib.import_module(f"audioretrieval.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped[fn] = tracer.wrap(fn, ALIASES.get(name, name))
    for mod in mods.values():
        for attr, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn in wrapped:
                setattr(mod, attr, wrapped[fn])


def layer_totals(spans_path) -> tuple[dict[str, dict[str, float]], int]:
    """Per span name: self seconds, call count and summed counts; plus distinct clips.

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    with open(spans_path, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, _, start, end, counts), inner in zip(spans, child_time):
        t = totals.setdefault(name, {"s": 0.0, "calls": 0})
        t["s"] += (end - start) - inner
        t["calls"] += 1
        for key, value in (counts or {}).items():
            t[key] = t.get(key, 0) + value
    return totals, head["distinct_clips"]
