"""Command-line entry points: train, eval, smbo, augment-preview, bt-cache, synth-data."""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import audio_aug, data, metrics, model, smbo, text_aug, trainer
from .config import ConfigError, RunConfig, load_config, read_config

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3

# Free memory that glibc's malloc keeps at the top of the heap rather than trimming it.
# Preparation leaves no freed audio behind to reuse, so without a pad every training
# batch would grow the heap and fault its pages in again after the last one trimmed it.
HEAP_TOP_PAD = 16 << 20
_M_TOP_PAD = -2  # mallopt's parameter number for it (malloc.h)


class CommandError(Exception):
    """A command that cannot go on: ``main`` prints ``error: <message>``, exits with ``code``."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load_split(cfg: RunConfig, split: str) -> Iterable[tuple[str, data.Waveform, list[str]]]:
    """The split's items, generated (synthetic) or read from the manifest one record at a
    time; no clip is made or decoded before the first item is drawn."""
    if cfg.data is not None:
        spec = cfg.data
        # split-specific seed offsets keep the three sets disjoint
        return data.synth_dataset(
            spec.n_classes, getattr(spec, f"n_{split}"),
            cfg.seed * 3 + ("train", "val", "test").index(split), split=split,
            sample_rate=spec.sample_rate, duration=spec.duration,
            captions_per_item=spec.captions_per_item,
        )
    path = {"train": cfg.paths.dataset, "val": cfg.paths.val_dataset, "test": cfg.paths.test_dataset}[split]
    if path is None:
        raise ConfigError(f"paths.{'dataset' if split == 'train' else split + '_dataset'}: required")
    return data.iter_manifest(path, cfg.paths.audio_root)


def _provider_and_lexicon(cfg: RunConfig):
    """The back-translation cache (or None) and the synonym lexicon (by default the
    bundled one) that ``paths`` names; a file that cannot be used is a ConfigError."""
    def load(key, loader):
        path = getattr(cfg.paths, key)
        try:
            return loader(path) if path else None
        except (OSError, ValueError) as exc:
            raise ConfigError(f"paths.{key}: {exc}") from exc

    provider = load("bt_cache", text_aug.TranslationCache.load)
    lexicon = load("synonym_lexicon", text_aug.SynonymLexicon.load)
    return provider, lexicon or text_aug.SynonymLexicon.bundled()


def _write_metrics_csv(path, result: trainer.RunResult) -> None:
    lines = ["epoch,train_loss,val_map10"]
    for e, (loss, vmap) in enumerate(zip(result.train_losses, result.val_maps)):
        lines.append(f"{e},{loss:.17g},{vmap:.17g}")
    data.write_atomic(path, "\n".join(lines) + "\n")


def _out_dir(path, name: str = "paths.out_dir") -> Path:
    """The directory that the config key or flag ``name`` gives, made if missing; one that
    cannot be a directory is a CommandError. Commands make it before decoding any clip."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CommandError(f"{name}: {out_dir}: {exc.strerror}") from exc
    return out_dir


def _out_file(path, flag: str) -> Path:
    """The output file ``path`` that ``flag`` gives; one that is a directory or whose
    directory is missing is a CommandError. Commands check it before their work."""
    path = Path(path)
    if path.is_dir() or not path.parent.is_dir():
        reason = "Is a directory" if path.is_dir() else f"no directory {path.parent}"
        raise CommandError(f"{flag}: {path}: {reason}")
    return path


def _read_text(path: Path, flag: str) -> str:
    """The UTF-8 text of the file that ``flag`` names; one that is not is a CommandError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CommandError(f"{flag}: {path}: not UTF-8 text: {exc.reason}") from exc


def cmd_train(args) -> int:
    cfg, digest = read_config(args.config)
    out_dir = _out_dir(cfg.paths.out_dir)
    back_translates = cfg.text_aug.p_bt > 0
    with _training(cfg, out_dir, cfg.audio_aug.n_t > 0,
                   "text_aug.p_bt > 0 needs paths.bt_cache" if back_translates else None) as run:
        try:
            result = run(cfg.audio_aug, cfg.text_aug, cfg.seed, out_dir / "checkpoint.json")
        except ValueError as exc:
            raise CommandError(str(exc)) from exc
        except FloatingPointError as exc:
            raise CommandError(str(exc), EXIT_FAILED) from exc
    doc = result.as_dict()
    doc["config_hash"] = digest
    doc["environment"] = _environment()
    data.write_atomic(out_dir / "run_result.json", json.dumps(doc, indent=1))
    _write_metrics_csv(out_dir / "metrics.csv", result)
    print(f"best val mAP@10 {result.best_val_map:.4f} at epoch {result.best_epoch} "
          f"({result.epochs_run} epochs run)")
    return EXIT_OK


def _environment() -> dict:
    """What fixes a run's bytes besides its config: the numpy version, the name and version
    of its BLAS (None where numpy cannot say) and each BLAS thread variable (None if unset)."""
    try:  # numpy < 1.25 has no mode; a build may name no BLAS
        blas = {key: np.show_config(mode="dicts")["Build Dependencies"]["blas"][key]
                for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"numpy": np.__version__, "blas": blas, **{v: os.environ.get(v) for v in threads}}


@contextlib.contextmanager
def _training(cfg: RunConfig, out_dir: Path, keep_frames: bool, no_cache_error: str | None):
    """Prepare the splits once; yield ``run(audio_cfg, text_cfg, seed, checkpoint_path=None)``.
    A run that can back-translate passes the error for a missing ``paths.bt_cache`` (None:
    no cache); one that can time-stripe keeps the training frames in out_dir, in a
    FrameStore that is opened and closed here and nowhere else."""
    provider, lexicon = _provider_and_lexicon(cfg)
    items = _load_split(cfg, "train")  # a missing manifest path raises here; no clip is made
    if no_cache_error is None:  # no batch draws a back translation: keep none of the cache
        provider = None
    elif provider is None:
        raise ConfigError(no_cache_error)
    with (contextlib.closing(trainer.FrameStore(out_dir, cfg.features.n_mels)) if keep_frames
          else contextlib.nullcontext()) as frames:
        train = trainer.prepare_split(items, cfg.features, frames)
        if provider is not None:  # a missing pair would stop training in the batch drawing it
            for pair in ((c, p) for caps in train.captions for c in caps for p in text_aug.PIVOTS):
                if pair not in provider.entries:
                    raise ConfigError(f"paths.bt_cache: {cfg.paths.bt_cache}: no entry for "
                                      f"{pair!r}; every training caption needs one per pivot")
        val = trainer.prepare_split(_load_split(cfg, "val"), cfg.features)
        try:  # before any run: a search on these splits would fail every trial
            trainer.check_splits(train, val)
        except ValueError as exc:
            raise CommandError(str(exc)) from exc

        def run(audio_cfg, text_cfg, seed: int, checkpoint_path=None) -> trainer.RunResult:
            return trainer.train_run(train, val, cfg.model, audio_cfg, text_cfg, cfg.optim, seed,
                                     provider=provider, lexicon=lexicon,
                                     checkpoint_path=checkpoint_path)
        yield run


def cmd_eval(args) -> int:
    cfg, digest = read_config(args.config)
    # the checkpoint is read and checked first: decoding the split costs far more
    try:
        params, stats, vocab, feat = model.load_checkpoint(args.checkpoint)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CommandError(f"cannot read checkpoint: {exc}") from exc
    sidecar = _out_file(args.out or Path(args.checkpoint).parent / f"eval_{args.split}.json",
                        "--out")
    split = trainer.prepare_split(_load_split(cfg, args.split), feat)  # as the model was trained
    if len(split) == 0:
        raise CommandError(f"split {args.split!r} is empty")
    tokens, targets = trainer.caption_queries(split, vocab)
    result = trainer.score_split(split, tokens, targets, params, stats)
    print(metrics.metrics_table({args.split: result}))
    doc = result.as_dict()
    doc["config_hash"] = digest
    data.write_atomic(sidecar, json.dumps(doc, indent=1))
    return EXIT_OK


def cmd_smbo(args) -> int:
    for flag, value in (("--n-trials", args.n_trials), ("--n-init", args.n_init)):
        if value < 1:
            raise CommandError(f"{flag}: must be >= 1, got {value}")
    cfg = load_config(args.config)
    out_dir = _out_dir(cfg.paths.out_dir)
    log_path = out_dir / "trials.jsonl"
    try:  # the log's errors come before any clip is featurized
        logged, torn = smbo.open_log(log_path, args.n_trials, args.resume)
    except ValueError as exc:
        code = EXIT_CORRUPT if isinstance(exc, smbo.CorruptLog) else EXIT_USAGE
        raise CommandError(str(exc), code) from exc
    if torn is not None:
        print(f"warning: dropped the torn last line of {log_path}: {torn!r}", file=sys.stderr)

    # the log is opened once the splits are prepared: a failed preparation makes no log
    with _training_objective(cfg, out_dir) as objective, open(log_path, "a") as log:
        _, best = smbo.run_search(
            objective, smbo.SPACE, n_init=args.n_init,
            n_trials=args.n_trials, seed=cfg.seed, trials=logged, log=log,
        )
    if best is None:
        raise CommandError("all trials failed", EXIT_FAILED)
    width = max(len(k) for k in best)
    print(f"{'parameter':<{width}}  best")
    for name in best:
        value = best[name]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{name:<{width}}  {shown}")
    return EXIT_OK


@contextlib.contextmanager
def _training_objective(cfg: RunConfig, out_dir: Path):
    """A trial is a training run with its values; the space samples ``n_t`` and ``p_bt``."""
    with _training(cfg, out_dir, True, "the search space can sample p_bt > 0, which needs "
                   "paths.bt_cache") as run:
        def objective(trial_cfg: dict, trial_id: int, seed: int):
            audio_cfg, text_cfg = (C(**{f.name: trial_cfg[f.name] for f in fields(C)})
                                   for C in (audio_aug.AudioAugConfig, text_aug.TextAugConfig))
            result = run(audio_cfg, text_cfg, seed * 100003 + trial_id)
            status = "pruned" if result.stopped_early else "completed"
            return result.best_val_map, status, result.epochs_run

        yield objective


def cmd_augment_preview(args) -> int:
    if args.seed < 0:
        raise CommandError(f"--seed: must be >= 0, got {args.seed}")
    cfg = load_config(args.config)
    rng = np.random.default_rng(args.seed)
    if args.mode == "text":
        raw = args.input
        if os.path.isfile(raw):
            raw = _read_text(Path(raw), "--input").strip()
        provider, lexicon = _provider_and_lexicon(cfg)
        if provider is None:
            provider = text_aug.mock_provider
        pair = (raw, text_aug.PIVOTS[int(rng.integers(3))]) if cfg.text_aug.p_bt > 0 else None
        try:
            bt = provider(*pair) if pair else raw
        except KeyError:  # a cache without the pair: the mock provider has every one
            raise ConfigError(f"paths.bt_cache: {cfg.paths.bt_cache}: no entry for {pair!r}") \
                from None
        words = data.preprocess_caption(bt).split()
        vocab = data.build_vocab([" ".join(words)])
        print(f"{'Original':<16} {raw}")
        print(f"{'Back Translation':<16} {bt}")
        for op in ("insert", "delete", "swap", "synonym"):
            out = text_aug.apply_eda_op(words, op, cfg.text_aug, lexicon, vocab, rng)
            print(f"{op.capitalize():<16} {' '.join(out)}")
        return EXIT_OK
    # --mode audio (argparse admits only the two modes)
    if not os.path.isfile(args.input):
        raise CommandError(f"input {args.input} not found")
    out_dir = _out_dir(cfg.paths.out_dir)
    try:
        w = data.resample_linear(data.load_wav(args.input), cfg.features.target_sr)
        before = data.logmel(w, cfg.features).values
    except ValueError as exc:
        raise CommandError(f"cannot use {args.input}: {exc}") from exc
    # the draws training makes for one clip, in its order: the gain, then the stripes
    acfg = cfg.audio_aug
    shift = audio_aug.LOG_MEL_PER_DB * audio_aug.sample_gain(rng, acfg.g_max)
    bins, frames = audio_aug.stripe_masks(*before.shape, acfg.n_f, acfg.w_f, acfg.n_t, acfg.w_t,
                                          rng)
    np.savetxt(out_dir / "preview_before.csv", before, delimiter=",")
    np.savetxt(out_dir / "preview_after.csv", np.where(np.outer(bins, frames), before + shift, 0.0),
               delimiter=",")
    print(f"wrote {out_dir}/preview_before.csv and preview_after.csv")
    return EXIT_OK


def cmd_bt_cache(args) -> int:
    captions_path = Path(args.captions)
    if not captions_path.is_file():
        raise CommandError(f"captions file {captions_path} not found")
    captions = [line.strip() for line in _read_text(captions_path, "--captions").splitlines()
                if line.strip()]
    out = _out_file(args.out, "--out")
    try:  # the stand-in provider never fails; a ValueError is an existing cache that is malformed
        new, _ = text_aug.cache_build(captions, text_aug.PIVOTS, text_aug.mock_provider, out)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    print(f"{new} new entries")
    return EXIT_OK


def cmd_synth_data(args) -> int:
    cfg = load_config(args.config)
    if cfg.data is None:
        raise CommandError("data.synthetic: required for synth-data")
    out_dir = _out_dir(args.out, "--out")
    for split in ("train", "val", "test"):
        (out_dir / split).mkdir(parents=True, exist_ok=True)
        # the manifest appears only once every WAV it names is written
        data.write_atomic(out_dir / f"{split}.jsonl",
                          _saved_clip_lines(_load_split(cfg, split), out_dir, split))
        print(f"{split}: {getattr(cfg.data, f'n_{split}')} items")
    return EXIT_OK


def _saved_clip_lines(ds, out_dir: Path, split: str) -> Iterable[str]:
    """Save each clip of ``ds`` as ``<out_dir>/<split>/<id>.wav`` and yield its manifest line."""
    for audio_id, w, caps in ds:
        rel = f"{split}/{audio_id}.wav"
        data.save_wav(out_dir / rel, w)
        yield json.dumps({"audio": rel, "captions": caps}) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="audioretrieval")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run contrastive training")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("smbo", help="hyperparameter search")
    p.add_argument("--config", required=True)
    p.add_argument("--n-init", type=int, default=10)
    p.add_argument("--n-trials", type=int, default=100)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_smbo)

    p = sub.add_parser("augment-preview", help="show augmentations on one input")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", required=True, choices=["audio", "text"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_augment_preview)

    p = sub.add_parser("bt-cache", help="write the stand-in back-translation cache")
    p.add_argument("--captions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bt_cache)

    p = sub.add_parser("synth-data", help="write a synthetic dataset to disk")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_data)
    return parser


def _pad_heap_top() -> None:
    """Have glibc's malloc keep HEAP_TOP_PAD bytes above the heap top (a no-op
    without ``mallopt``)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TOP_PAD, HEAP_TOP_PAD)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pad_heap_top()
    try:
        return args.func(args)
    except (CommandError, ConfigError, data.ManifestError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CommandError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
