"""Command-line entry points: train, eval, smbo, augment-preview, bt-cache, synth-data."""
from __future__ import annotations

import argparse
import json
import os
import sys
import urllib.request
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import audio_aug, data, metrics, model, smbo, text_aug, trainer
from .config import ConfigError, RunConfig, config_hash, load_config

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CORRUPT = 3
EXIT_EXTERNAL = 4


def _load_split(cfg: RunConfig, split: str) -> data.PairedDataset:
    if cfg.data is not None:  # synthetic
        spec = cfg.data
        n = {"train": spec.n_train, "val": spec.n_val, "test": spec.n_test}[split]
        # split-specific seed offsets keep the three sets disjoint
        offset = {"train": 0, "val": 1, "test": 2}[split]
        return data.synth_dataset(
            spec.n_classes, n, cfg.seed * 3 + offset, split=split,
            sample_rate=spec.sample_rate, duration=spec.duration,
            captions_per_item=spec.captions_per_item,
        )
    path = {"train": cfg.paths.dataset, "val": cfg.paths.val_dataset, "test": cfg.paths.test_dataset}[split]
    if path is None:
        raise ConfigError(f"paths.{'dataset' if split == 'train' else split + '_dataset'}: required")
    return data.load_manifest(path, cfg.paths.audio_root)


def _provider_and_lexicon(cfg: RunConfig):
    provider = None
    if cfg.paths.bt_cache:
        provider = text_aug.TranslationCache.load(cfg.paths.bt_cache)
    if cfg.paths.synonym_lexicon:
        lexicon = text_aug.SynonymLexicon.load(cfg.paths.synonym_lexicon)
    else:
        lexicon = text_aug.SynonymLexicon.bundled()
    return provider, lexicon


def _write_metrics_csv(path, result: trainer.RunResult) -> None:
    lines = ["epoch,train_loss,val_map10"]
    for e, (loss, vmap) in enumerate(zip(result.train_losses, result.val_maps)):
        lines.append(f"{e},{loss:.17g},{vmap:.17g}")
    data.write_atomic(path, "\n".join(lines) + "\n")


def _prepared(cfg: RunConfig, split: str) -> trainer.PreparedSplit:
    return trainer.prepare_split(_load_split(cfg, split), cfg.features)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train = _prepared(cfg, "train")
    val = _prepared(cfg, "val")
    provider, lexicon = _provider_and_lexicon(cfg)
    out_dir = Path(cfg.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.json"
    optim = replace(cfg.optim, seed=cfg.seed)
    try:
        result = trainer.train_run(
            train, val, cfg.model, cfg.audio_aug, cfg.text_aug, optim,
            provider=provider, lexicon=lexicon, checkpoint_path=ckpt,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc = result.as_dict()
    doc["config_hash"] = config_hash(args.config)
    data.write_atomic(out_dir / "run_result.json", json.dumps(doc, indent=1))
    _write_metrics_csv(out_dir / "metrics.csv", result)
    print(f"best val mAP@10 {result.best_val_map:.4f} at epoch {result.best_epoch} "
          f"({result.epochs_run} epochs run)")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    split = _prepared(cfg, args.split)
    if len(split) == 0:
        print(f"error: split {args.split!r} is empty", file=sys.stderr)
        return EXIT_USAGE
    try:
        params, _, stats, vocab, feat = model.load_checkpoint(args.checkpoint)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read checkpoint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for f in fields(feat):
        mine, trained = getattr(cfg.features, f.name), getattr(feat, f.name)
        if mine != trained:
            print(f"error: features.{f.name} is {mine!r} in the config but {trained!r} "
                  f"in the checkpoint", file=sys.stderr)
            return EXIT_USAGE
    tokens, targets = trainer.caption_queries(split, vocab)
    result = trainer.score_split(split, tokens, targets, params, stats)
    print(metrics.metrics_table({args.split: result}))
    sidecar = Path(args.out or (Path(args.checkpoint).parent / f"eval_{args.split}.json"))
    doc = result.as_dict()
    doc["config_hash"] = config_hash(args.config)
    data.write_atomic(sidecar, json.dumps(doc, indent=1))
    return EXIT_OK


def _toy_quadratic_objective(cfg: dict, trial_id: int, seed: int):
    space_names = sorted(cfg)
    x = np.array([float(cfg[k]) for k in space_names])
    target = np.full(len(x), 0.7)
    value = -float(((x - target) ** 2).sum())
    return value, "completed", 1


def cmd_smbo(args) -> int:
    if args.n_trials <= 0 or args.n_init <= 0:
        print("error: n-trials and n-init must be positive", file=sys.stderr)
        return EXIT_USAGE
    cfg = load_config(args.config)
    if args.space:
        try:
            space = smbo.SearchSpace.from_json(args.space)
        except (ValueError, OSError) as exc:
            print(f"error: invalid search space: {exc}", file=sys.stderr)
            return EXIT_USAGE
    elif args.objective == "synthetic-quadratic":
        space = smbo.SearchSpace([
            smbo.ParamSpec("x", "uniform_float", 0.0, 1.0),
            smbo.ParamSpec("y", "uniform_float", 0.0, 1.0),
        ])
    else:
        space = smbo.default_search_space()

    out_dir = Path(cfg.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "trials.jsonl"
    if args.resume and log_path.exists():
        torn = smbo.drop_torn_tail(log_path)
        if torn is not None:
            print(f"warning: dropped the torn last line of {log_path}: {torn!r}", file=sys.stderr)
        try:
            smbo.load_trials(log_path)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"error: corrupt trials log {log_path}: {exc}", file=sys.stderr)
            return EXIT_CORRUPT

    if args.objective == "synthetic-quadratic":
        objective = _toy_quadratic_objective
    else:
        objective = _training_objective(cfg)

    trials, best = smbo.run_search(
        objective, space, n_init=args.n_init, n_trials=args.n_trials,
        seed=cfg.seed, log_path=log_path, resume=args.resume,
    )
    if best is None:
        print("error: all trials failed", file=sys.stderr)
        return 1
    width = max(len(k) for k in best)
    print(f"{'parameter':<{width}}  best")
    for name in best:
        value = best[name]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{name:<{width}}  {shown}")
    return EXIT_OK


def _training_objective(cfg: RunConfig):
    # every trial trains on the same clips: featurize them once for all trials
    train = _prepared(cfg, "train")
    val = _prepared(cfg, "val")
    provider, lexicon = _provider_and_lexicon(cfg)

    def objective(trial_cfg: dict, trial_id: int, seed: int):
        audio_cfg = audio_aug.AudioAugConfig(
            g_max=int(trial_cfg["g_max"]), n_f=int(trial_cfg["n_f"]),
            w_f=int(trial_cfg["w_f"]), n_t=int(trial_cfg["n_t"]),
            w_t=int(trial_cfg["w_t"]), p_ms=float(trial_cfg["p_ms"]),
            alpha=max(float(trial_cfg["alpha"]), 1e-3),
        )
        text_cfg = text_aug.TextAugConfig(
            p_eda=float(trial_cfg["p_eda"]), p_syn=float(trial_cfg["p_syn"]),
            p_swp=float(trial_cfg["p_swp"]), p_ins=float(trial_cfg["p_ins"]),
            p_del=float(trial_cfg["p_del"]), p_bt=float(trial_cfg["p_bt"]),
        )
        optim = replace(cfg.optim, seed=seed * 100003 + trial_id)
        result = trainer.train_run(
            train, val, cfg.model, audio_cfg, text_cfg, optim,
            provider=provider, lexicon=lexicon,
        )
        status = "pruned" if result.stopped_early else "completed"
        return result.best_val_map, status, result.epochs_run

    return objective


def cmd_augment_preview(args) -> int:
    cfg = load_config(args.config)
    rng = np.random.default_rng(args.seed)
    if args.mode == "text":
        raw = args.input
        if os.path.isfile(raw):
            raw = Path(raw).read_text().strip()
        provider, lexicon = _provider_and_lexicon(cfg)
        if provider is None:
            provider = text_aug.mock_provider
        tcfg = cfg.text_aug or text_aug.TextAugConfig()
        bt = provider(raw, text_aug.PIVOTS[int(rng.integers(3))]) if tcfg.p_bt > 0 else raw
        words = data.preprocess_caption(bt).split()
        vocab = data.build_vocab([" ".join(words)])
        print(f"{'Original':<16} {raw}")
        print(f"{'Back Translation':<16} {bt}")
        for op in ("insert", "delete", "swap", "synonym"):
            out = text_aug.apply_eda_op(words, op, tcfg, lexicon, vocab, rng)
            print(f"{op.capitalize():<16} {' '.join(out)}")
        return EXIT_OK
    if args.mode == "audio":
        if not os.path.isfile(args.input):
            print(f"error: input {args.input} not found", file=sys.stderr)
            return EXIT_USAGE
        w = data.resample_linear(data.load_wav(args.input), cfg.features.target_sr)
        mel_before = data.logmel(w, cfg.features)
        acfg = cfg.audio_aug or audio_aug.AudioAugConfig()
        g = audio_aug.sample_gain(rng, acfg.g_max)
        mel_after = audio_aug.gain_logmel(mel_before, g, cfg.features.log_floor)
        mel_after = audio_aug.spec_augment(mel_after, acfg.n_f, acfg.w_f, acfg.n_t, acfg.w_t, rng)
        out_dir = Path(cfg.paths.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        np.savetxt(out_dir / "preview_before.csv", mel_before.values, delimiter=",")
        np.savetxt(out_dir / "preview_after.csv", mel_after.values, delimiter=",")
        print(f"wrote {out_dir}/preview_before.csv and preview_after.csv")
        return EXIT_OK
    print(f"error: unknown mode {args.mode!r}", file=sys.stderr)
    return EXIT_USAGE


def _http_provider(base_url: str, api_key: str):
    def provider(text: str, pivot: str) -> str:
        req = urllib.request.Request(
            base_url,
            data=json.dumps({"text": text, "pivot": pivot}).encode(),
            headers={"Content-Type": "application/json", "Authorization": f"Bearer {api_key}"},
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            return json.loads(resp.read())["result"]
    return provider


def cmd_bt_cache(args) -> int:
    captions_path = Path(args.captions)
    if not captions_path.is_file():
        print(f"error: captions file {captions_path} not found", file=sys.stderr)
        return EXIT_USAGE
    captions = [line.strip() for line in captions_path.read_text().splitlines() if line.strip()]
    if args.mock:
        provider = text_aug.mock_provider
    else:
        base_url = os.environ.get("AUDIORETRIEVAL_BT_URL")
        api_key = os.environ.get("AUDIORETRIEVAL_BT_KEY", "")
        if not base_url:
            print("error: set AUDIORETRIEVAL_BT_URL or pass --mock", file=sys.stderr)
            return EXIT_USAGE
        provider = _http_provider(base_url, api_key)
    new, failures = text_aug.cache_build(captions, text_aug.PIVOTS, provider, args.out)
    print(f"{new} new entries")
    if failures:
        for caption, pivot in failures:
            print(f"failed: ({caption!r}, {pivot!r})", file=sys.stderr)
        return EXIT_EXTERNAL
    return EXIT_OK


def cmd_synth_data(args) -> int:
    cfg = load_config(args.config)
    if cfg.data is None:
        print("error: data.synthetic: required for synth-data", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out)
    for split in ("train", "val", "test"):
        ds = _load_split(cfg, split)
        split_dir = out_dir / split
        split_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{split}.jsonl", "w") as fh:
            for audio_id, w, caps in ds.items:
                rel = f"{split}/{audio_id}.wav"
                data.save_wav(out_dir / rel, w)
                fh.write(json.dumps({"audio": rel, "captions": caps}) + "\n")
        print(f"{split}: {len(ds)} items")
    return EXIT_OK


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
    p.add_argument("--space", default=None, help="search space JSON (default: built-in)")
    p.add_argument("--n-init", type=int, default=10)
    p.add_argument("--n-trials", type=int, default=100)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--objective", default="train", choices=["train", "synthetic-quadratic"])
    p.set_defaults(func=cmd_smbo)

    p = sub.add_parser("augment-preview", help="show augmentations on one input")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", required=True, choices=["audio", "text"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_augment_preview)

    p = sub.add_parser("bt-cache", help="build the back-translation cache")
    p.add_argument("--captions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mock", action="store_true")
    p.set_defaults(func=cmd_bt_cache)

    p = sub.add_parser("synth-data", help="write a synthetic dataset to disk")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
