"""Command-line entry point.

Every subcommand wraps exactly one library operation, takes ``--out-dir``,
and drops a ``config.json`` snapshot of the resolved configuration (out-dir
excluded) into it, so any run can be re-launched byte-identically with
``--config <run>/config.json``. Resolution order: built-in defaults, then the
config file, then explicit flags.

Exit codes: 0 success, 2 usage/validation problems (unknown flags, missing
paths, bad config), 1 runtime failure. Failures print one machine-parseable
JSON record to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .artifacts import VERSION, read_json, write_json, write_text
from .corpus import CorpusGenConfig, generate_corpus, load_manifest, save_manifest
from .errors import (
    ConfigurationError,
    InsufficientProbeError,
    ManifestError,
)
from .metrics import histogram
from .model import TrainConfig, load_checkpoint
from .pipeline import (
    ESTIMATE_FIELDS,
    ESTIMATE_SCHEMA,
    FILTER_MODES,
    SWEEP_FIELDS,
    SWEEP_SCHEMA,
    IplConfig,
    IterationReport,
    RunWriter,
    estimate_threshold,
    load_reports,
    run_ipl,
    run_summary,
    sweep_threshold,
    train_teacher,
    write_histogram,
    write_scatter,
)
from .pseudolabel import (
    ThresholdSchedule,
    annotate_oracle_wer,
    generate_pseudolabels,
    load_pseudolabels,
    save_pseudolabels,
    score_filter,
    wer_filter,
)

CONFIG_SCHEMA = "run-config"
_SNAPSHOT_FIELDS = {"command": str, "config": dict}

_USAGE_ERRORS = (ConfigurationError, ManifestError, InsufficientProbeError, FileNotFoundError)

# One table per command: config key -> (flag type, default). The key names
# the --flag and the config.json entry; the type is int, float, str, bool
# (a --flag/--no-flag pair) or a tuple of choices. Every command also takes
# --seed; the ones whose table has no "seed" accept it and ignore it.
_GEN = CorpusGenConfig()
_TRAIN = TrainConfig()
_IPL = IplConfig()
_SCHEDULE = ThresholdSchedule(initial=-0.05, step=0.03)

_TRAIN_FLAGS = {
    "corpus": (str, None),
    "seed": (int, _IPL.seed),
    "hidden_dim": (int, _IPL.hidden_dim),
    "epochs": (int, _TRAIN.epochs),
    "batch_size": (int, _TRAIN.batch_size),
    "base_lr": (float, _TRAIN.base_lr),
    "optimizer": (("adam", "sgd"), _TRAIN.optimizer),
    "warmup_frac": (float, _TRAIN.warmup_frac),
    "hold_frac": (float, _TRAIN.hold_frac),
}

_FLAGS = {
    "gen-corpus": {
        "seed": (int, 0),
        "vocab_size": (int, _GEN.vocab_size),
        "feature_dim": (int, _GEN.feature_dim),
        "label_len_min": (int, _GEN.label_len[0]),
        "label_len_max": (int, _GEN.label_len[1]),
        "frames_per_token_min": (int, _GEN.frames_per_token[0]),
        "frames_per_token_max": (int, _GEN.frames_per_token[1]),
        "noise_sigma": (float, _GEN.noise_sigma),
        "n_labeled": (int, _GEN.n_labeled),
        "n_unlabeled": (int, _GEN.n_unlabeled),
        "n_dev": (int, _GEN.n_dev),
        "n_test": (int, _GEN.n_test),
    },
    "train-teacher": _TRAIN_FLAGS,
    "pseudolabel": {
        "corpus": (str, None),
        "model": (str, None),
        "exclude_blank": (bool, _IPL.exclude_blank_scores),
        "annotate_oracle": (bool, False),
    },
    "filter": {
        "pseudo_labels": (str, None),
        "corpus": (str, None),
        "score_threshold": (float, None),
        "max_wer": (float, None),
    },
    "ipl": {
        **_TRAIN_FLAGS,
        "iter_max": (int, _IPL.iter_max),
        "filter_mode": (FILTER_MODES, _IPL.filter_mode),
        "score_threshold": (float, _IPL.score_threshold),
        "max_wer": (float, _IPL.max_wer),
        "warm_start": (bool, _IPL.warm_start),
        "pseudo_weight": (float, _IPL.pseudo_weight),
        "exclude_blank": (bool, _IPL.exclude_blank_scores),
    },
    "sweep": {
        **_TRAIN_FLAGS,
        "initial": (float, _SCHEDULE.initial),
        "step": (float, _SCHEDULE.step),
        "iters_per_update": (int, _SCHEDULE.iterations_per_update),
        "max_updates": (int, 8),
    },
    "estimate-threshold": {
        **_TRAIN_FLAGS,
        "model": (str, None),
        "max_wer": (float, 0.10),
        "coverage": (float, 0.9),
        "min_probe": (int, 20),
        "probe": (("dev", "labeled"), "dev"),
        "probe_size": (int, None),
        "exclude_blank": (bool, _IPL.exclude_blank_scores),
        "bins": (int, 20),
    },
    "report": {"run_dir": (str, None), "bins": (int, 20)},
}


def _resolve(command: str, args: argparse.Namespace) -> dict:
    cfg = {key: default for key, (_, default) in _FLAGS[command].items()}
    if getattr(args, "config", None):
        path = Path(args.config)
        snap = read_json(path, ConfigurationError, CONFIG_SCHEMA, _SNAPSHOT_FIELDS)
        if snap["command"] != command:
            raise ConfigurationError(
                f"{path}: snapshot is for command {snap['command']!r}, not {command!r}"
            )
        for key, value in snap["config"].items():
            if key not in cfg:
                raise ConfigurationError(f"{path}: unknown config key {key!r}")
            cfg[key] = value
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _write_snapshot(out_dir: Path, command: str, cfg: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.json",
               {"schema": CONFIG_SCHEMA, "version": VERSION, "command": command, "config": cfg})


def _require(cfg: dict, key: str, command: str):
    if cfg[key] is None:
        raise ConfigurationError(f"{command}: --{key.replace('_', '-')} is required")
    return cfg[key]


def _load_corpus(cfg: dict, command: str):
    path = Path(_require(cfg, "corpus", command))
    if not path.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {path}")
    return load_manifest(path)


def _gen_config(cfg: dict) -> CorpusGenConfig:
    return CorpusGenConfig(
        vocab_size=cfg["vocab_size"],
        feature_dim=cfg["feature_dim"],
        label_len=(cfg["label_len_min"], cfg["label_len_max"]),
        frames_per_token=(cfg["frames_per_token_min"], cfg["frames_per_token_max"]),
        noise_sigma=cfg["noise_sigma"],
        n_labeled=cfg["n_labeled"],
        n_unlabeled=cfg["n_unlabeled"],
        n_dev=cfg["n_dev"],
        n_test=cfg["n_test"],
    )


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        base_lr=cfg["base_lr"],
        warmup_frac=cfg["warmup_frac"],
        hold_frac=cfg["hold_frac"],
        seed=cfg["seed"],
        optimizer=cfg["optimizer"],
    )


def _ipl_config(cfg: dict, **ipl) -> IplConfig:
    return IplConfig(
        train=_train_config(cfg), seed=cfg["seed"], hidden_dim=cfg["hidden_dim"], **ipl
    )


def cmd_gen_corpus(args) -> int:
    cfg = _resolve("gen-corpus", args)
    out = Path(args.out_dir)
    splits = generate_corpus(_gen_config(cfg), seed=cfg["seed"])
    _write_snapshot(out, "gen-corpus", cfg)
    save_manifest(splits, out)
    return 0


def cmd_train_teacher(args) -> int:
    cfg = _resolve("train-teacher", args)
    splits = _load_corpus(cfg, "train-teacher")
    out = Path(args.out_dir)
    _write_snapshot(out, "train-teacher", cfg)
    result = train_teacher(splits, _ipl_config(cfg))
    writer = RunWriter(out)
    writer.teacher(result.model, result.report)
    writer.finish([])
    write_text(
        out / "summary.txt",
        f"teacher dev_wer {result.report.dev_wer:.4f} test_wer {result.report.test_wer:.4f}\n",
    )
    return 0


def cmd_pseudolabel(args) -> int:
    cfg = _resolve("pseudolabel", args)
    splits = _load_corpus(cfg, "pseudolabel")
    model = load_checkpoint(_require(cfg, "model", "pseudolabel"))
    out = Path(args.out_dir)
    _write_snapshot(out, "pseudolabel", cfg)
    pls = generate_pseudolabels(model, splits.unlabeled, exclude_blank=cfg["exclude_blank"])
    if cfg["annotate_oracle"]:
        annotate_oracle_wer(pls, splits.unlabeled_refs)
    save_pseudolabels(pls, out / "pseudolabels.jsonl")
    return 0


def cmd_filter(args) -> int:
    cfg = _resolve("filter", args)
    if (cfg["score_threshold"] is None) == (cfg["max_wer"] is None):
        raise ConfigurationError("filter: exactly one of --score-threshold / --max-wer")
    pls = load_pseudolabels(_require(cfg, "pseudo_labels", "filter"))
    out = Path(args.out_dir)
    _write_snapshot(out, "filter", cfg)
    if cfg["score_threshold"] is not None:
        kept = score_filter(pls, cfg["score_threshold"])
    else:
        splits = _load_corpus(cfg, "filter")
        kept = wer_filter(pls, splits.unlabeled_refs, cfg["max_wer"])
        save_pseudolabels(pls, out / "annotated.jsonl")  # oracle_wer now filled on all
    save_pseudolabels(kept, out / "filtered.jsonl")
    return 0


def cmd_ipl(args) -> int:
    cfg = _resolve("ipl", args)
    splits = _load_corpus(cfg, "ipl")
    out = Path(args.out_dir)
    _write_snapshot(out, "ipl", cfg)
    ipl_cfg = _ipl_config(
        cfg,
        iter_max=cfg["iter_max"],
        filter_mode=cfg["filter_mode"],
        score_threshold=cfg["score_threshold"],
        max_wer=cfg["max_wer"],
        warm_start=cfg["warm_start"],
        pseudo_weight=cfg["pseudo_weight"],
        exclude_blank_scores=cfg["exclude_blank"],
    )
    run_ipl(splits, ipl_cfg, out_dir=out)
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve("sweep", args)
    splits = _load_corpus(cfg, "sweep")
    out = Path(args.out_dir)
    _write_snapshot(out, "sweep", cfg)
    schedule = ThresholdSchedule(
        initial=cfg["initial"], step=cfg["step"], iterations_per_update=cfg["iters_per_update"]
    )
    sweep_threshold(
        splits, _ipl_config(cfg), schedule, max_updates=cfg["max_updates"], out_dir=out
    )
    return 0


def cmd_estimate_threshold(args) -> int:
    cfg = _resolve("estimate-threshold", args)
    splits = _load_corpus(cfg, "estimate-threshold")
    out = Path(args.out_dir)
    _write_snapshot(out, "estimate-threshold", cfg)
    if cfg["model"] is not None:
        model = load_checkpoint(Path(cfg["model"]))
    else:
        result = train_teacher(splits, _ipl_config(cfg))
        writer = RunWriter(out)
        writer.teacher(result.model, result.report)
        writer.finish([])
        model = result.model
    if cfg["probe"] not in ("dev", "labeled"):
        raise ConfigurationError("estimate-threshold: --probe must be 'dev' or 'labeled'")
    probe = splits.dev if cfg["probe"] == "dev" else splits.labeled
    if cfg["probe_size"] is not None:
        probe = probe[: cfg["probe_size"]]
    estimate_threshold(
        model,
        probe,
        max_wer=cfg["max_wer"],
        coverage_frac=cfg["coverage"],
        min_probe=cfg["min_probe"],
        exclude_blank=cfg["exclude_blank"],
        n_bins=cfg["bins"],
        out_dir=out,
    )
    return 0


def cmd_report(args) -> int:
    cfg = _resolve("report", args)
    run_dir = Path(_require(cfg, "run_dir", "report"))
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    out = Path(args.out_dir)
    _write_snapshot(out, "report", cfg)

    reports, sweep = [], None
    reports_path = run_dir / "reports.jsonl"
    if reports_path.is_file():
        records = load_reports(reports_path)
        if not records:
            raise ConfigurationError(f"{reports_path}: no iteration records")
        reports = [IterationReport(**rec) for rec in records]
    sweep_path = run_dir / "sweep.json"
    if sweep_path.is_file():
        sweep = read_json(sweep_path, ConfigurationError, SWEEP_SCHEMA, SWEEP_FIELDS)
    text = run_summary(reports, sweep)
    estimate_path = run_dir / "estimate.json"
    if estimate_path.is_file():
        est = read_json(estimate_path, ConfigurationError, ESTIMATE_SCHEMA, ESTIMATE_FIELDS)
        text += (
            f"estimated threshold {est['threshold']:.4f} "
            f"(score-kept {est['score_kept_count']}, wer-kept {est['wer_kept_count']}, "
            f"jaccard {est['overlap_jaccard']:.4f}, min-ratio {est['overlap_min_ratio']:.4f})\n"
        )
    if not text:
        raise ConfigurationError(f"{run_dir}: no reports.jsonl, sweep.json, or estimate.json")
    write_text(out / "report_summary.txt", text)

    pls_files = sorted(run_dir.glob("iter-*.pseudolabels.jsonl"))
    if not pls_files and (run_dir / "probe_pseudolabels.jsonl").is_file():
        pls_files = [run_dir / "probe_pseudolabels.jsonl"]
    if pls_files:
        pls = load_pseudolabels(pls_files[-1])
        write_histogram(
            histogram([p.score for p in pls], cfg["bins"]), out / "score_hist.jsonl",
            "score-histogram",
        )
        if all(p.oracle_wer is not None for p in pls):
            write_histogram(
                histogram([p.oracle_wer for p in pls], cfg["bins"]), out / "wer_hist.jsonl",
                "wer-histogram",
            )
            write_scatter(
                [(p.utterance_id, p.score, p.oracle_wer) for p in pls],
                out / "scatter.jsonl",
            )
    return 0


_COMMANDS = [
    ("gen-corpus", cmd_gen_corpus, "generate a synthetic corpus manifest"),
    ("train-teacher", cmd_train_teacher, "train the teacher on the labeled split"),
    ("pseudolabel", cmd_pseudolabel, "decode the unlabeled split with a model"),
    ("filter", cmd_filter, "filter a pseudo-label file by score or oracle WER"),
    ("ipl", cmd_ipl, "run the iterative pseudo-labeling loop"),
    ("sweep", cmd_sweep, "decreasing-threshold sweep with the stopping rule"),
    ("estimate-threshold", cmd_estimate_threshold, "probe-based threshold estimation"),
    ("report", cmd_report, "emit summary table, histograms, and scatter data"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iplfilter",
        description="Confidence-filtered iterative pseudo-labeling on a synthetic CTC corpus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in _COMMANDS:
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="config snapshot to start from")
        p.add_argument("--out-dir", required=True, help="directory for run artifacts")
        for key, (kind, default) in {"seed": (int, None), **_FLAGS[command]}.items():
            flag = "--" + key.replace("_", "-")
            shown = None if default is None else f"default: {default}"
            if kind is bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, help=shown)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=shown)
            else:
                p.add_argument(flag, type=kind, help=shown)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # noqa: BLE001 - single reporting point for every failure
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 2 if isinstance(e, _USAGE_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
