"""Command-line entry point.

Every subcommand wraps exactly one library operation and takes
``--out-dir``. :func:`main` resolves the configuration (built-in defaults, then
the ``--config`` file, then explicit flags), writes it as ``config.json`` into
the out-dir before the command reads any input, and only then runs the
command's handler. So every run directory, finished or not, records its
configuration, and ``--config <run>/config.json`` re-launches the run
byte-identically. A ``--config`` value must have its flag's type.

Exit codes: 0 success, 2 usage/validation problems (unknown flags, missing
paths, bad config), 1 runtime failure. Failures print one machine-parseable
JSON record to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from .artifacts import VERSION, read_json, write_json, write_text
from .corpus import CorpusGenConfig, generate_corpus, load_manifest, load_refs, save_manifest
from .errors import ConfigurationError, InsufficientProbeError, ManifestError, OracleError
from .model import TrainConfig, load_checkpoint
from .pipeline import (
    FILTER_MODES,
    IplConfig,
    RunWriter,
    estimate_threshold,
    load_run,
    run_ipl,
    run_summary,
    sweep_threshold,
    train_teacher,
    write_plots,
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

_USAGE_ERRORS = (ConfigurationError, ManifestError, InsufficientProbeError, OracleError,
                 FileNotFoundError)

# Defaults come from the library's own dataclasses.
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

_IPL_FLAGS = {
    "iter_max": (int, _IPL.iter_max),
    "filter_mode": (FILTER_MODES, _IPL.filter_mode),
    "score_threshold": (float, _IPL.score_threshold),
    "max_wer": (float, _IPL.max_wer),
    "warm_start": (bool, _IPL.warm_start),
    "pseudo_weight": (float, _IPL.pseudo_weight),
    "exclude_blank": (bool, _IPL.exclude_blank),
}


def _expected(kind, default) -> str:
    name = f"one of {list(kind)}" if isinstance(kind, tuple) else kind.__name__
    return name + (" or null" if default is None else "")


def _valid(kind, default, value) -> bool:
    """Whether a config value fits its flag (json reads 1 as int, 1.0 as float)."""
    if value is None:
        return default is None
    if isinstance(kind, tuple):
        return value in kind
    return type(value) in ((int, float) if kind is float else (kind,))


def _resolve(args: argparse.Namespace) -> dict:
    flags = COMMANDS[args.command][2]
    cfg = {key: default for key, (_, default) in flags.items()}
    if args.config:
        path = Path(args.config)
        snap = read_json(path, ConfigurationError, CONFIG_SCHEMA, _SNAPSHOT_FIELDS)
        if snap["command"] != args.command:
            raise ConfigurationError(
                f"{path}: snapshot is for command {snap['command']!r}, not {args.command!r}"
            )
        for key, value in snap["config"].items():
            if key not in cfg:
                raise ConfigurationError(f"{path}: unknown config key {key!r}")
            kind, default = flags[key]
            if not _valid(kind, default, value):
                raise ConfigurationError(
                    f"{path}:1: config key {key!r} is {json.dumps(value)}, "
                    f"expected {_expected(kind, default)}"
                )
            cfg[key] = value
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
        if flags[key][0] is float and cfg[key] is not None and not math.isfinite(cfg[key]):
            raise ConfigurationError(f"{_flag(key)} must be finite, got {cfg[key]}")
    return cfg


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(cfg: dict, key: str):
    if cfg[key] is None:
        raise ConfigurationError(f"{_flag(key)} is required")
    return cfg[key]


def _at_least_one(cfg: dict, key: str):
    if cfg[key] is not None and cfg[key] < 1:
        raise ConfigurationError(f"{_flag(key)} must be >= 1, got {cfg[key]}")
    return cfg[key]


def _corpus(cfg: dict) -> Path:
    path = Path(_require(cfg, "corpus"))
    if not path.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {path}")
    return path


# The corpus files a command opens are those of the splits it uses, and no other
_TEACHER_SPLITS = ("labeled", "dev", "test")


def _ipl_config(cfg: dict, **ipl) -> IplConfig:
    train = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})
    return IplConfig(train=train, seed=cfg["seed"], hidden_dim=cfg["hidden_dim"], **ipl)


def _teacher(splits, cfg: dict, out: Path):
    """Train the teacher on the labeled split and write its artifacts to ``out``."""
    result = train_teacher(splits, _ipl_config(cfg))
    writer = RunWriter(out)
    writer.teacher(result.model, result.report)
    writer.finish([])
    return result


def cmd_gen_corpus(cfg: dict, out: Path) -> None:
    gen = CorpusGenConfig(
        label_len=(cfg["label_len_min"], cfg["label_len_max"]),
        frames_per_token=(cfg["frames_per_token_min"], cfg["frames_per_token_max"]),
        **{f.name: cfg[f.name] for f in fields(CorpusGenConfig) if f.name in cfg},
    )
    save_manifest(generate_corpus(gen, seed=cfg["seed"]), out)


def cmd_train_teacher(cfg: dict, out: Path) -> None:
    report = _teacher(load_manifest(_corpus(cfg), _TEACHER_SPLITS), cfg, out).report
    write_text(
        out / "summary.txt",
        f"teacher dev_wer {report.dev_wer:.4f} test_wer {report.test_wer:.4f}\n",
    )


def cmd_pseudolabel(cfg: dict, out: Path) -> None:
    splits = load_manifest(_corpus(cfg), ("unlabeled",))
    model = load_checkpoint(_require(cfg, "model"))
    pls = generate_pseudolabels(model, splits.unlabeled, exclude_blank=cfg["exclude_blank"])
    if cfg["annotate_oracle"]:
        annotate_oracle_wer(pls, splits.unlabeled_refs)
    save_pseudolabels(pls, out / "pseudolabels.jsonl")


def cmd_filter(cfg: dict, out: Path) -> None:
    if (cfg["score_threshold"] is None) == (cfg["max_wer"] is None):
        raise ConfigurationError("filter: exactly one of --score-threshold / --max-wer")
    pls = load_pseudolabels(_require(cfg, "pseudo_labels"))
    if cfg["score_threshold"] is not None:
        kept = score_filter(pls, cfg["score_threshold"])
    else:
        kept = wer_filter(pls, load_refs(_corpus(cfg)), cfg["max_wer"])
        save_pseudolabels(pls, out / "annotated.jsonl")  # oracle_wer now filled on all
    save_pseudolabels(kept, out / "filtered.jsonl")


def cmd_ipl(cfg: dict, out: Path) -> None:
    ipl = _ipl_config(cfg, **{key: cfg[key] for key in _IPL_FLAGS})
    run_ipl(load_manifest(_corpus(cfg)), ipl, out_dir=out)


def cmd_sweep(cfg: dict, out: Path) -> None:
    schedule = ThresholdSchedule(
        initial=cfg["initial"], step=cfg["step"], iterations_per_update=cfg["iters_per_update"]
    )
    splits = load_manifest(_corpus(cfg))
    sweep_threshold(splits, _ipl_config(cfg), schedule, max_updates=cfg["max_updates"], out_dir=out)


def cmd_estimate_threshold(cfg: dict, out: Path) -> None:
    probe_size, n_bins = _at_least_one(cfg, "probe_size"), _at_least_one(cfg, "bins")
    splits = load_manifest(_corpus(cfg), _TEACHER_SPLITS if cfg["model"] is None else (cfg["probe"],))
    if cfg["model"] is not None:
        model = load_checkpoint(Path(cfg["model"]))
    else:
        model = _teacher(splits, cfg, out).model
    probe = (splits.dev if cfg["probe"] == "dev" else splits.labeled)[:probe_size]
    estimate_threshold(
        model,
        probe,
        max_wer=cfg["max_wer"],
        coverage_frac=cfg["coverage"],
        min_probe=cfg["min_probe"],
        exclude_blank=cfg["exclude_blank"],
        n_bins=n_bins,
        out_dir=out,
    )


def cmd_report(cfg: dict, out: Path) -> None:
    n_bins = _at_least_one(cfg, "bins")
    run = load_run(_require(cfg, "run_dir"))
    write_text(out / "report_summary.txt", run_summary(run.reports, run.sweep, run.estimate))
    if run.pseudolabels is not None:
        write_plots(load_pseudolabels(run.pseudolabels), n_bins, out)


# One entry per command: (handler, help, flags). The flag table maps a config
# key to (flag type, default); the key names the --flag and the config.json
# entry, and the type is int, float, str, bool (a --flag/--no-flag pair) or a
# tuple of choices. Every command also takes --seed; the ones whose table has
# no "seed" accept it and ignore it.
COMMANDS = {
    "gen-corpus": (cmd_gen_corpus, "generate a synthetic corpus manifest", {
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
    }),
    "train-teacher": (cmd_train_teacher, "train the teacher on the labeled split", _TRAIN_FLAGS),
    "pseudolabel": (cmd_pseudolabel, "decode the unlabeled split with a model", {
        "corpus": (str, None),
        "model": (str, None),
        "exclude_blank": (bool, _IPL.exclude_blank),
        "annotate_oracle": (bool, False),
    }),
    "filter": (cmd_filter, "filter a pseudo-label file by score or oracle WER", {
        "pseudo_labels": (str, None),
        "corpus": (str, None),
        "score_threshold": (float, None),
        "max_wer": (float, None),
    }),
    "ipl": (cmd_ipl, "run the iterative pseudo-labeling loop", {**_TRAIN_FLAGS, **_IPL_FLAGS}),
    "sweep": (cmd_sweep, "decreasing-threshold sweep with the stopping rule", {
        **_TRAIN_FLAGS,
        "initial": (float, _SCHEDULE.initial),
        "step": (float, _SCHEDULE.step),
        "iters_per_update": (int, _SCHEDULE.iterations_per_update),
        "max_updates": (int, 8),
    }),
    "estimate-threshold": (cmd_estimate_threshold, "probe-based threshold estimation", {
        **_TRAIN_FLAGS,
        "model": (str, None),
        "max_wer": (float, 0.10),
        "coverage": (float, 0.9),
        "min_probe": (int, 20),
        "probe": (("dev", "labeled"), "dev"),
        "probe_size": (int, None),
        "exclude_blank": (bool, _IPL.exclude_blank),
        "bins": (int, 20),
    }),
    "report": (cmd_report, "emit summary table, histograms, and scatter data",
               {"run_dir": (str, None), "bins": (int, 20)}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iplfilter",
        description="Confidence-filtered iterative pseudo-labeling on a synthetic CTC corpus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="config snapshot to start from")
        p.add_argument("--out-dir", required=True, help="directory for run artifacts")
        for key, (kind, default) in {"seed": (int, None), **flags}.items():
            flag = _flag(key)
            shown = None if default is None else f"default: {default}"
            if kind is bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, help=shown)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=shown)
            else:
                p.add_argument(flag, type=kind, help=shown)
    return parser


def main(argv=None) -> int:
    """Resolve the configuration, snapshot it, then run the command's handler."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        out = Path(args.out_dir)
        write_json(out / "config.json", {"schema": CONFIG_SCHEMA, "version": VERSION,
                                         "command": args.command, "config": cfg})
        COMMANDS[args.command][0](cfg, out)
    except Exception as e:  # noqa: BLE001 - single reporting point for every failure
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 2 if isinstance(e, _USAGE_ERRORS) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
