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
from typing import get_args, get_type_hints

from .artifacts import VERSION, read_json, write_json, write_text
from .corpus import (CorpusGenConfig, generate_corpus, load_manifest, load_refs, read_meta,
                     save_manifest)
from .errors import ConfigurationError, InsufficientProbeError, ManifestError, OracleError
from .model import OPTIMIZERS, TrainConfig, load_checkpoint
from .pipeline import (
    FILTER_MODES,
    IplConfig,
    RunWriter,
    ThresholdSchedule,
    check_estimate_args,
    check_probe_size,
    check_splits,
    estimate_threshold,
    load_run,
    run_ipl,
    run_summary,
    sweep_threshold,
    train_teacher,
    write_plots,
)
from .pseudolabel import (
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

# The config fields whose flag takes one of a fixed set of values
_CHOICES = {"optimizer": OPTIMIZERS, "filter_mode": tuple(FILTER_MODES)}


def _flags(config, skip=()) -> dict:
    """The flag table of a config dataclass instance's fields not in ``skip``: each one's
    choices or annotated type, and its value; a ``(lo, hi)`` field as ``_min``/``_max``."""
    hints = get_type_hints(type(config))
    table = {}
    for f in fields(config):
        if f.name in skip:
            continue
        hint = hints[f.name]
        kind = _CHOICES.get(f.name) or (get_args(hint) or (hint,))[0]  # float | None: float
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            table |= {f"{f.name}_min": (kind, value[0]), f"{f.name}_max": (kind, value[1])}
        else:
            table[f.name] = (kind, value)
    return table


def _from_flags(cls, flags: dict, cfg: dict, **given):
    """Inverse of :func:`_flags`: ``cls`` built from ``cfg``'s values of the fields in ``flags``."""
    values = {f.name: (cfg[f.name] if f.name in flags
                       else (cfg[f.name + "_min"], cfg[f.name + "_max"]))
              for f in fields(cls) if f.name in flags or f.name + "_min" in flags}
    return cls(**values, **given)


_GEN_FLAGS = {"seed": (int, 0), **_flags(CorpusGenConfig())}
_IPL = _flags(IplConfig(), skip=("train",))
# Every training command sets the model's seed and size (TrainConfig's seed is derived
# from IplConfig's); the rest of IplConfig is the ipl command's
_TRAIN_FLAGS = {"corpus": (str, None), **{key: _IPL[key] for key in ("seed", "hidden_dim")},
                **_flags(TrainConfig(), skip=("seed",))}
_IPL_FLAGS = {**_TRAIN_FLAGS, **_IPL}
# The sweep sets each step's filter and iteration count itself
_SWEEP_FLAGS = {**_TRAIN_FLAGS,
                **{key: _IPL[key] for key in ("warm_start", "pseudo_weight", "exclude_blank")},
                **_flags(ThresholdSchedule())}


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


def _ipl_config(cfg: dict, flags: dict = _TRAIN_FLAGS) -> IplConfig:
    return _from_flags(IplConfig, flags, cfg, train=_from_flags(TrainConfig, _TRAIN_FLAGS, cfg))


def _checkpoint(cfg: dict):
    """The ``--model`` checkpoint, whose dimensions must be those of the corpus's ``meta.json``."""
    path = Path(_require(cfg, "model"))
    model = load_checkpoint(path)
    vocab, feature_dim = read_meta(_corpus(cfg))
    for name, have, want in (("feature_dim", model.feature_dim, feature_dim),
                             ("vocab_size", model.vocab_size, len(vocab.tokens))):
        if have != want:
            raise ConfigurationError(f"{path}: checkpoint {name} {have} != corpus {name} {want}")
    return model


def _teacher(splits, cfg: dict, out: Path):
    """Train the teacher on the labeled split and write its artifacts to ``out``."""
    result = train_teacher(splits, _ipl_config(cfg))
    writer = RunWriter(out)
    writer.teacher(result.model, result.report)
    writer.finish([])
    return result


def cmd_gen_corpus(cfg: dict, out: Path) -> None:
    gen = _from_flags(CorpusGenConfig, _GEN_FLAGS, cfg)
    save_manifest(generate_corpus(gen, seed=cfg["seed"]), out)


def cmd_train_teacher(cfg: dict, out: Path) -> None:
    report = _teacher(load_manifest(_corpus(cfg), _TEACHER_SPLITS), cfg, out).report
    write_text(
        out / "summary.txt",
        f"teacher dev_wer {report.dev_wer:.4f} test_wer {report.test_wer:.4f}\n",
    )


def cmd_pseudolabel(cfg: dict, out: Path) -> None:
    model = _checkpoint(cfg)
    splits = load_manifest(_corpus(cfg), ("unlabeled",))
    pls = generate_pseudolabels(model, splits.unlabeled, exclude_blank=cfg["exclude_blank"])
    if cfg["annotate_oracle"]:
        annotate_oracle_wer(pls, splits.unlabeled_refs)
    save_pseudolabels(pls, out / "pseudolabels.jsonl")


def cmd_filter(cfg: dict, out: Path) -> None:
    if (cfg["score_threshold"] is None) == (cfg["max_wer"] is None):
        raise ConfigurationError("filter: exactly one of --score-threshold / --max-wer")
    if cfg["score_threshold"] is not None:
        pls = load_pseudolabels(_require(cfg, "pseudo_labels"))
        kept = score_filter(pls, cfg["score_threshold"])
    else:
        corpus = _corpus(cfg)
        # a token outside the corpus's vocabulary has no place in an edit distance against its refs
        pls = load_pseudolabels(_require(cfg, "pseudo_labels"), read_meta(corpus)[0].num_classes)
        kept = wer_filter(pls, load_refs(corpus), cfg["max_wer"])
        save_pseudolabels(pls, out / "annotated.jsonl")  # oracle_wer now filled on all
    save_pseudolabels(kept, out / "filtered.jsonl")


def cmd_ipl(cfg: dict, out: Path) -> None:
    run_ipl(load_manifest(_corpus(cfg)), _ipl_config(cfg, _IPL_FLAGS), out_dir=out)


def cmd_sweep(cfg: dict, out: Path) -> None:
    schedule = _from_flags(ThresholdSchedule, _SWEEP_FLAGS, cfg)
    sweep_threshold(load_manifest(_corpus(cfg)), _ipl_config(cfg, _SWEEP_FLAGS), schedule,
                    out_dir=out)


def cmd_estimate_threshold(cfg: dict, out: Path) -> None:
    probe_size, n_bins = _at_least_one(cfg, "probe_size"), _at_least_one(cfg, "bins")
    check_estimate_args(cfg["coverage"], cfg["min_probe"])
    model = None if cfg["model"] is None else _checkpoint(cfg)
    splits = load_manifest(_corpus(cfg), _TEACHER_SPLITS if model is None else (cfg["probe"],))
    probe = (splits.dev if cfg["probe"] == "dev" else splits.labeled)[:probe_size]
    if model is None:
        check_splits(splits)  # the teacher's splits, then the probe, before any training
    check_probe_size(len(probe), cfg["min_probe"])
    if model is None:
        model = _teacher(splits, cfg, out).model
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
    "gen-corpus": (cmd_gen_corpus, "generate a synthetic corpus manifest", _GEN_FLAGS),
    "train-teacher": (cmd_train_teacher, "train the teacher on the labeled split", _TRAIN_FLAGS),
    "pseudolabel": (cmd_pseudolabel, "decode the unlabeled split with a model", {
        "corpus": (str, None),
        "model": (str, None),
        "exclude_blank": _IPL["exclude_blank"],
        "annotate_oracle": (bool, False),
    }),
    "filter": (cmd_filter, "filter a pseudo-label file by score or oracle WER", {
        "pseudo_labels": (str, None),
        "corpus": (str, None),
        "score_threshold": (float, None),
        "max_wer": (float, None),
    }),
    "ipl": (cmd_ipl, "run the iterative pseudo-labeling loop", _IPL_FLAGS),
    "sweep": (cmd_sweep, "decreasing-threshold sweep with the stopping rule", _SWEEP_FLAGS),
    "estimate-threshold": (cmd_estimate_threshold, "probe-based threshold estimation", {
        **_TRAIN_FLAGS,
        "model": (str, None),
        "max_wer": (float, 0.10),
        "coverage": (float, 0.9),
        "min_probe": (int, 20),
        "probe": (("dev", "labeled"), "dev"),
        "probe_size": (int, None),
        "exclude_blank": _IPL["exclude_blank"],
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
