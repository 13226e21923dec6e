#!/usr/bin/env python3
"""Multi-seed studies of the pseudo-label filters.

Each seed trains a teacher on the labeled split of its own corpus, then:

compare    runs three IPL variants from that teacher (no filter, score filter,
           oracle WER filter) and prints their final dev WER per seed and the
           mean over seeds;
threshold  runs the decreasing-threshold sweep (stop on the first dev-WER
           decline) and, independently, estimates a threshold from the dev
           probe; prints whether the two land within one schedule step, with
           the overlap behind the estimate.

Each seed is one job, run in a pool of spawned workers; a bad option exits 2
before any job starts. ``--out`` writes the rows as json lines with schema
``study-<mode>``.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from iplfilter.artifacts import write_jsonl
from iplfilter.corpus import CorpusGenConfig, generate_corpus
from iplfilter.model import TrainConfig
from iplfilter.pipeline import (EstimateConfig, IplConfig, ThresholdSchedule, estimate_threshold,
                                run_ipl, sweep_threshold, train_teacher)


def _teacher(seed, opts):
    """A seed's corpus, its base config, and the teacher trained under it."""
    splits = generate_corpus(CorpusGenConfig(noise_sigma=opts.noise_sigma), seed=seed)
    cfg = IplConfig(train=TrainConfig(epochs=opts.epochs, base_lr=opts.base_lr), seed=seed)
    return splits, cfg, train_teacher(splits, cfg)


def compare(seed, opts) -> dict:
    """One seed's teacher WERs, then each filter mode's final WERs and kept count."""
    splits, cfg, teacher = _teacher(seed, opts)
    row = {"seed": seed, "teacher_dev": teacher.report.dev_wer,
           "teacher_test": teacher.report.test_wer}
    variants = {"none": {}, "score": {"score_threshold": opts.score_threshold},
                "wer": {"max_wer": opts.max_wer}}
    for mode, kw in variants.items():
        run_cfg = IplConfig(iter_max=opts.iter_max, filter_mode=mode, train=cfg.train, seed=seed, **kw)
        last = run_ipl(splits, run_cfg, teacher=teacher.model).reports[-1]
        row.update({f"{mode}_dev": last.dev_wer, f"{mode}_test": last.test_wer,
                    f"{mode}_kept_last": last.kept})
    return row


def compare_summary(rows) -> None:
    for r in rows:
        print(f"seed {r['seed']}: teacher {r['teacher_dev']:.3f}  none {r['none_dev']:.3f}  "
              f"score {r['score_dev']:.3f}  wer {r['wer_dev']:.3f}   (dev WER)")
    print("\nmean dev WER over seeds:")
    for mode in ("teacher", "none", "score", "wer"):
        vals = [r[f"{mode}_dev"] for r in rows]
        print(f"  {mode:8s} {np.mean(vals):.4f}  (+/- {np.std(vals):.4f})")


def threshold(seed, opts) -> dict:
    """One seed's sweep and probe estimate, with the probe rows the WER filter kept."""
    splits, cfg, teacher = _teacher(seed, opts)
    sched = ThresholdSchedule(**{f.name: getattr(opts, f.name) for f in fields(ThresholdSchedule)})
    sw = sweep_threshold(splits, cfg, sched, teacher=teacher.model)
    est = estimate_threshold(teacher.model, splits.dev,
                             EstimateConfig(max_wer=opts.max_wer, coverage=opts.coverage))
    return {"seed": seed, "sweep_threshold": sw.best_threshold, "sweep_declined": sw.declined,
            "thresholds": sw.thresholds, "best_dev_wer_per_threshold": sw.best_dev_wer_per_threshold,
            "sweep_iterations": len(sw.reports), "estimate": est.threshold,
            "within_one_step": abs(est.threshold - sw.best_threshold) <= opts.step + 1e-12,
            "probe_size": est.probe_size, "wer_kept": est.wer_kept_count,
            "wer_kept_positions": np.flatnonzero(est.pseudolabels.oracle_wer < opts.max_wer).tolist(),
            "score_kept": est.score_kept_count, "overlap_jaccard": est.overlap_jaccard,
            "overlap_min_ratio": est.overlap_min_ratio}


def threshold_summary(rows) -> None:
    for r in rows:
        print(f"seed {r['seed']}: sweep {r['sweep_threshold']:+.3f}  estimate {r['estimate']:+.4f}  "
              f"within one step: {r['within_one_step']}  jaccard {r['overlap_jaccard']:.3f}")
    hits = sum(r["within_one_step"] for r in rows)
    print(f"\nestimate within one step of the sweep on {hits}/{len(rows)} seeds")
    # two empty kept sets have Jaccard 1.0, which says nothing of how the filters agree
    empty = [r["seed"] for r in rows if r["wer_kept"] == r["score_kept"] == 0]
    if empty:
        print(f"both filters keep nothing on seeds {empty}; left out of the mean overlap")
    if overlaps := [r["overlap_jaccard"] for r in rows if r["seed"] not in empty]:
        print(f"mean jaccard overlap {np.mean(overlaps):.3f}")


def _timed(job, seed, opts):
    t0 = time.perf_counter()
    row = job(seed, opts)
    return row, time.perf_counter() - t0


def run(jobs, opts) -> tuple[list[dict], list[float]]:
    """Each ``(job, seed)``'s row and wall seconds, in order, from spawned workers that turn a
    numpy RuntimeWarning into an error. A job is fully seeded and shares no state, so its row
    equals that of calling it in this process."""
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(jobs)),
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=warnings.simplefilter, initargs=("error", RuntimeWarning)) as pool:
        futures = [pool.submit(_timed, job, seed, opts) for job, seed in jobs]
        done = [future.result() for future in futures]
    return [row for row, _ in done], [seconds for _, seconds in done]


def _seed(text) -> int:
    if (seed := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"a seed must be >= 0, got {seed}")
    return seed


def _option(parser, build, name, default=None, **given):
    """Add ``--name``, defaulting to ``build()``'s field ``name``. A value is refused, under the
    flag's name, when ``build(**given, name=value)``, the config the option sets, refuses it."""
    default = getattr(build(), name) if default is None else default

    def parse(text):
        try:
            value = type(default)(text)
            build(**given, **{name: value})
        except ValueError as e:  # a ConfigurationError, or text that is no number
            raise argparse.ArgumentTypeError(str(e)) from None
        return value
    parser.add_argument("--" + name.replace("_", "-"), type=parse, default=default)


def build_parser() -> argparse.ArgumentParser:
    """The studies' options: library defaults, except the score filter's boundary, which is
    the study's own."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seeds", type=_seed, nargs="+", default=[0, 1, 2, 3, 4])
    for build, name in ((CorpusGenConfig, "noise_sigma"), (TrainConfig, "epochs"), (TrainConfig, "base_lr")):
        _option(common, build, name)
    _option(common, EstimateConfig, "max_wer")
    common.add_argument("--out", type=Path, help="optional jsonl output for the rows")
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("compare", parents=[common], help="compare the filters")
    _option(p, IplConfig, "iter_max")
    _option(p, IplConfig, "score_threshold", -0.08, filter_mode="score")
    p.set_defaults(job=compare, summary=compare_summary)
    p = sub.add_parser("threshold", parents=[common], help="sweep against estimate")
    for f in fields(ThresholdSchedule):
        _option(p, ThresholdSchedule, f.name)
    _option(p, EstimateConfig, "coverage")
    p.set_defaults(job=threshold, summary=threshold_summary)
    return ap


def main(argv=None) -> int:
    opts = build_parser().parse_args(argv)
    rows, _ = run([(opts.job, seed) for seed in opts.seeds], opts)
    opts.summary(rows)
    if opts.out:
        write_jsonl(opts.out, rows, f"study-{opts.mode}")
        print(f"\nwrote {opts.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
