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

``--out`` writes the rows as json lines with schema ``study-<mode>``.
"""

from __future__ import annotations

import argparse
from dataclasses import fields
from pathlib import Path

import numpy as np

from iplfilter.artifacts import write_jsonl
from iplfilter.corpus import CorpusGenConfig, generate_corpus
from iplfilter.model import TrainConfig
from iplfilter.pipeline import (IplConfig, ThresholdSchedule, estimate_threshold, run_ipl,
                                sweep_threshold, train_teacher)


def compare(seed, splits, cfg, teacher, args) -> dict:
    row = {"seed": seed, "teacher_dev": teacher.report.dev_wer,
           "teacher_test": teacher.report.test_wer}
    variants = {"none": {}, "score": {"score_threshold": args.score_threshold},
                "wer": {"max_wer": args.max_wer}}
    for mode, kw in variants.items():
        run_cfg = IplConfig(iter_max=args.iter_max, filter_mode=mode, train=cfg.train, seed=seed, **kw)
        last = run_ipl(splits, run_cfg, teacher=teacher.model).reports[-1]
        row.update({f"{mode}_dev": last.dev_wer, f"{mode}_test": last.test_wer,
                    f"{mode}_kept_last": last.kept})
    print(f"seed {seed}: teacher {row['teacher_dev']:.3f}  none {row['none_dev']:.3f}  "
          f"score {row['score_dev']:.3f}  wer {row['wer_dev']:.3f}   (dev WER)")
    return row


def compare_summary(rows) -> None:
    print("\nmean dev WER over seeds:")
    for mode in ("teacher", "none", "score", "wer"):
        vals = [r[f"{mode}_dev"] for r in rows]
        print(f"  {mode:8s} {np.mean(vals):.4f}  (+/- {np.std(vals):.4f})")


def threshold(seed, splits, cfg, teacher, args) -> dict:
    sched = ThresholdSchedule(**{f.name: getattr(args, f.name) for f in fields(ThresholdSchedule)})
    sw = sweep_threshold(splits, cfg, sched, teacher=teacher.model)
    est = estimate_threshold(teacher.model, splits.dev, max_wer=args.max_wer,
                             coverage_frac=args.coverage)
    near = abs(est.threshold - sw.best_threshold) <= args.step + 1e-12
    print(f"seed {seed}: sweep {sw.best_threshold:+.3f}  estimate {est.threshold:+.4f}  "
          f"within one step: {near}  jaccard {est.overlap_jaccard:.3f}")
    return {"seed": seed, "sweep_threshold": sw.best_threshold, "sweep_declined": sw.declined,
            "estimate": est.threshold, "within_one_step": near,
            "wer_kept": est.wer_kept_count, "score_kept": est.score_kept_count,
            "overlap_jaccard": est.overlap_jaccard, "overlap_min_ratio": est.overlap_min_ratio}


def threshold_summary(rows) -> None:
    hits = sum(r["within_one_step"] for r in rows)
    print(f"\nestimate within one step of the sweep on {hits}/{len(rows)} seeds")
    print(f"mean jaccard overlap {np.mean([r['overlap_jaccard'] for r in rows]):.3f}")


def main() -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    common.add_argument("--noise-sigma", type=float, default=0.5)
    common.add_argument("--epochs", type=int, default=30)
    common.add_argument("--base-lr", type=float, default=0.15)
    common.add_argument("--max-wer", type=float, default=0.10)
    common.add_argument("--out", type=Path, help="optional jsonl output for the rows")
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("compare", parents=[common], help="compare the filters")
    p.add_argument("--iter-max", type=int, default=3)
    p.add_argument("--score-threshold", type=float, default=-0.08)
    p.set_defaults(run=compare, summary=compare_summary)
    p = sub.add_parser("threshold", parents=[common], help="sweep against estimate")
    for f in fields(ThresholdSchedule):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    p.add_argument("--coverage", type=float, default=0.9)
    p.set_defaults(run=threshold, summary=threshold_summary)
    args = ap.parse_args()

    rows = []
    for seed in args.seeds:
        splits = generate_corpus(CorpusGenConfig(noise_sigma=args.noise_sigma), seed=seed)
        cfg = IplConfig(train=TrainConfig(epochs=args.epochs, base_lr=args.base_lr), seed=seed)
        rows.append(args.run(seed, splits, cfg, train_teacher(splits, cfg), args))
    args.summary(rows)
    if args.out:
        write_jsonl(args.out, rows, f"study-{args.mode}")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
