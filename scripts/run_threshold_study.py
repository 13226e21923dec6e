#!/usr/bin/env python3
"""Cross-check the decreasing-threshold sweep against probe-based estimation.

For each seed: train a teacher, run the full sweep (3 iterations per
threshold, stop on the first dev-WER decline), and independently estimate a
threshold from the dev probe via the WER-filter/score-filter overlap. Reports
whether the two land within one schedule step of each other, plus the overlap
ratios behind the estimate.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from iplfilter.artifacts import write_jsonl
from iplfilter.corpus import CorpusGenConfig, generate_corpus
from iplfilter.model import TrainConfig
from iplfilter.pipeline import IplConfig, estimate_threshold, sweep_threshold, train_teacher
from iplfilter.pseudolabel import ThresholdSchedule


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--noise-sigma", type=float, default=0.5)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--base-lr", type=float, default=0.15)
    ap.add_argument("--initial", type=float, default=-0.05)
    ap.add_argument("--step", type=float, default=0.03)
    ap.add_argument("--iters-per-update", type=int, default=3)
    ap.add_argument("--max-updates", type=int, default=8)
    ap.add_argument("--max-wer", type=float, default=0.10)
    ap.add_argument("--coverage", type=float, default=0.9)
    ap.add_argument("--out", type=Path, help="optional jsonl output for the rows")
    args = ap.parse_args()

    rows = []
    for seed in args.seeds:
        splits = generate_corpus(CorpusGenConfig(noise_sigma=args.noise_sigma), seed=seed)
        cfg = IplConfig(
            filter_mode="score",
            score_threshold=args.initial,
            train=TrainConfig(epochs=args.epochs, base_lr=args.base_lr),
            seed=seed,
        )
        teacher = train_teacher(splits, cfg)
        sched = ThresholdSchedule(
            initial=args.initial, step=args.step, iterations_per_update=args.iters_per_update
        )
        sw = sweep_threshold(splits, cfg, sched, max_updates=args.max_updates, teacher=teacher.model)
        est = estimate_threshold(
            teacher.model, splits.dev, max_wer=args.max_wer, coverage_frac=args.coverage
        )
        near = abs(est.threshold - sw.best_threshold) <= args.step + 1e-12
        rows.append({
            "seed": seed,
            "sweep_threshold": sw.best_threshold,
            "sweep_declined": sw.declined,
            "estimate": est.threshold,
            "within_one_step": near,
            "wer_kept": est.wer_kept_count,
            "score_kept": est.score_kept_count,
            "overlap_jaccard": est.overlap_jaccard,
            "overlap_min_ratio": est.overlap_min_ratio,
        })
        print(
            f"seed {seed}: sweep {sw.best_threshold:+.3f}  estimate {est.threshold:+.4f}  "
            f"within one step: {near}  jaccard {est.overlap_jaccard:.3f}"
        )

    hits = sum(r["within_one_step"] for r in rows)
    print(f"\nestimate within one step of the sweep on {hits}/{len(rows)} seeds")
    print(f"mean jaccard overlap {np.mean([r['overlap_jaccard'] for r in rows]):.3f}")

    if args.out:
        write_jsonl(args.out, rows, "threshold-study")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
