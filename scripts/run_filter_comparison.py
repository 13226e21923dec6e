#!/usr/bin/env python3
"""Multi-seed comparison of pseudo-label filtering strategies.

For each seed: train a teacher on the labeled split, then run three IPL
variants from that teacher (no filter, score filter, oracle WER filter) and
collect final dev/test WER. Prints a per-seed table plus means, and optionally
writes the rows as json lines for plotting.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from iplfilter.artifacts import write_jsonl
from iplfilter.corpus import CorpusGenConfig, generate_corpus
from iplfilter.model import TrainConfig
from iplfilter.pipeline import IplConfig, run_ipl, train_teacher

MODES = ("teacher", "none", "score", "wer")


def run_seed(seed: int, args) -> dict:
    splits = generate_corpus(CorpusGenConfig(noise_sigma=args.noise_sigma), seed=seed)
    train_cfg = TrainConfig(epochs=args.epochs, base_lr=args.base_lr)

    def cfg(**kw):
        return IplConfig(iter_max=args.iter_max, train=train_cfg, seed=seed, **kw)

    teacher = train_teacher(splits, cfg(filter_mode="none"))
    row = {
        "seed": seed,
        "teacher_dev": teacher.report.dev_wer,
        "teacher_test": teacher.report.test_wer,
    }
    variants = {
        "none": cfg(filter_mode="none"),
        "score": cfg(filter_mode="score", score_threshold=args.score_threshold),
        "wer": cfg(filter_mode="wer", max_wer=args.max_wer),
    }
    for mode, run_cfg in variants.items():
        result = run_ipl(splits, run_cfg, teacher=teacher.model)
        row[f"{mode}_dev"] = result.reports[-1].dev_wer
        row[f"{mode}_test"] = result.reports[-1].test_wer
        row[f"{mode}_kept_last"] = result.reports[-1].kept
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--noise-sigma", type=float, default=0.5)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--base-lr", type=float, default=0.15)
    ap.add_argument("--iter-max", type=int, default=3)
    ap.add_argument("--score-threshold", type=float, default=-0.08)
    ap.add_argument("--max-wer", type=float, default=0.10)
    ap.add_argument("--out", type=Path, help="optional jsonl output for the rows")
    args = ap.parse_args()

    rows = []
    for seed in args.seeds:
        row = run_seed(seed, args)
        rows.append(row)
        print(
            f"seed {row['seed']}: teacher {row['teacher_dev']:.3f}  "
            f"none {row['none_dev']:.3f}  score {row['score_dev']:.3f}  "
            f"wer {row['wer_dev']:.3f}   (dev WER)"
        )

    print("\nmean dev WER over seeds:")
    for mode in MODES:
        vals = [r[f"{mode}_dev"] for r in rows]
        print(f"  {mode:8s} {np.mean(vals):.4f}  (+/- {np.std(vals):.4f})")

    if args.out:
        write_jsonl(args.out, rows, "filter-comparison")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
