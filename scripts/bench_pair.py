#!/usr/bin/env python3
"""Paired benchmark runs of two source trees.

    python3 scripts/bench_pair.py --base REV --seeds 51 52 53 54 --seconds 30 --out BENCH.json
    python3 scripts/bench_pair.py --base REV --workloads cli-pipeline --seeds 91 92 ... --out BENCH.json

Run from the repository root on an otherwise idle machine. The committed
files of git revision ``--base`` are exported (``git archive``) to a
temporary directory and compared with the working tree on the workloads
``--workloads`` names (all three by default), so that a claim on one
workload can run more seeds there than a check of the others:

- for every named workload and seed, one ``perfbench/run.py --trace 0``
  run per tree, the two back to back (the base first on every other seed);
- one ``--trace 1`` run per tree of every named workload on the first
  seed, for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

from same_outputs import export_tree

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ipl-study", "ipl-long", "cli-pipeline")
METRICS = ("setup_s", "run_s", "train_utt_per_s", "peak_rss_mb")
HIGHER_IS_BETTER = {"train_utt_per_s"}


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"failed": rec["failed"], **{k: v["value"] for k, v in rec["metrics"].items()}}


def quartiles(values: list[float]) -> list[float] | None:
    """The first and third quartiles (``statistics.quantiles``' exclusive method), given two values or more."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(pairs: list[dict], workloads) -> dict:
    out = {}
    for workload in workloads:
        rows = [p for p in pairs if p["workload"] == workload]
        for metric in METRICS:
            base = [p["base"][metric] for p in rows]
            change = [p["change"][metric] for p in rows]
            better = [(c > b) if metric in HIGHER_IS_BETTER else (c < b) for b, c in zip(base, change)]
            mb, mc = statistics.median(base), statistics.median(change)
            out[f"{workload}/{metric}"] = {
                "base_median": mb, "change_median": mc,
                "base_quartiles": quartiles(base), "change_quartiles": quartiles(change),
                "speedup": (mc / mb if metric in HIGHER_IS_BETTER else mb / mc) if mb and mc else None,
                "change_better_pairs": f"{sum(better)}/{len(rows)}",
            }
    return out


def git_sha(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare the working tree with")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS), metavar="NAME",
                    help=f"workloads to pair, of {', '.join(WORKLOADS)} (default: all)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[51, 52, 53, 54])
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as td:
        trees = {"base": export_tree(args.base, Path(td) / "base"), "change": ROOT}
        pairs = []
        workloads = [wl for wl in WORKLOADS if wl in args.workloads]
        for workload in workloads:
            for i, seed in enumerate(args.seeds):
                pair = {"workload": workload, "seed": seed}
                for name in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    pair[name] = bench(trees[name], workload, seed, args.seconds, 0)
                pairs.append(pair)
                print(json.dumps(pair), flush=True)
        traced = {f"{wl}/seed{args.seeds[0]}": {name: bench(tree, wl, args.seeds[0], args.seconds, 1)
                                                for name, tree in trees.items()}
                  for wl in workloads}
    record = {
        "command": " ".join(["python3", "scripts/bench_pair.py", *(argv or sys.argv[1:])]),
        "base": git_sha(args.base),
        "change": f"working tree on {git_sha('HEAD')}",
        "machine": {"python": platform.python_version(), "numpy": metadata.version("numpy"),
                    "processor": platform.processor() or platform.machine(), "cpus": os.cpu_count()},
        "seconds": args.seconds,
        "summary": summarize(pairs, workloads),
        "pairs": pairs,
        "traced": traced,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
