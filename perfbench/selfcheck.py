#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/selfcheck.py                    # 2 sets x 10 seeds, every workload
    python3 perfbench/selfcheck.py --runs 1 --sets 1  # every metric once, by name and unit

Runs ``perfbench/run.py`` on every workload of BENCHMARK.json, one run at a
time, each in a fresh interpreter: ``--sets`` sets on the same ``--runs``
seeds, then one traced run per workload. For each (end-to-end metric,
workload) it prints, next to the metric's bound:

- repeat: how far a seed's value in a later set lies from its value in the
  first set, |later - first| / first, as the median and the largest over
  the seeds (the run-to-run noise of the same code on the same input);
- shift: how far each later set's median moved from the first set's, in the
  metric's worse direction;
- seed spread: (q3 - q1) / median over the seeds of each set, with the
  quartiles of ``statistics.quantiles(values, n=4)``; this mixes run-to-run
  noise with the differences between seeds' corpora.

A metric is steady when the median repeat, the shift and every seed spread
are below a third of its bound, and too noisy when any of them is above the
bound. Then it prints the per-layer metrics of the traced runs and the
error rate of every workload with its attempted count. The exit code is 1
when a metric is too noisy or an operation failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    t0 = time.perf_counter()
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stderr}")
    res = json.loads(r.stdout.strip().splitlines()[-1])
    res["wall_s"] = time.perf_counter() - t0
    return res


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs on the same seeds")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    totals = {w: [0, 0] for w in workloads}

    def tally(w, res):
        totals[w][0] += res["attempted"]
        totals[w][1] += res["failed"]

    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                res = run_once(bench, w, seed, 0)
                tally(w, res)
                results[w][s].append(res["metrics"])
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                print(f"set {s} {w} seed {seed}: correct={res['correct']} wall={res['wall_s']:.1f}s {vals}",
                      flush=True)

    print("\nend-to-end: median repeat (largest), worst median shift, seed spread per set, median per set")
    steady = True
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r[name]["value"] for r in runs] for runs in results[w]]
            meds = [statistics.median(v) for v in sets]
            sign = 1 if m["better"] == "lower" else -1
            shift = max(sign * (md - meds[0]) / meds[0] for md in meds)
            repeats = [abs(b - a) / a for later in sets[1:] for a, b in zip(sets[0], later)]
            spreads = [spread(v) for v in sets] if args.runs > 1 else []
            judged = [shift, *spreads] + ([statistics.median(repeats)] if repeats else [])
            verdict = ("one run, not judged" if len(judged) == 1 else
                       "steady" if max(judged) < bound / 3 else
                       "within bound" if max(judged) <= bound else "TOO NOISY")
            steady &= verdict != "TOO NOISY"
            repeat = (f"{statistics.median(repeats):.3f} ({max(repeats):.3f})" if repeats else "-")
            print(f"  {w:13s} {name:16s} {m['unit']:5s} bound {bound}  repeat {repeat}"
                  f"  shift {shift:+.3f}  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + "  medians " + " ".join(f"{x:.5g}" for x in meds) + f"  {verdict}")

    print("\nper-layer (one traced run per workload, seed %d)" % args.first_seed)
    for w in workloads:
        res = run_once(bench, w, args.first_seed, 1)
        tally(w, res)
        for m in bench["per_layer"]:
            v = res["metrics"][m["name"]]
            print(f"  {w:13s} {m['name']:36s} {v['value']:.6g} {v['unit']}")

    print("\nerror_rate (failed / attempted operations, all runs above)")
    for w in workloads:
        attempted, failed = totals[w]
        print(f"  {w:13s} {failed / attempted:.4f}  ({failed} of {attempted})")
    return 0 if steady and not any(f for _, f in totals.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
