#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, and the CTC kernel's time by section.

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
  seed, for the per-layer metrics;
- when ``ipl-long`` is named, the CTC kernel's time by section over one
  ``ipl-long`` pass on the first seed, per tree (``--sections TREE`` runs
  that part alone).

Sections are read off a line tracer: the time between line events of
``ctc_log_prob``, ``LabelPlan.__getitem__`` (where it exists) and
``_forward_backward`` is summed by the section the line belongs to, less the
tracer's own cost per line event (measured on a probe function), and divided
by the number of kernel calls. ``untraced_us_per_call`` is the same calls
timed with ``perf_counter`` alone in a second pass; the sections' sum differs
from it by what the per-event correction misses.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ipl-study", "ipl-long", "cli-pipeline")
METRICS = ("setup_s", "run_s", "train_utt_per_s", "peak_rss_mb")
HIGHER_IS_BETTER = {"train_utt_per_s"}
LABELS = "labels, checks and entry"
# (section, pattern of the line of _forward_backward that opens it, in the
# kernel before the label plan | after it). After it, the cell index is built
# once in "pad and gather" and read again by the occupancy and the bincount.
SECTIONS = [
    ("pad and gather", r"starts = np\.cumsum\(lengths\)|frame = np\.arange\(T\)"),
    ("flip, seeds and skip", r"seed_times = set\(\)|seeds = \{\}"),
    ("alpha allocation", r"alpha = np\.full|alpha = _work_array"),
    ("frame loop", r"for t in range\(T\)"),
    ("occupancy", r"last = lengths - 1"),
    ("cell and bincount", r"cell = \(np\.arange\(T\)|gamma = np\.bincount"),
    ("exp(arr) gather", r"return log_prob, np\.exp\(arr\)"),
]


def line_sections(fn, split: bool) -> dict[int, str]:
    """Line number -> section for each line of ``fn``."""
    lines, first = inspect.getsourcelines(fn)
    out, current = {}, LABELS
    for no, text in enumerate(lines, first):
        for name, pattern in SECTIONS if split else ():
            if re.search(pattern, text):
                current = name
        out[no] = current
    return out


class LineClock:
    """Charges the time between line events of the target code objects to
    the section of the line that ran; a call into an untraced function is
    charged to the calling line."""

    def __init__(self, targets: dict):
        self.targets = targets  # code object -> {line number: section}
        self.total: dict[str, float] = defaultdict(float)
        self.events: dict[str, int] = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.stack: list[str] = []  # the section of the current line of each traced frame
        self.clock = 0.0

    def _charge(self, now: float) -> None:
        if self.stack:
            self.total[self.stack[-1]] += now - self.clock
            self.events[self.stack[-1]] += 1

    def local(self, frame, event, arg):
        self._charge(time.perf_counter())
        if event == "line":
            self.stack[-1] = self.targets[frame.f_code][frame.f_lineno]
        elif event == "return":
            self.stack.pop()
        self.clock = time.perf_counter()
        return self.local

    def enter(self, frame, event, arg):
        sections = self.targets.get(frame.f_code)
        if sections is None:
            return None
        self._charge(time.perf_counter())
        self.calls[frame.f_code] += 1
        self.stack.append(sections[frame.f_lineno])
        self.clock = time.perf_counter()
        return self.local

    def run(self, fn, *args):
        sys.settrace(self.enter)
        try:
            return fn(*args)
        finally:
            sys.settrace(None)


def tracing_cost_per_event() -> float:
    """Seconds a traced line event adds to the time charged to its line, from
    a function of 200 trivial lines timed with and without the tracer."""
    ns: dict = {}
    exec(compile("def probe():\n" + "    x = 1\n" * 200, "<probe>", "exec"), ns)
    probe = ns["probe"]
    lines = range(1, 203)
    untraced = min(timeit_once(probe) for _ in range(200))
    costs = []
    for _ in range(20):
        clock = LineClock({probe.__code__: dict.fromkeys(lines, "probe")})
        clock.run(probe)
        costs.append((clock.total["probe"] - untraced) / clock.events["probe"])
    return statistics.median(costs)


def timeit_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def kernel_sections(tree: Path, seed: int) -> dict:
    """Per-section µs per kernel call over one traced ipl-long pass of ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads as wl
    from iplfilter import ctc, model

    targets = {ctc.ctc_log_prob.__code__: line_sections(ctc.ctc_log_prob, False),
               ctc._forward_backward.__code__: line_sections(ctc._forward_backward, True)}
    if hasattr(ctc, "LabelPlan"):
        targets[ctc.LabelPlan.__getitem__.__code__] = line_sections(ctc.LabelPlan.__getitem__, False)
    clock = LineClock(targets)
    with tempfile.TemporaryDirectory() as td:
        splits = wl.setup("ipl-long", seed, Path(td))
        clock.run(wl.ipl_pass, splits, seed, wl.Ledger())
        untraced = []
        inner = model.ctc_log_prob

        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                return inner(*a, **kw)
            finally:
                untraced.append(time.perf_counter() - t0)

        model.ctc_log_prob = timed
        try:
            wl.ipl_pass(splits, seed, wl.Ledger())
        finally:
            model.ctc_log_prob = inner
    calls = clock.calls[ctc._forward_backward.__code__]
    cost = tracing_cost_per_event()
    order = [LABELS, *(name for name, _ in SECTIONS)]
    us = {name: 1e6 * (clock.total[name] - cost * clock.events[name]) / calls for name in order}
    return {"kernel_calls": calls,
            "us_per_call": {name: round(v, 1) for name, v in us.items()},
            "sum_us_per_call": round(sum(us.values()), 1),
            "untraced_us_per_call": round(1e6 * sum(untraced) / len(untraced), 1),
            "tracing_cost_per_line_us": round(1e6 * cost, 3)}


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
    ap.add_argument("--base", help="git revision to compare the working tree with")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS), metavar="NAME",
                    help=f"workloads to pair, of {', '.join(WORKLOADS)} (default: all)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[51, 52, 53, 54])
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--sections", type=Path, metavar="TREE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.sections is not None:
        print(json.dumps(kernel_sections(args.sections, args.seeds[0])))
        return 0
    if args.base is None or args.out is None:
        ap.error("--base and --out are required")
    with tempfile.TemporaryDirectory() as td:
        base = Path(td) / "base"
        base.mkdir()
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        trees = {"base": base, "change": ROOT}
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
        sections = {}
        for name, tree in trees.items() if "ipl-long" in workloads else ():
            proc = subprocess.run([sys.executable, __file__, "--sections", str(tree), "--seeds",
                                   str(args.seeds[0])], capture_output=True, text=True, check=True)
            sections[name] = json.loads(proc.stdout)
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
    if sections:
        record["kernel_sections"] = {f"ipl-long/seed{args.seeds[0]}": sections}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
