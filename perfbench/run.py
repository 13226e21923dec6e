#!/usr/bin/env python3
"""Run one benchmark workload on one seed and print its metrics.

    python3 perfbench/run.py --workload ipl-study --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/`` next to
this directory; without it (or without BENCHMARK.json) the run prints no
result and exits with code 2. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. A fuller record
(context, pass times, failures) goes to ``.bench_out/``.

Only this process and its own children are timed, with ``time.perf_counter``;
no machine setting (CPU pinning, governor, cache drop) is changed. Times are
reported at a reference CPU speed measured during the timed work (see
``calib.py``); the wall times are in the fuller record.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_PASSES = 2  # the determinism check compares two passes of one seed


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import iplfilter from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "iplfilter" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no src/iplfilter or BENCHMARK.json under {ROOT}")
    sys.path.insert(0, str(src))
    import iplfilter

    if Path(iplfilter.__file__).resolve().parent != src / "iplfilter":
        fail(f"imported iplfilter from {iplfilter.__file__}, not {src}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def time_setup(args, work: Path) -> list[float]:
    """Calibrated seconds of fresh interpreters that import the package and set up.

    Each child samples the calibration kernel while it sets up and prints the
    mean kernel time, which scales the wall time measured here.
    """
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
               "--setup-only", str(work / f"setup-{k}")]
        t0 = time.perf_counter()
        r = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        times.append(wall * calib.REF_KERNEL_S / float(r.stdout.split()[-1]))
    return times


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0]] * 3
    q = statistics.quantiles(xs, n=4)
    return [q[0], statistics.median(xs), q[2]]


def context(args) -> dict:
    import numpy as np

    def git(*cmd):
        try:
            r = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    status = git("status", "--porcelain", "--untracked-files=no") if (ROOT / ".git").exists() else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "timing": "time.perf_counter on this process and its own children only, "
                  "scaled to the reference speed of calib.py; "
                  "no machine setting (pinning, governor, cache drop) was changed",
    }


def run(args) -> dict:
    import workloads as wl

    work = OUT / f"work-{os.getpid()}"
    ledger = wl.Ledger()
    tracer = spans.Tracer() if args.trace else None
    cli = args.workload == "cli-pipeline"
    try:
        setup_times = time_setup(args, work)
        if cli:
            # Every command loads the corpus itself; the checks load the one a pass wrote.
            outcome_of, check = wl.cli_outcome, wl.cli_checks
        else:
            if tracer is not None:
                tracer.pass_id = -1
            splits = wl.setup(args.workload, args.seed, work / "corpus", tracer)
            outcome_of = functools.partial(wl.ipl_outcome, splits)
            check = functools.partial(wl.ipl_checks, splits)

        def body(pass_dir, traced):
            if cli:
                return wl.cli_pass(args.seed, pass_dir, ledger, tracer if traced else None)
            return wl.ipl_pass(splits, args.seed, ledger)

        passes = []  # (calibrated seconds, traced, outcome, wall seconds)
        last = None
        started = time.perf_counter()
        with calib.Sampler() as sampler:
            while True:
                k = len(passes)
                traced = bool(args.trace) and k % 2 == 1
                pass_dir = work / f"pass-{k}"
                ledger_before = len(ledger.failures)
                if traced:
                    tracer.pass_id = k
                    with spans.installed(tracer), tracer.span("pass"):
                        t0 = time.perf_counter()
                        result = body(pass_dir, traced)
                        t1 = time.perf_counter()
                else:
                    t0 = time.perf_counter()
                    result = body(pass_dir, traced)
                    t1 = time.perf_counter()
                if result is None:
                    break
                sec = sampler.calibrated(t0, t1)
                outcome = ledger.run("read pass outputs", outcome_of, result, ledger)
                if outcome is None:
                    break
                if passes:
                    ledger.check("pass outputs identical to pass 0",
                                 outcome.fingerprint == passes[0][2].fingerprint)
                passes.append((sec, traced, outcome, t1 - t0))
                if last is not None and cli:
                    shutil.rmtree(last, ignore_errors=True)
                last = result
                if len(ledger.failures) > ledger_before:
                    break
                if len(passes) >= MIN_PASSES and time.perf_counter() - started + (t1 - t0) > args.seconds:
                    break
        # Read before the output checks, which load data the passes did not hold.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if last is not None:
            ledger.run("output checks", check, last, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p[1]]
    traced = [p for p in passes if p[1]]
    record = {
        "setup_s": setup_times,
        "pass_s": [p[0] for p in plain],
        "pass_wall_s": [p[3] for p in plain],
        "traced_pass_s": [p[0] for p in traced],
        "failures": ledger.failures,
    }
    metrics = {}
    if plain:
        run_s = statistics.median(p[0] for p in plain)
        record["run_s_q1_median_q3"] = quartiles(record["pass_s"])
        record["final_dev_wer"] = statistics.mean(plain[0][2].final_dev_wers)
    if plain and not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "train_utt_per_s": statistics.median(p[2].train_evals / p[0] for p in plain),
            "peak_rss_mb": peak_rss_mb,
        }
    if plain and traced:
        metrics = spans.layer_metrics(tracer, {k for k, p in enumerate(passes) if p[1]})
        for name in wl.CLI_COMMANDS:
            metrics[f"cli.{name}_s"] = sum(
                s.end - s.start for s in tracer.spans if s.name == f"cli.{name}"
            ) / len(traced)
        metrics["pipeline.final_dev_wer"] = record["final_dev_wer"]
        metrics["trace.overhead_frac"] = statistics.median(p[0] for p in traced) / run_s - 1
        check_iterations(tracer, ledger)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    record["metrics"] = metrics
    record["attempted"] = ledger.attempted
    record["failed"] = len(ledger.failures)
    return record


def check_iterations(tracer, ledger) -> None:
    """Each IPL iteration's stage times plus its self time equal its duration."""
    kids = spans.children_of(tracer.spans)
    iters = [i for i, s in enumerate(tracer.spans) if s.name == spans.ITER]
    ledger.check("traced IPL iterations found", bool(iters))
    for i in iters:
        s = tracer.spans[i]
        total = sum(spans.iteration_split(tracer.spans, kids, i).values())
        ledger.check(f"iteration span {i}: stages + self == duration",
                     abs(total - (s.end - s.start)) <= 1e-9 * max(1.0, s.end - s.start))


def setup_only(args) -> int:
    """One set-up probe of time_setup: set up, print the mean calibration kernel time."""
    with calib.Sampler() as sampler:
        t0 = time.perf_counter()
        load_package()
        import workloads as wl

        wl.setup(args.workload, args.seed, Path(args.setup_only))
        t1 = time.perf_counter()
    print(sampler.mean_kernel_s(t0, t1))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    load_package()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {wl.WORKLOADS}")
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    ctx = context(args)
    record = run(args)
    record["context"] = ctx
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("context " + json.dumps(ctx, sort_keys=True))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"passes {record['pass_s']} traced {record['traced_pass_s']} setup {record['setup_s']}")
    print(f"error_rate {record['failed']}/{record['attempted']} operations")
    got = record["metrics"]
    if got and set(got) != {m["name"] for m in wanted}:
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json")
    out = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted if got}
    print(json.dumps({
        "correct": record["failed"] == 0 and bool(got),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
