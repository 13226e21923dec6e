#!/usr/bin/env python3
"""Check that two source trees write the same run artifacts.

    python3 scripts/same_outputs.py --base REV [--epochs N] [--allow PATH ...]

Run from the repository root. The committed files of git revision ``--base``
are exported (``git archive``) to a temporary directory. Each tree, the base
and the working tree, then runs the README walk-through at seed 0 with its own
``src`` on ``PYTHONPATH``: ``gen-corpus``, ``train-teacher``, ``pseudolabel
--annotate-oracle``, both ``filter`` modes, ``ipl`` under each filter mode,
``sweep``, ``estimate-threshold`` (training its own teacher, then again with
``--model`` the ``train-teacher`` checkpoint, into ``estimate-model``) and
``report``. ``--epochs`` sets the training epochs of every command that
trains (default: each command's own).

Each walk-through runs in one process, through ``iplfilter.cli.main``, in a
run root of its own. Both use the same relative paths, so a path recorded in
a ``config.json`` reads the same on both sides. The two run roots are then
compared file by file, ignoring ``timings.txt`` (wall clock). Every path
that differs is printed with the sha256 of each side (``-`` where a side has
no such file). The exit code is 1 when a difference is not named by an
``--allow`` path (a file, or a directory holding it), else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IGNORED = "timings.txt"


def export_tree(rev: str, dest: Path) -> Path:
    """The committed files of git revision ``rev``, extracted into ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def walkthrough(epochs: int | None) -> list[list[str]]:
    """The README walk-through's commands, with paths relative to the run root."""
    train = ["--epochs", str(epochs)] if epochs is not None else []
    pls = "pl/pseudolabels.jsonl"
    return [
        ["gen-corpus", "--out-dir", "corpus"],
        ["train-teacher", "--corpus", "corpus", "--out-dir", "teacher", *train],
        ["pseudolabel", "--corpus", "corpus", "--model", "teacher/teacher_model.json",
         "--out-dir", "pl", "--annotate-oracle"],
        ["filter", "--pseudo-labels", pls, "--score-threshold", "-0.08", "--out-dir", "kept"],
        ["filter", "--pseudo-labels", pls, "--max-wer", "0.10", "--corpus", "corpus",
         "--out-dir", "kept-oracle"],
        ["ipl", "--corpus", "corpus", "--out-dir", "ipl-none", "--filter-mode", "none",
         "--iter-max", "3", *train],
        ["ipl", "--corpus", "corpus", "--out-dir", "ipl-score", "--filter-mode", "score",
         "--score-threshold", "-0.08", "--iter-max", "3", *train],
        ["ipl", "--corpus", "corpus", "--out-dir", "ipl-wer", "--filter-mode", "wer",
         "--max-wer", "0.10", "--iter-max", "3", *train],
        ["sweep", "--corpus", "corpus", "--out-dir", "sweep", "--initial", "-0.05", "--step", "0.03",
         "--iters-per-update", "3", *train],
        ["estimate-threshold", "--corpus", "corpus", "--out-dir", "estimate", "--max-wer", "0.10",
         "--probe", "dev", *train],
        ["estimate-threshold", "--corpus", "corpus", "--out-dir", "estimate-model",
         "--model", "teacher/teacher_model.json", "--max-wer", "0.10", "--probe", "dev"],
        ["report", "--run-dir", "sweep", "--out-dir", "report"],
    ]


# Runs the commands of a json list read from stdin through cli.main, in one process
DRIVER = """import json, sys
from iplfilter.cli import main
for argv in json.load(sys.stdin):
    if main(argv) != 0:
        sys.exit(" ".join(argv) + " failed")
"""


def run_walkthrough(tree: Path, run_root: Path, epochs: int | None) -> None:
    """The walk-through in ``run_root``, one process with ``tree``'s ``src`` on the path."""
    run_root.mkdir(parents=True)
    commands = [[*argv, "--seed", "0"] for argv in walkthrough(epochs)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", DRIVER], input=json.dumps(commands), cwd=run_root,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {proc.stderr.strip()}")


def digests(run_root: Path) -> dict[str, str]:
    """sha256 of every file under ``run_root`` but ``timings.txt``, by relative path."""
    return {p.relative_to(run_root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_root.rglob("*")) if p.is_file() and p.name != IGNORED}


def allowed(path: str, allow) -> bool:
    return any(path == a or path.startswith(a.rstrip("/") + "/") for a in allow)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare the working tree with")
    ap.add_argument("--epochs", type=int, help="training epochs of every command that trains")
    ap.add_argument("--allow", nargs="+", default=[], metavar="PATH",
                    help="run-root paths (files or directories) that may differ")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as td:
        trees = {"base": export_tree(args.base, Path(td) / "base"), "change": ROOT}
        sides = {}
        for name, tree in trees.items():
            run_walkthrough(tree, Path(td) / f"runs-{name}", args.epochs)
            sides[name] = digests(Path(td) / f"runs-{name}")
    base, change = sides["base"], sides["change"]
    differ = sorted(p for p in base.keys() | change.keys() if base.get(p) != change.get(p))
    for path in differ:
        note = " (allowed)" if allowed(path, args.allow) else ""
        print(f"{path}  base {base.get(path, '-')}  change {change.get(path, '-')}{note}")
    print(f"{len(differ)} of {len(base.keys() | change.keys())} files differ ({IGNORED} ignored)")
    return 1 if any(not allowed(p, args.allow) for p in differ) else 0


if __name__ == "__main__":
    sys.exit(main())
