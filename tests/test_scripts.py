"""The scripts run end to end against the current library API."""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import bench_pair
import pytest
import same_outputs
import study

ROOT = Path(__file__).resolve().parents[1]
ROW_FIELDS = {
    "compare": {"seed", "teacher_dev", "teacher_test",
                *(f"{mode}_{x}" for mode in ("none", "score", "wer") for x in ("dev", "test", "kept_last"))},
    "threshold": {"seed", "sweep_threshold", "sweep_declined", "thresholds", "best_dev_wer_per_threshold",
                  "sweep_iterations", "estimate", "within_one_step", "probe_size", "wer_kept",
                  "wer_kept_positions", "score_kept", "overlap_jaccard", "overlap_min_ratio"},
}


@pytest.mark.parametrize("mode", ["compare", "threshold"])
def test_study_runs_one_short_seed(mode, tmp_path):
    out = tmp_path / "rows.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "study.py"), mode, "--seeds", "0", "--epochs", "1",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("seed 0: ")
    header, *lines = out.read_text(encoding="utf-8").splitlines()
    assert json.loads(header) == {"schema": f"study-{mode}", "version": 1}
    rows = [json.loads(line) for line in lines]
    assert [row["seed"] for row in rows] == [0]
    assert set(rows[0]) == ROW_FIELDS[mode]


def test_study_pool_changes_no_row():
    opts = argparse.Namespace(**{**vars(study.build_parser().parse_args(["compare", "--epochs", "1"])),
                                 **vars(study.build_parser().parse_args(["threshold", "--epochs", "1"]))})
    jobs = [(job, seed) for job in (study.compare, study.threshold) for seed in (0, 1)]
    rows, _ = study.run(jobs, opts)
    assert rows == [job(seed, opts) for job, seed in jobs]


@pytest.mark.parametrize("argv", [["threshold", "--step", "0"], ["compare", "--iter-max", "0"],
                                  ["compare", "--score-threshold", "nan"], ["threshold", "--coverage", "2"],
                                  ["compare", "--seeds", "-1"], ["compare", "--noise-sigma", "nan"]])
def test_study_refuses_a_bad_option_before_any_job(argv, monkeypatch, capsys):
    monkeypatch.setattr(study, "run", lambda *_: pytest.fail("a job started"))
    with pytest.raises(SystemExit) as exc:
        study.main([*argv, "--seeds", "0", "--epochs", "1"])
    assert exc.value.code == 2
    assert f"argument {argv[1]}: " in capsys.readouterr().err


def test_threshold_summary_leaves_seeds_keeping_nothing_out_of_the_mean_overlap(capsys):
    row = {"sweep_threshold": -0.05, "estimate": -0.06, "within_one_step": True}
    study.threshold_summary([{**row, "seed": 0, "wer_kept": 10, "score_kept": 8, "overlap_jaccard": 0.6},
                             {**row, "seed": 1, "wer_kept": 0, "score_kept": 0, "overlap_jaccard": 1.0}])
    lines = capsys.readouterr().out.splitlines()
    assert "both filters keep nothing on seeds [1]; left out of the mean overlap" in lines
    assert lines[-1] == "mean jaccard overlap 0.600"


def test_bench_pair_summarizes_only_the_named_workloads():
    run = {"setup_s": 1.0, "run_s": 2.0, "train_utt_per_s": 10.0, "peak_rss_mb": 50.0}
    pairs = [{"workload": "cli-pipeline", "seed": seed, "base": run, "change": {**run, "run_s": 1.5}}
             for seed in (1, 2)]
    summary = bench_pair.summarize(pairs, ["cli-pipeline"])
    assert {key.split("/")[0] for key in summary} == {"cli-pipeline"}
    assert summary["cli-pipeline/run_s"]["change_better_pairs"] == "2/2"
    assert summary["cli-pipeline/run_s"]["base_quartiles"] == [2.0, 2.0]


def test_bench_pair_rejects_an_unknown_workload(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--base", "HEAD", "--out", "x.json", "--workloads", "no-such-workload"])
    assert exc.value.code == 2
    assert "no-such-workload" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and the repository")
def test_same_outputs_finds_no_difference_against_head():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_outputs.py"), "--base", "HEAD", "--epochs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("0 of "), proc.stdout
    assert proc.stdout.rstrip().endswith("files differ (timings.txt ignored)")


def test_same_outputs_allows_a_named_file_or_directory():
    allowed = same_outputs.allowed
    assert allowed("ipl/summary.txt", ["ipl/summary.txt"])
    assert allowed("ipl/summary.txt", ["ipl/"]) and allowed("ipl/summary.txt", ["ipl"])
    assert not allowed("ipl-wer/summary.txt", ["ipl"])
    assert not allowed("ipl/summary.txt", [])
