"""Both modes of the study script run end to end against the current library API."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROW_FIELDS = {
    "compare": {"seed", "teacher_dev", "teacher_test",
                *(f"{mode}_{x}" for mode in ("none", "score", "wer") for x in ("dev", "test", "kept_last"))},
    "threshold": {"seed", "sweep_threshold", "sweep_declined", "estimate", "within_one_step",
                  "wer_kept", "score_kept", "overlap_jaccard", "overlap_min_ratio"},
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


def _bench_pair():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_pair
    finally:
        sys.path.pop(0)
    return bench_pair


def test_bench_pair_summarizes_only_the_named_workloads():
    bench_pair = _bench_pair()
    run = {"setup_s": 1.0, "run_s": 2.0, "train_utt_per_s": 10.0, "peak_rss_mb": 50.0}
    pairs = [{"workload": "cli-pipeline", "seed": seed, "base": run, "change": {**run, "run_s": 1.5}}
             for seed in (1, 2)]
    summary = bench_pair.summarize(pairs, ["cli-pipeline"])
    assert {key.split("/")[0] for key in summary} == {"cli-pipeline"}
    assert summary["cli-pipeline/run_s"]["change_better_pairs"] == "2/2"
    assert summary["cli-pipeline/run_s"]["base_quartiles"] == [2.0, 2.0]


def test_bench_pair_rejects_an_unknown_workload(capsys):
    with pytest.raises(SystemExit) as exc:
        _bench_pair().main(["--base", "HEAD", "--out", "x.json", "--workloads", "no-such-workload"])
    assert exc.value.code == 2
    assert "no-such-workload" in capsys.readouterr().err
