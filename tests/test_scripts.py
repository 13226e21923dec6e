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
