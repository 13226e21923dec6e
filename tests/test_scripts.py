"""The study scripts run end to end against the current library API."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_threshold_study.py", "run_filter_comparison.py"])
def test_script_runs_one_short_seed(script, tmp_path):
    out = tmp_path / "rows.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--seeds", "0", "--epochs", "1",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [row["seed"] for row in rows] == [0]
