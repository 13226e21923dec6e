import json
from pathlib import Path

import pytest

from iplfilter.cli import main
from iplfilter.corpus import load_manifest
from iplfilter.pseudolabel import load_pseudolabels

TINY_CORPUS = [
    "--n-labeled", "4", "--n-unlabeled", "8", "--n-dev", "6", "--n-test", "6",
]
FAST_TRAIN = ["--epochs", "6"]


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    assert main(["gen-corpus", "--out-dir", str(d), "--seed", "3", *TINY_CORPUS]) == 0
    return d


def read_config(run_dir):
    return json.loads((Path(run_dir) / "config.json").read_text())


class TestGenCorpus:
    def test_writes_loadable_manifest_and_snapshot(self, corpus_dir):
        splits = load_manifest(corpus_dir)
        assert len(splits.labeled) == 4
        snap = read_config(corpus_dir)
        assert snap["command"] == "gen-corpus"
        assert snap["config"]["n_labeled"] == 4
        assert "out_dir" not in snap["config"]

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen-corpus", "--out-dir", str(tmp_path / "x"), "--vocab-size", "1"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigurationError"

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-corpus", "--out-dir", str(tmp_path), "--bogus", "1"])
        assert exc.value.code == 2


class TestTrainTeacher:
    def test_writes_model_and_report(self, corpus_dir, tmp_path):
        run = tmp_path / "teacher"
        rc = main(["train-teacher", "--corpus", str(corpus_dir), "--out-dir", str(run), *FAST_TRAIN])
        assert rc == 0
        for name in ("teacher_model.json", "teacher_report.jsonl", "summary.txt", "config.json"):
            assert (run / name).is_file(), name

    def test_missing_corpus_is_usage_error(self, tmp_path, capsys):
        rc = main(["train-teacher", "--corpus", str(tmp_path / "nope"), "--out-dir", str(tmp_path / "r")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "FileNotFoundError"


class TestPseudolabelAndFilter:
    @pytest.fixture()
    def labeled_run(self, corpus_dir, tmp_path):
        teacher = tmp_path / "teacher"
        main(["train-teacher", "--corpus", str(corpus_dir), "--out-dir", str(teacher), *FAST_TRAIN])
        pl_dir = tmp_path / "pl"
        rc = main([
            "pseudolabel", "--corpus", str(corpus_dir), "--out-dir", str(pl_dir),
            "--model", str(teacher / "teacher_model.json"), "--annotate-oracle",
        ])
        assert rc == 0
        return pl_dir / "pseudolabels.jsonl"

    def test_pseudolabel_output(self, corpus_dir, labeled_run):
        pls = load_pseudolabels(labeled_run)
        splits = load_manifest(corpus_dir)
        assert [p.utterance_id for p in pls] == [fs.utterance_id for fs in splits.unlabeled]
        assert all(p.oracle_wer is not None for p in pls)

    def test_filter_requires_exactly_one_mode(self, labeled_run, tmp_path, capsys):
        base = ["filter", "--pseudo-labels", str(labeled_run), "--out-dir", str(tmp_path / "f")]
        assert main(base) == 2
        assert main(base + ["--score-threshold", "-0.1", "--max-wer", "0.1"]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "exactly one" in err["message"]

    def test_mismatched_checkpoint_is_usage_error(self, corpus_dir, tmp_path, capsys):
        teacher = tmp_path / "teacher"
        main(["train-teacher", "--corpus", str(corpus_dir), "--out-dir", str(teacher), *FAST_TRAIN])
        rec = json.loads((teacher / "teacher_model.json").read_text())
        rec["feature_dim"] += 1
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(rec))
        capsys.readouterr()
        rc = main(["pseudolabel", "--corpus", str(corpus_dir), "--out-dir", str(tmp_path / "pl"),
                   "--model", str(bad)])
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigurationError" and "parameter W has shape" in err["message"]

    def test_score_filter_file(self, labeled_run, tmp_path):
        out = tmp_path / "f1"
        rc = main(["filter", "--pseudo-labels", str(labeled_run),
                   "--score-threshold", "-0.2", "--out-dir", str(out)])
        assert rc == 0
        kept = load_pseudolabels(out / "filtered.jsonl")
        assert all(p.score > -0.2 for p in kept)

    def test_wer_filter_writes_annotated_sidecar(self, corpus_dir, labeled_run, tmp_path):
        out = tmp_path / "f2"
        rc = main(["filter", "--pseudo-labels", str(labeled_run), "--corpus", str(corpus_dir),
                   "--max-wer", "0.5", "--out-dir", str(out)])
        assert rc == 0
        kept = load_pseudolabels(out / "filtered.jsonl")
        annotated = load_pseudolabels(out / "annotated.jsonl")
        assert all(p.oracle_wer < 0.5 for p in kept)
        assert len(annotated) >= len(kept)


class TestIplCommand:
    def test_degenerate_run_equals_teacher(self, corpus_dir, tmp_path):
        run = tmp_path / "run"
        rc = main(["ipl", "--corpus", str(corpus_dir), "--out-dir", str(run),
                   "--iter-max", "1", "--epochs", "0"])
        assert rc == 0
        teacher_rep = (run / "teacher_report.jsonl").read_text().splitlines()[1]
        reports = (run / "reports.jsonl").read_text().splitlines()[1]
        assert json.loads(reports)["dev_wer"] == json.loads(teacher_rep)["dev_wer"]

    def test_run_dir_is_complete(self, corpus_dir, tmp_path):
        run = tmp_path / "run2"
        rc = main(["ipl", "--corpus", str(corpus_dir), "--out-dir", str(run),
                   "--iter-max", "2", "--filter-mode", "score",
                   "--score-threshold", "-0.3", *FAST_TRAIN])
        assert rc == 0
        for name in ("config.json", "teacher_model.json", "iter-01.model.json",
                     "iter-02.pseudolabels.jsonl", "reports.jsonl", "summary.txt"):
            assert (run / name).is_file(), name

    def test_score_mode_without_threshold_is_usage_error(self, corpus_dir, tmp_path):
        rc = main(["ipl", "--corpus", str(corpus_dir), "--out-dir", str(tmp_path / "x"),
                   "--filter-mode", "score"])
        assert rc == 2


class TestSweepAndReport:
    def test_sweep_then_report(self, corpus_dir, tmp_path):
        run = tmp_path / "sweep"
        rc = main(["sweep", "--corpus", str(corpus_dir), "--out-dir", str(run),
                   "--initial", "-0.2", "--step", "0.2",
                   "--iters-per-update", "1", "--max-updates", "2", *FAST_TRAIN])
        assert rc == 0
        sweep = json.loads((run / "sweep.json").read_text())
        assert len(sweep["thresholds"]) == len(sweep["best_dev_wer_per_threshold"])

        rep = tmp_path / "report"
        assert main(["report", "--run-dir", str(run), "--out-dir", str(rep)]) == 0
        text = (rep / "report_summary.txt").read_text()
        for thr in sweep["thresholds"]:
            assert f"{thr:.4f}" in text
        assert "*" in text  # best row marked
        assert (rep / "score_hist.jsonl").is_file()
        assert (rep / "scatter.jsonl").is_file()

    def test_report_on_empty_dir_fails_usage(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--run-dir", str(empty), "--out-dir", str(tmp_path / "o")]) == 2


class TestEstimateCommand:
    def test_writes_estimate_artifacts(self, corpus_dir, tmp_path):
        run = tmp_path / "est"
        rc = main(["estimate-threshold", "--corpus", str(corpus_dir), "--out-dir", str(run),
                   "--min-probe", "5", *FAST_TRAIN])
        assert rc == 0
        est = json.loads((run / "estimate.json").read_text())
        assert est["threshold"] <= 0.0
        assert (run / "probe_pseudolabels.jsonl").is_file()

    def test_probe_too_small_is_usage_error(self, corpus_dir, tmp_path):
        rc = main(["estimate-threshold", "--corpus", str(corpus_dir),
                   "--out-dir", str(tmp_path / "e2"), "--min-probe", "50", *FAST_TRAIN])
        assert rc == 2


class TestSnapshotRelaunch:
    def test_gen_corpus_relaunch_identical(self, corpus_dir, tmp_path):
        clone = tmp_path / "clone"
        rc = main(["gen-corpus", "--config", str(corpus_dir / "config.json"), "--out-dir", str(clone)])
        assert rc == 0
        for name in ("meta.json", "labeled.jsonl", "unlabeled.jsonl", "dev.jsonl",
                     "test.jsonl", "unlabeled_refs.jsonl", "config.json"):
            assert (clone / name).read_bytes() == (corpus_dir / name).read_bytes(), name

    def test_snapshot_command_mismatch_rejected(self, corpus_dir, tmp_path):
        rc = main(["ipl", "--config", str(corpus_dir / "config.json"),
                   "--corpus", str(corpus_dir), "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_flag_overrides_snapshot(self, corpus_dir, tmp_path):
        other = tmp_path / "other"
        rc = main(["gen-corpus", "--config", str(corpus_dir / "config.json"),
                   "--out-dir", str(other), "--seed", "4"])
        assert rc == 0
        assert read_config(other)["config"]["seed"] == 4
        assert (other / "labeled.jsonl").read_bytes() != (corpus_dir / "labeled.jsonl").read_bytes()
