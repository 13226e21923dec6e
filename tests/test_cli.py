import argparse
import base64
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from iplfilter import cli, pipeline
from iplfilter.cli import build_parser, main
from iplfilter.corpus import LabelSequence, load_manifest
from iplfilter.pipeline import load_run
from iplfilter.pseudolabel import PseudoLabel, load_pseudolabels, save_pseudolabels
from test_pseudolabel import columns

TINY_CORPUS = [
    "--n-labeled", "4", "--n-unlabeled", "8", "--n-dev", "6", "--n-test", "6",
]
FAST_TRAIN = ["--epochs", "6"]


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    assert main(["gen-corpus", "--out-dir", str(d), "--seed", "3", *TINY_CORPUS]) == 0
    return d


def _frame_values(rec) -> list:
    """A manifest record's frame values, as a flat list."""
    return np.frombuffer(base64.b64decode(rec["frames"]), "<f8").tolist()


def _frames_text(values) -> str:
    """Flat frame values as a manifest record's ``frames`` text."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def read_config(run_dir):
    return json.loads((Path(run_dir) / "config.json").read_text())


def run_files(run_dir):
    """Every artifact of a run directory except the timing record."""
    return {p.name: p.read_bytes() for p in sorted(Path(run_dir).iterdir()) if p.name != "timings.txt"}


def usage_error(capsys):
    """The one-line JSON error record a usage failure prints to stderr."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


COMMON_FLAGS = {"--config", "--out-dir", "--seed"}
TRAIN_FLAGS = {"--corpus", "--hidden-dim", "--epochs", "--batch-size", "--base-lr",
               "--optimizer", "--warmup-frac", "--hold-frac"}
FLAG_SETS = {
    "gen-corpus": {"--vocab-size", "--feature-dim", "--label-len-min", "--label-len-max",
                   "--frames-per-token-min", "--frames-per-token-max", "--noise-sigma",
                   "--n-labeled", "--n-unlabeled", "--n-dev", "--n-test"},
    "train-teacher": TRAIN_FLAGS,
    "pseudolabel": {"--corpus", "--model", "--exclude-blank", "--no-exclude-blank",
                    "--annotate-oracle", "--no-annotate-oracle"},
    "filter": {"--pseudo-labels", "--corpus", "--score-threshold", "--max-wer"},
    "ipl": TRAIN_FLAGS | {"--iter-max", "--filter-mode", "--score-threshold", "--max-wer",
                          "--warm-start", "--no-warm-start", "--pseudo-weight",
                          "--exclude-blank", "--no-exclude-blank"},
    "sweep": TRAIN_FLAGS | {"--initial", "--step", "--iters-per-update", "--max-updates",
                            "--warm-start", "--no-warm-start", "--pseudo-weight",
                            "--exclude-blank", "--no-exclude-blank"},
    "estimate-threshold": TRAIN_FLAGS | {"--model", "--max-wer", "--coverage", "--min-probe",
                                         "--probe", "--probe-size", "--exclude-blank",
                                         "--no-exclude-blank", "--bins"},
    "report": {"--run-dir", "--bins"},
}


def test_each_command_has_exactly_its_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FLAG_SETS)
    for command, parser in sub.choices.items():
        flags = {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"}
        assert flags == COMMON_FLAGS | FLAG_SETS[command], command


# Every command's config keys: key -> (flag type, default). A tuple type lists the choices.
TRAIN_SURFACE = {
    "corpus": (str, None), "seed": (int, 0), "hidden_dim": (int, 0), "epochs": (int, 30),
    "batch_size": (int, 8), "base_lr": (float, 0.15), "optimizer": (("adam", "sgd"), "adam"),
    "warmup_frac": (float, 0.1), "hold_frac": (float, 0.4),
}
FLAG_SURFACE = {
    "gen-corpus": {
        "seed": (int, 0), "vocab_size": (int, 8), "feature_dim": (int, 8),
        "label_len_min": (int, 2), "label_len_max": (int, 6), "frames_per_token_min": (int, 1),
        "frames_per_token_max": (int, 4), "noise_sigma": (float, 0.5), "n_labeled": (int, 8),
        "n_unlabeled": (int, 200), "n_dev": (int, 64), "n_test": (int, 64),
    },
    "train-teacher": TRAIN_SURFACE,
    "pseudolabel": {"corpus": (str, None), "model": (str, None), "exclude_blank": (bool, False),
                    "annotate_oracle": (bool, False)},
    "filter": {"pseudo_labels": (str, None), "corpus": (str, None),
               "score_threshold": (float, None), "max_wer": (float, None)},
    "ipl": {
        **TRAIN_SURFACE, "iter_max": (int, 3), "filter_mode": (("none", "score", "wer"), "none"),
        "score_threshold": (float, None), "max_wer": (float, None), "warm_start": (bool, True),
        "pseudo_weight": (float, 1.0), "exclude_blank": (bool, False),
    },
    "sweep": {**TRAIN_SURFACE, "initial": (float, -0.05), "step": (float, 0.03),
              "iters_per_update": (int, 3), "max_updates": (int, 8), "warm_start": (bool, True),
              "pseudo_weight": (float, 1.0), "exclude_blank": (bool, False)},
    "estimate-threshold": {
        **TRAIN_SURFACE, "model": (str, None), "max_wer": (float, 0.1), "coverage": (float, 0.9),
        "min_probe": (int, 20), "probe": (("dev", "labeled"), "dev"), "probe_size": (int, None),
        "exclude_blank": (bool, False), "bins": (int, 20),
    },
    "report": {"run_dir": (str, None), "bins": (int, 20)},
}


def _flag_kind(action):
    if isinstance(action, argparse.BooleanOptionalAction):
        return bool
    return tuple(action.choices) if action.choices is not None else action.type


@pytest.mark.parametrize("command", sorted(FLAG_SURFACE))
def test_flag_surface(command, tmp_path):
    """Each config key's flag type (from the parser) and default (from config.json)."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    kinds = {a.dest: _flag_kind(a) for a in sub.choices[command]._actions
             if a.dest not in ("help", "config", "out_dir")}
    expected = FLAG_SURFACE[command]
    assert kinds == {"seed": int, **{key: kind for key, (kind, _) in expected.items()}}
    main([command, "--out-dir", str(tmp_path)])  # the snapshot is written before any input is read
    config = read_config(tmp_path)["config"]
    assert {key: (value, type(value)) for key, value in config.items()} == {
        key: (default, type(default)) for key, (_, default) in expected.items()}


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

    def test_non_finite_frame_is_usage_error(self, corpus_dir, tmp_path, capsys):
        target = corpus_dir / "labeled.jsonl"
        lines = target.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["frames"] = _frames_text([np.nan, *_frame_values(rec)[1:]])
        lines[0] = json.dumps(rec)
        target.write_text("\n".join(lines) + "\n")
        rc = main(["train-teacher", "--corpus", str(corpus_dir), "--out-dir", str(tmp_path / "r"),
                   *FAST_TRAIN])
        assert rc == 2
        err = usage_error(capsys)
        assert err["error"] == "ManifestError"
        assert err["message"].startswith(f"{target}:1: utterance lab-0000: non-finite")

    def test_missing_corpus_is_usage_error(self, tmp_path, capsys):
        rc = main(["train-teacher", "--corpus", str(tmp_path / "nope"), "--out-dir", str(tmp_path / "r")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "FileNotFoundError"

    def test_failed_run_keeps_its_snapshot(self, tmp_path, capsys):
        out = tmp_path / "r"
        rc = main(["train-teacher", "--corpus", str(tmp_path / "nope"), "--out-dir", str(out),
                   "--epochs", "3"])
        assert rc == 2
        assert usage_error(capsys)["error"] == "FileNotFoundError"
        assert [p.name for p in out.iterdir()] == ["config.json"]
        snap = read_config(out)
        assert snap["command"] == "train-teacher"
        assert snap["config"]["corpus"] == str(tmp_path / "nope") and snap["config"]["epochs"] == 3


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

    @pytest.mark.parametrize("command", ["pseudolabel", "estimate-threshold"])
    def test_non_finite_checkpoint_is_usage_error_naming_file(self, corpus_dir, tmp_path, capsys,
                                                              command):
        teacher = tmp_path / "teacher"
        main(["train-teacher", "--corpus", str(corpus_dir), "--out-dir", str(teacher), "--epochs", "0"])
        rec = json.loads((teacher / "teacher_model.json").read_text())
        rec["params"]["W"][0][1] = float("nan")
        bad = tmp_path / "nan_model.json"
        bad.write_text(json.dumps(rec))
        capsys.readouterr()
        rc = main([command, "--corpus", str(corpus_dir), "--out-dir", str(tmp_path / "out"),
                   "--model", str(bad)])
        assert rc == 2
        err = usage_error(capsys)
        assert err["error"] == "ConfigurationError"
        assert err["message"] == f"{bad}: params: field 'W' item 1 is NaN, expected a finite number"

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


def timings(run_dir) -> list[str]:
    """The stage names of a run's ``timings.txt``, each line checked as ``name<TAB>N.NNNs``."""
    lines = (Path(run_dir) / "timings.txt").read_text().splitlines()
    for line in lines:
        assert re.fullmatch(r"[a-z0-9-]+\t\d+\.\d{3}s", line), line
    return [line.split("\t")[0] for line in lines]


class TestTimings:
    def test_ipl_times_the_teacher_then_each_iteration(self, corpus_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["ipl", "--corpus", str(corpus_dir), "--out-dir", str(run),
                     "--iter-max", "3", "--epochs", "1"]) == 0
        assert timings(run) == ["teacher", "iter-01", "iter-02", "iter-03"]

    def test_sweep_times_every_iteration_it_ran(self, corpus_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["sweep", "--corpus", str(corpus_dir), "--out-dir", str(run), "--epochs", "1",
                     "--iters-per-update", "2", "--max-updates", "3"]) == 0
        ran = len((run / "reports.jsonl").read_text().splitlines()) - 1
        assert timings(run) == ["teacher", *(f"iter-{t:02d}" for t in range(1, ran + 1))]

    def test_train_teacher_times_the_teacher_alone(self, corpus_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["train-teacher", "--corpus", str(corpus_dir), "--out-dir", str(run),
                     "--epochs", "1"]) == 0
        assert timings(run) == ["teacher"]

    def test_estimate_threshold_times_the_teacher_then_the_estimate(self, corpus_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["estimate-threshold", "--corpus", str(corpus_dir), "--out-dir", str(run),
                     "--epochs", "1", "--min-probe", "5"]) == 0
        assert timings(run) == ["teacher", "estimate"]

    def test_estimate_threshold_with_a_model_times_the_estimate_alone(self, corpus_dir, tmp_path):
        teacher, run = tmp_path / "teacher", tmp_path / "run"
        assert main(["train-teacher", "--corpus", str(corpus_dir), "--out-dir", str(teacher),
                     "--epochs", "1"]) == 0
        assert main(["estimate-threshold", "--corpus", str(corpus_dir), "--out-dir", str(run),
                     "--model", str(teacher / "teacher_model.json"), "--min-probe", "5"]) == 0
        assert timings(run) == ["estimate"]


class TestSweepAndReport:
    def test_ipl_flags_reach_the_sweep_config(self, corpus_dir, tmp_path, monkeypatch):
        seen = {}
        monkeypatch.setattr(cli, "sweep_threshold",
                            lambda splits, cfg, schedule, out_dir: seen.update(cfg=cfg))
        assert main(["sweep", "--corpus", str(corpus_dir), "--out-dir", str(tmp_path / "run"),
                     "--no-warm-start", "--pseudo-weight", "0.25", "--exclude-blank"]) == 0
        cfg = seen["cfg"]
        assert (cfg.warm_start, cfg.pseudo_weight, cfg.exclude_blank) == (False, 0.25, True)

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


def _estimate_with_teacher(corpus, out):
    return main(["estimate-threshold", "--corpus", str(corpus), "--out-dir", str(out),
                 "--epochs", "1", "--min-probe", "5"])


def _ipl_one_iteration(corpus, out):
    return main(["ipl", "--corpus", str(corpus), "--out-dir", str(out), "--iter-max", "1",
                 "--epochs", "1"])


class TestReusedOutDir:
    @pytest.mark.parametrize("first", [_estimate_with_teacher, _ipl_one_iteration],
                             ids=["estimate", "ipl"])
    def test_estimate_with_a_model_over_an_earlier_run(self, corpus_dir, tmp_path, first):
        teacher, run, rep = tmp_path / "teacher", tmp_path / "run", tmp_path / "report"
        assert main(["train-teacher", "--corpus", str(corpus_dir), "--out-dir", str(teacher),
                     "--epochs", "1"]) == 0
        assert first(corpus_dir, run) == 0
        assert main(["estimate-threshold", "--corpus", str(corpus_dir), "--out-dir", str(run),
                     "--model", str(teacher / "teacher_model.json"), "--min-probe", "5"]) == 0
        assert main(["report", "--run-dir", str(run), "--out-dir", str(rep)]) == 0
        summary = (run / "summary.txt").read_text()
        assert (rep / "report_summary.txt").read_text() == summary
        assert summary.startswith("estimated threshold ")
        assert not (run / "teacher_report.jsonl").exists() and not (run / "reports.jsonl").exists()

    def test_a_run_keeps_files_it_does_not_write(self, corpus_dir, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "notes.txt").write_text("kept\n")
        assert _ipl_one_iteration(corpus_dir, run) == 0
        assert (run / "notes.txt").read_text() == "kept\n"
        assert read_config(run)["command"] == "ipl"
        assert (run / "summary.txt").is_file()

    def test_a_failed_iteration_leaves_the_reports_before_it_and_no_summary(
            self, corpus_dir, tmp_path, capsys, monkeypatch):
        calls = []

        def one_iteration(*args):
            calls.append(args[3])
            if len(calls) == 2:
                raise RuntimeError("iteration 2 failed")
            return run_one_iteration(*args)

        run_one_iteration = pipeline._run_one_iteration
        monkeypatch.setattr(pipeline, "_run_one_iteration", one_iteration)
        run = tmp_path / "run"
        assert main(["ipl", "--corpus", str(corpus_dir), "--out-dir", str(run), "--iter-max", "3",
                     "--epochs", "1"]) == 1
        assert calls == [1, 2]
        assert [r.iteration for r in load_run(run).reports] == [1]
        assert not (run / "summary.txt").exists()
        capsys.readouterr()
        rep = tmp_path / "report"
        assert main(["report", "--run-dir", str(run), "--out-dir", str(rep)]) == 2
        assert usage_error(capsys) == {
            "error": "ConfigurationError",
            "message": f"{run / 'summary.txt'}: missing file; the run did not finish"}
        assert [p.name for p in rep.iterdir()] == ["config.json"]


# Every kind of run directory: (name, argv in the run root, to which --corpus and --out-dir are added)
RUN_KINDS = {
    "teacher": lambda d: ["train-teacher", "--epochs", "2"],
    "ipl-none": lambda d: ["ipl", "--epochs", "2", "--iter-max", "2"],
    "ipl-score": lambda d: ["ipl", "--epochs", "2", "--iter-max", "2", "--filter-mode", "score",
                            "--score-threshold", "-0.5"],
    "ipl-wer": lambda d: ["ipl", "--epochs", "2", "--iter-max", "2", "--filter-mode", "wer",
                          "--max-wer", "0.5"],
    "sweep": lambda d: ["sweep", "--epochs", "2", "--initial", "-0.2", "--step", "0.2",
                        "--iters-per-update", "1", "--max-updates", "2"],
    "estimate": lambda d: ["estimate-threshold", "--epochs", "2", "--min-probe", "5"],
    "estimate-model": lambda d: ["estimate-threshold", "--min-probe", "5",
                                 "--model", d / "teacher" / "teacher_model.json"],
}


class TestReportOnEveryRunKind:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("kinds")
        corpus = root / "corpus"
        assert main(["gen-corpus", "--out-dir", str(corpus), *TINY_CORPUS]) == 0
        for name, argv in RUN_KINDS.items():
            assert main([str(a) for a in argv(root)] + ["--corpus", str(corpus),
                                                        "--out-dir", str(root / name)]) == 0, name
        return root

    @pytest.mark.parametrize("kind", list(RUN_KINDS))
    def test_report_summary_is_the_run_summary(self, runs, tmp_path, kind):
        rep = tmp_path / "report"
        assert main(["report", "--run-dir", str(runs / kind), "--out-dir", str(rep)]) == 0
        summary = (runs / kind / "summary.txt").read_text()
        assert (rep / "report_summary.txt").read_bytes() == (runs / kind / "summary.txt").read_bytes()
        # every run that trained a teacher starts with it
        if kind == "estimate-model":
            assert summary.startswith("estimated threshold ")
        else:
            teacher = json.loads((runs / kind / "teacher_report.jsonl").read_text().splitlines()[1])
            assert summary.splitlines()[0] == (f"teacher dev_wer {teacher['dev_wer']:.4f} "
                                               f"test_wer {teacher['test_wer']:.4f}")


def _set_line(path, lineno, edit):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")


def _edit_record(edit):
    def apply(line):
        rec = json.loads(line)
        edit(rec)
        return json.dumps(rec)
    return apply


# (file to damage, how) -> each must make `report` on the file's run a usage error naming the file
MALFORMED_RUNS = {
    "bad-json-line": ("sweep/reports.jsonl", lambda p: _set_line(p, 2, lambda line: line[:-3])),
    "array-line": ("sweep/reports.jsonl", lambda p: _set_line(p, 2, lambda line: "[1, 2]")),
    "unknown-field": ("sweep/reports.jsonl", lambda p: _set_line(p, 2, _edit_record(
        lambda rec: rec.update(bogus=1)))),
    "missing-field": ("sweep/reports.jsonl", lambda p: _set_line(p, 2, _edit_record(
        lambda rec: rec.pop("dev_wer")))),
    "wrong-type": ("sweep/reports.jsonl", lambda p: _set_line(p, 2, _edit_record(
        lambda rec: rec.update(dev_wer="x")))),
    "bool-for-number": ("sweep/reports.jsonl", lambda p: _set_line(p, 2, _edit_record(
        lambda rec: rec.update(iteration=True, kept=False, dev_wer=True)))),
    "header-only": ("sweep/reports.jsonl",
                    lambda p: p.write_text(p.read_text().splitlines()[0] + "\n")),
    "sweep-bad-json": ("sweep/sweep.json", lambda p: _set_line(p, 1, lambda line: line[:-3])),
    "sweep-array": ("sweep/sweep.json", lambda p: p.write_text("[1, 2]\n")),
    "sweep-missing-keys": ("sweep/sweep.json", lambda p: _set_line(p, 1, _edit_record(
        lambda rec: rec.pop("thresholds")))),
    "sweep-wrong-type": ("sweep/sweep.json", lambda p: _set_line(p, 1, _edit_record(
        lambda rec: rec.update(thresholds=1)))),
    "sweep-null-entry": ("sweep/sweep.json", lambda p: _set_line(p, 1, _edit_record(
        lambda rec: rec.update(best_dev_wer_per_threshold=[None])))),
    "sweep-bool-entry": ("sweep/sweep.json", lambda p: _set_line(p, 1, _edit_record(
        lambda rec: rec.update(best_dev_wer_per_threshold=[True])))),
    "sweep-length-mismatch": ("sweep/sweep.json", lambda p: _set_line(p, 1, _edit_record(
        lambda rec: rec["best_dev_wer_per_threshold"].append(0.5)))),
    "sweep-best-not-listed": ("sweep/sweep.json", lambda p: _set_line(p, 1, _edit_record(
        lambda rec: rec.update(best_threshold=rec["thresholds"][0] - 1)))),
    "estimate-bad-json": ("est/estimate.json", lambda p: _set_line(p, 1, lambda line: line[:-3])),
    "estimate-array": ("est/estimate.json", lambda p: p.write_text("[1, 2]\n")),
    "estimate-wrong-type": ("est/estimate.json", lambda p: _set_line(p, 1, _edit_record(
        lambda rec: rec.update(threshold="x")))),
    "estimate-bool-for-number": ("est/estimate.json", lambda p: _set_line(p, 1, _edit_record(
        lambda rec: rec.update(threshold=True)))),
    "teacher-bool-for-number": ("sweep/teacher_report.jsonl", lambda p: _set_line(p, 2, _edit_record(
        lambda rec: rec.update(test_wer=False)))),
    "teacher-loss-curve-entry": ("sweep/teacher_report.jsonl", lambda p: _set_line(p, 2, _edit_record(
        lambda rec: rec["loss_curve"].append("x")))),
    "teacher-two-records": ("est/teacher_report.jsonl",
                            lambda p: p.write_text(p.read_text() + p.read_text().splitlines()[1] + "\n")),
    # written last: a run without it did not finish
    "summary-missing": ("sweep/summary.txt", lambda p: p.unlink()),
}


class TestReportOnMalformedRun:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("malformed")
        corpus = root / "corpus"
        assert main(["gen-corpus", "--out-dir", str(corpus), *TINY_CORPUS]) == 0
        assert main(["sweep", "--corpus", str(corpus), "--out-dir", str(root / "sweep"),
                     "--epochs", "0", "--iters-per-update", "1", "--max-updates", "1"]) == 0
        assert main(["estimate-threshold", "--corpus", str(corpus), "--out-dir", str(root / "est"),
                     "--epochs", "0", "--min-probe", "5"]) == 0
        return root

    @pytest.mark.parametrize("case", sorted(MALFORMED_RUNS))
    def test_malformed_run_dir_is_usage_error(self, runs, tmp_path, capsys, case):
        name, damage = MALFORMED_RUNS[case]
        root = tmp_path / "runs"
        shutil.copytree(runs, root)
        damage(root / name)
        capsys.readouterr()
        run = root / name.split("/")[0]
        assert main(["report", "--run-dir", str(run), "--out-dir", str(tmp_path / "rep")]) == 2
        err = usage_error(capsys)
        assert err["error"] == "ConfigurationError"
        assert str(root / name) in err["message"]


# A frames field that is not base64 text (the text-float list format among them), or whose
# bytes hold a NaN
_FRAMES_FIELDS = {"bool": lambda rec: True, "string": lambda rec: "1.5", "null": lambda rec: None,
                  "list": _frame_values,
                  "nan": lambda rec: _frames_text([np.nan, *_frame_values(rec)[1:]])}
FRAME_DAMAGES = {name: _edit_record(lambda rec, f=f: rec.update(frames=f(rec)))
                 for name, f in _FRAMES_FIELDS.items()}

# A pseudo-label token outside the corpus's vocabulary, too large for the edit distance's int32
# or for a C long among them
TOKEN_DAMAGES = {name: _edit_record(lambda rec, t=t: rec.update(tokens=[1, t]))
                 for name, t in {"2**40": 2**40, "2**70": 2**70, "99": 99}.items()}

# An empty transcript in a split with labels; an oracle WER no run writes
EMPTY_TRANSCRIPT = {"empty-transcript": _edit_record(lambda rec: rec.update(tokens=[]))}
WER_DAMAGES = {name: _edit_record(lambda rec, w=w: rec.update(oracle_wer=w))
               for name, w in {"nan": float("nan"), "inf": float("inf"), "negative": -0.5}.items()}

# Every other artifact a command reads: (file, line to damage, error, argv in the copied root),
# damaged in each way DAMAGES names, or in each way of a fifth element
DAMAGED_INPUTS = {
    "meta": ("corpus/meta.json", 1, "ManifestError",
             lambda d: ["train-teacher", "--corpus", d / "corpus", "--epochs", "0"]),
    "split-line": ("corpus/labeled.jsonl", 2, "ManifestError",
                   lambda d: ["train-teacher", "--corpus", d / "corpus", "--epochs", "0"]),
    "unlabeled-line": ("corpus/unlabeled.jsonl", 1, "ManifestError",
                       lambda d: ["pseudolabel", "--corpus", d / "corpus",
                                  "--model", d / "teacher" / "teacher_model.json"]),
    "refs-line": ("corpus/unlabeled_refs.jsonl", 1, "ManifestError",
                  lambda d: ["filter", "--pseudo-labels", d / "pl" / "pseudolabels.jsonl",
                             "--corpus", d / "corpus", "--max-wer", "0.5"]),
    "pseudo-label-header": ("pl/pseudolabels.jsonl", 1, "ManifestError",
                            lambda d: ["filter", "--pseudo-labels", d / "pl" / "pseudolabels.jsonl",
                                       "--score-threshold", "-0.1"]),
    "pseudo-label-line": ("pl/pseudolabels.jsonl", 2, "ManifestError",
                          lambda d: ["filter", "--pseudo-labels", d / "pl" / "pseudolabels.jsonl",
                                     "--score-threshold", "-0.1"]),
    "checkpoint": ("teacher/teacher_model.json", 1, "ConfigurationError",
                   lambda d: ["pseudolabel", "--corpus", d / "corpus",
                              "--model", d / "teacher" / "teacher_model.json"]),
    "config": ("teacher/config.json", 1, "ConfigurationError",
               lambda d: ["train-teacher", "--config", d / "teacher" / "config.json"]),
    "frame-value": ("corpus/unlabeled.jsonl", 2, "ManifestError",
                    lambda d: ["pseudolabel", "--corpus", d / "corpus",
                               "--model", d / "teacher" / "teacher_model.json"], FRAME_DAMAGES),
    "pseudo-label-token": ("pl/pseudolabels.jsonl", 2, "ManifestError",
                           lambda d: ["filter", "--pseudo-labels", d / "pl" / "pseudolabels.jsonl",
                                      "--corpus", d / "corpus", "--max-wer", "0.5"],
                           TOKEN_DAMAGES),
    "labeled-transcript": ("corpus/labeled.jsonl", 1, "ManifestError",
                           lambda d: ["train-teacher", "--corpus", d / "corpus", "--epochs", "0"],
                           EMPTY_TRANSCRIPT),
    "dev-transcript": ("corpus/dev.jsonl", 1, "ManifestError",
                       lambda d: ["estimate-threshold", "--corpus", d / "corpus", "--epochs", "0",
                                  "--min-probe", "5"], EMPTY_TRANSCRIPT),
    "test-transcript": ("corpus/test.jsonl", 2, "ManifestError",
                        lambda d: ["train-teacher", "--corpus", d / "corpus", "--epochs", "0"],
                        EMPTY_TRANSCRIPT),
    "pseudo-label-wer-score": ("pl/pseudolabels.jsonl", 2, "ManifestError",
                               lambda d: ["filter", "--pseudo-labels", d / "pl" / "pseudolabels.jsonl",
                                          "--score-threshold", "-0.1"], WER_DAMAGES),
    "pseudo-label-wer-oracle": ("pl/pseudolabels.jsonl", 2, "ManifestError",
                                lambda d: ["filter", "--pseudo-labels", d / "pl" / "pseudolabels.jsonl",
                                           "--corpus", d / "corpus", "--max-wer", "0.5"], WER_DAMAGES),
    "probe-wer": ("est/probe_pseudolabels.jsonl", 2, "ManifestError",
                  lambda d: ["report", "--run-dir", d / "est"], WER_DAMAGES),
}
DAMAGES = {"invalid-json": lambda line: line[: len(line) // 2], "array": lambda line: "[1, 2]"}


def _damages(case):
    return (DAMAGED_INPUTS[case][4:] or (DAMAGES,))[0]


class TestDamagedInput:
    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        corpus, teacher = root / "corpus", root / "teacher"
        assert main(["gen-corpus", "--out-dir", str(corpus), *TINY_CORPUS]) == 0
        assert main(["train-teacher", "--corpus", str(corpus), "--out-dir", str(teacher),
                     "--epochs", "0"]) == 0
        assert main(["pseudolabel", "--corpus", str(corpus), "--out-dir", str(root / "pl"),
                     "--model", str(teacher / "teacher_model.json"), "--annotate-oracle"]) == 0
        assert main(["estimate-threshold", "--corpus", str(corpus), "--out-dir", str(root / "est"),
                     "--epochs", "0", "--min-probe", "5"]) == 0
        return root

    @pytest.mark.parametrize("case, damage", [(case, damage) for case in sorted(DAMAGED_INPUTS)
                                              for damage in sorted(_damages(case))])
    def test_damaged_input_is_usage_error(self, world, tmp_path, capsys, case, damage):
        name, lineno, error, argv = DAMAGED_INPUTS[case][:4]
        root = tmp_path / "world"
        shutil.copytree(world, root)
        _set_line(root / name, lineno, _damages(case)[damage])
        capsys.readouterr()
        rc = main([str(a) for a in argv(root)] + ["--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = usage_error(capsys)
        assert err["error"] == error
        assert str(root / name) in err["message"]

    def test_empty_dev_transcript_is_usage_error_before_any_output(self, world, tmp_path, capsys):
        # it once trained a teacher, then failed to bin the probe's infinite WERs with exit 1
        root = tmp_path / "world"
        shutil.copytree(world, root)
        dev = root / "corpus" / "dev.jsonl"
        _set_line(dev, 1, EMPTY_TRANSCRIPT["empty-transcript"])
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["estimate-threshold", "--corpus", str(root / "corpus"), "--out-dir", str(out),
                     "--epochs", "0", "--min-probe", "5"]) == 2
        assert usage_error(capsys) == {
            "error": "ManifestError", "message": f"{dev}:1: utterance 'dev-0000': empty transcript"}
        assert [p.name for p in out.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("wer, message", [
        (-0.5, "oracle_wer must be >= 0, got -0.5"),
    ])
    def test_bad_oracle_wer_names_its_line(self, world, tmp_path, capsys, wer, message):
        # filter --score-threshold once copied a NaN through and let -0.5 pass
        pls = tmp_path / "pseudolabels.jsonl"
        shutil.copy(world / "pl" / "pseudolabels.jsonl", pls)
        _set_line(pls, 3, _edit_record(lambda rec: rec.update(oracle_wer=wer)))
        capsys.readouterr()
        assert main(["filter", "--pseudo-labels", str(pls), "--score-threshold", "-1",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert usage_error(capsys) == {"error": "ManifestError", "message": f"{pls}:3: {message}"}

    @pytest.mark.parametrize("argv", [
        lambda d: ["ipl", "--corpus", d / "corpus", "--epochs", "0", "--iter-max", "1"],
        lambda d: ["filter", "--pseudo-labels", d / "pl" / "pseudolabels.jsonl",
                   "--corpus", d / "corpus", "--max-wer", "0.5"],
    ], ids=["ipl", "filter-max-wer"])
    def test_empty_transcript_is_usage_error(self, world, tmp_path, capsys, argv):
        # any non-empty hypothesis has an infinite WER against it, which report cannot bin
        root = tmp_path / "world"
        shutil.copytree(world, root)
        refs = root / "corpus" / "unlabeled_refs.jsonl"
        _set_line(refs, 2, _edit_record(lambda rec: rec.update(tokens=[])))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([str(a) for a in argv(root)] + ["--out-dir", str(out)]) == 2
        assert usage_error(capsys) == {
            "error": "ManifestError", "message": f"{refs}:2: utterance 'unl-0001': empty transcript"}
        assert [p.name for p in out.iterdir()] == ["config.json"]

    def test_snapshot_config_member_not_object(self, world, tmp_path, capsys):
        snapshot = tmp_path / "config.json"
        shutil.copy(world / "teacher" / "config.json", snapshot)
        _set_line(snapshot, 1, _edit_record(lambda rec: rec.update(config=[1])))
        capsys.readouterr()
        rc = main(["train-teacher", "--config", str(snapshot), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = usage_error(capsys)
        assert err["error"] == "ConfigurationError"
        assert err["message"].startswith(f"{snapshot}:1: field 'config' is list")


def _with_token(line, put, token):
    """A record line with one value, placed by ``put(rec, value)``, written as the JSON text ``token``."""
    rec = json.loads(line)
    put(rec, "\0")
    return json.dumps(rec).replace(json.dumps("\0"), token)


def _set(*keys):
    """``put(rec, value)`` that sets ``rec[k1][k2]...`` to the value."""
    def put(rec, value):
        for key in keys[:-1]:
            rec = rec[key]
        rec[keys[-1]] = value
    return put


# One rule for every JSON value a command reads: exactly a type its field table lists, every
# number finite. A number in each file, set to each of RULE_VALUES and of its RULE_EXTRAS:
# (file, its line or None, what the message names, where the value goes, error, argv in the root)
RULE_VALUES = ["true", '"0.5"', "NaN", "Infinity", "-Infinity", "1e999"]
RULE_EXTRAS = {"config-int": ["null"], "config-float": ["null"]}
_TEACHER = lambda d: ["pseudolabel", "--corpus", d / "corpus", "--model", d / "teacher" / "teacher_model.json"]
_FILTER = lambda d: ["filter", "--pseudo-labels", d / "pl" / "pseudolabels.jsonl", "--score-threshold", "-1"]
_REPORT = lambda d: ["report", "--run-dir", d / "sweep"]
_CONFIG = lambda d: ["train-teacher", "--config", d / "teacher" / "config.json"]
RULE_INPUTS = {
    "meta": ("corpus/meta.json", 1, "field 'feature_dim'", _set("feature_dim"), "ManifestError",
             lambda d: ["train-teacher", "--corpus", d / "corpus", "--epochs", "0"]),
    "pseudo-label-score": ("pl/pseudolabels.jsonl", 3, "field 'score'", _set("score"), "ManifestError", _FILTER),
    "pseudo-label-oracle-wer": ("pl/pseudolabels.jsonl", 3, "field 'oracle_wer'", _set("oracle_wer"),
                                "ManifestError", _FILTER),
    "checkpoint-dimension": ("teacher/teacher_model.json", 1, "field 'feature_dim'", _set("feature_dim"),
                             "ConfigurationError", _TEACHER),
    "checkpoint-parameter": ("teacher/teacher_model.json", None, "params: field 'b' item 0",
                             _set("params", "b", 0), "ConfigurationError", _TEACHER),
    "config-int": ("teacher/config.json", 1, "config: field 'epochs'", _set("config", "epochs"),
                   "ConfigurationError", _CONFIG),
    "config-float": ("teacher/config.json", 1, "config: field 'base_lr'", _set("config", "base_lr"),
                     "ConfigurationError", _CONFIG),
    "teacher-report": ("sweep/teacher_report.jsonl", 2, "field 'test_wer'", _set("test_wer"),
                       "ConfigurationError", _REPORT),
    "iteration-report": ("sweep/reports.jsonl", 2, "field 'dev_wer'", _set("dev_wer"), "ConfigurationError",
                         _REPORT),
    "sweep-threshold": ("sweep/sweep.json", 1, "field 'thresholds' item 0", _set("thresholds", 0),
                        "ConfigurationError", _REPORT),
    "estimate": ("est/estimate.json", 1, "field 'threshold'", _set("threshold"), "ConfigurationError",
                 lambda d: ["report", "--run-dir", d / "est"]),
}


class TestValueRule:
    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rule")
        corpus, teacher = root / "corpus", root / "teacher"
        assert main(["gen-corpus", "--out-dir", str(corpus), *TINY_CORPUS]) == 0
        assert main(["train-teacher", "--corpus", str(corpus), "--out-dir", str(teacher),
                     "--epochs", "0"]) == 0
        assert main(["pseudolabel", "--corpus", str(corpus), "--out-dir", str(root / "pl"),
                     "--model", str(teacher / "teacher_model.json"), "--annotate-oracle"]) == 0
        assert main(["sweep", "--corpus", str(corpus), "--out-dir", str(root / "sweep"),
                     "--epochs", "0", "--iters-per-update", "1", "--max-updates", "1"]) == 0
        assert main(["estimate-threshold", "--corpus", str(corpus), "--out-dir", str(root / "est"),
                     "--epochs", "0", "--min-probe", "5"]) == 0
        return root

    @pytest.mark.parametrize("case, token", [(case, token) for case in RULE_INPUTS
                                             for token in RULE_VALUES + RULE_EXTRAS.get(case, [])])
    def test_value_outside_the_rule_is_usage_error_naming_file_and_field(self, world, tmp_path, capsys,
                                                                        case, token):
        name, lineno, named, put, error, argv = RULE_INPUTS[case]
        root = tmp_path / "world"
        shutil.copytree(world, root)
        _set_line(root / name, lineno or 1, lambda line: _with_token(line, put, token))
        capsys.readouterr()
        assert main([str(a) for a in argv(root)] + ["--out-dir", str(tmp_path / "out")]) == 2
        err = usage_error(capsys)
        assert err["error"] == error
        assert err["message"].startswith(f"{root / name}:{lineno}: {named} " if lineno
                                         else f"{root / name}: {named} ")


# Out-of-range flag values and unknown utterance ids: (argv in the world, text the error names)
OUT_OF_RANGE = {
    "negative-base-lr": (lambda d: ["ipl", "--corpus", d / "corpus", "--epochs", "1",
                                    "--base-lr", "-1"], "ConfigurationError", "base_lr"),
    "negative-probe-size": (lambda d: ["estimate-threshold", "--corpus", d / "corpus",
                                       "--epochs", "0", "--min-probe", "1", "--probe-size", "-5"],
                            "ConfigurationError", "--probe-size"),
    "estimate-zero-bins": (lambda d: ["estimate-threshold", "--corpus", d / "corpus",
                                      "--epochs", "0", "--min-probe", "5", "--bins", "0"],
                           "ConfigurationError", "--bins"),
    "report-zero-bins": (lambda d: ["report", "--run-dir", d / "est", "--bins", "0"],
                         "ConfigurationError", "--bins"),
    "filter-unknown-ids": (lambda d: ["filter", "--pseudo-labels", d / "stray.jsonl",
                                      "--corpus", d / "corpus", "--max-wer", "0.5"],
                           "OracleError", "stray-0"),
    "coverage-above-one": (lambda d: ["estimate-threshold", "--corpus", d / "corpus",
                                      "--epochs", "0", "--min-probe", "5", "--coverage", "2"],
                           "ConfigurationError", "coverage"),
    "negative-coverage": (lambda d: ["estimate-threshold", "--corpus", d / "corpus",
                                     "--epochs", "0", "--min-probe", "5", "--coverage", "-1"],
                          "ConfigurationError", "coverage"),
    "zero-min-probe": (lambda d: ["estimate-threshold", "--corpus", d / "corpus",
                                  "--epochs", "0", "--min-probe", "0"],
                       "ConfigurationError", "min_probe"),
    # the probe is checked before a teacher is trained and written
    "probe-size-below-min-probe": (lambda d: ["estimate-threshold", "--corpus", d / "corpus",
                                              "--epochs", "0", "--probe-size", "3",
                                              "--min-probe", "5"],
                                   "InsufficientProbeError", "probe has 3 utterances"),
    "dev-below-min-probe": (lambda d: ["estimate-threshold", "--corpus", d / "corpus",
                                       "--epochs", "1", "--min-probe", "50"],
                            "InsufficientProbeError", "need at least 50"),
    "sweep-zero-iters-per-update": (lambda d: ["sweep", "--corpus", d / "corpus",
                                               "--iters-per-update", "0"],
                                    "ConfigurationError", "iters_per_update"),
    "sweep-zero-max-updates": (lambda d: ["sweep", "--corpus", d / "corpus", "--max-updates", "0"],
                               "ConfigurationError", "max_updates"),
    # the wer filter keeps WER strictly below max_wer, so max_wer <= 0 keeps nothing; filter
    # refuses it before it opens the (here missing) pseudo-label file
    "filter-zero-max-wer": (lambda d: ["filter", "--pseudo-labels", d / "missing.jsonl",
                                       "--corpus", d / "corpus", "--max-wer", "0"],
                            "ConfigurationError", "max_wer must be > 0, got 0.0"),
    "filter-negative-max-wer": (lambda d: ["filter", "--pseudo-labels", d / "missing.jsonl",
                                           "--corpus", d / "corpus", "--max-wer", "-1"],
                                "ConfigurationError", "max_wer must be > 0, got -1.0"),
    "ipl-negative-max-wer": (lambda d: ["ipl", "--corpus", d / "corpus", "--filter-mode", "wer",
                                        "--max-wer", "-1", "--epochs", "1"],
                             "ConfigurationError", "max_wer must be > 0, got -1.0"),
    "estimate-zero-max-wer": (lambda d: ["estimate-threshold", "--corpus", d / "corpus",
                                         "--epochs", "0", "--min-probe", "5", "--max-wer", "0"],
                              "ConfigurationError", "max_wer must be > 0, got 0.0"),
    # the corpus withholds the truth the wer filter needs: checked before a teacher is trained
    "wer-mode-without-truth": (lambda d: ["ipl", "--corpus", d / "no-refs", "--filter-mode", "wer",
                                          "--max-wer", "0.1", "--epochs", "1"],
                               "OracleError", "filter mode 'wer'"),
}


# A flag value refused before config.json is written, from the command line or a --config
# file: a float flag that is not finite, or a negative --seed (argv, flag)
NON_FINITE = {
    "ipl-pseudo-weight-nan": (lambda d: ["ipl", "--corpus", d / "corpus", "--pseudo-weight", "nan"],
                              "--pseudo-weight"),
    "ipl-pseudo-weight-inf": (lambda d: ["ipl", "--corpus", d / "corpus", "--pseudo-weight", "inf"],
                              "--pseudo-weight"),
    "ipl-score-threshold": (lambda d: ["ipl", "--corpus", d / "corpus", "--filter-mode", "score",
                                       "--score-threshold", "nan"], "--score-threshold"),
    "ipl-max-wer": (lambda d: ["ipl", "--corpus", d / "corpus", "--filter-mode", "wer",
                               "--max-wer", "nan"], "--max-wer"),
    "sweep-step": (lambda d: ["sweep", "--corpus", d / "corpus", "--step", "nan"], "--step"),
    "sweep-initial": (lambda d: ["sweep", "--corpus", d / "corpus", "--initial", "nan"], "--initial"),
    "filter-score-threshold": (lambda d: ["filter", "--pseudo-labels", d / "stray.jsonl",
                                          "--score-threshold", "nan"], "--score-threshold"),
    "filter-max-wer": (lambda d: ["filter", "--pseudo-labels", d / "stray.jsonl",
                                  "--corpus", d / "corpus", "--max-wer", "nan"], "--max-wer"),
    "estimate-max-wer": (lambda d: ["estimate-threshold", "--corpus", d / "corpus",
                                    "--max-wer", "nan"], "--max-wer"),
    "estimate-coverage": (lambda d: ["estimate-threshold", "--corpus", d / "corpus",
                                     "--coverage=-inf"], "--coverage"),
    "gen-corpus-noise-sigma": (lambda d: ["gen-corpus", "--noise-sigma", "nan"], "--noise-sigma"),
    # a --config file is read by the file rule, which names the file and the key
    "config-max-wer": (lambda d: ["estimate-threshold", "--config", d / "nan-config.json",
                                  "--corpus", d / "corpus"],
                       lambda d: f"{d / 'nan-config.json'}:1: config: field 'max_wer' is NaN, "
                                 "expected a finite number"),
    "gen-corpus-negative-seed": (lambda d: ["gen-corpus", "--seed", "-1"], "--seed"),
    "train-teacher-negative-seed": (lambda d: ["train-teacher", "--corpus", d / "corpus",
                                               "--seed", "-1"], "--seed"),
    # pseudolabel takes --seed and ignores it, but not a negative one
    "pseudolabel-negative-seed": (lambda d: ["pseudolabel", "--corpus", d / "corpus",
                                             "--seed", "-1"], "--seed"),
    "config-negative-seed": (lambda d: ["gen-corpus", "--config", d / "seed-config.json"], "--seed"),
}


class TestOutOfRangeInput:
    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ranges")
        assert main(["gen-corpus", "--out-dir", str(root / "corpus"), *TINY_CORPUS]) == 0
        assert main(["estimate-threshold", "--corpus", str(root / "corpus"),
                     "--out-dir", str(root / "est"), "--epochs", "0", "--min-probe", "5"]) == 0
        save_pseudolabels(columns([PseudoLabel("stray-0", LabelSequence((1,)), -0.1)]), root / "stray.jsonl")
        write_snapshot(root / "nan-config.json", "estimate-threshold", {"max_wer": float("nan")})
        write_snapshot(root / "seed-config.json", "gen-corpus", {"seed": -1})
        shutil.copytree(root / "corpus", root / "no-refs")
        (root / "no-refs" / "unlabeled_refs.jsonl").unlink()
        return root

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_float_flag_is_usage_error_before_the_snapshot(self, world, tmp_path,
                                                                      capsys, case):
        argv, flag = NON_FINITE[case]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([str(a) for a in argv(world)] + ["--out-dir", str(out)]) == 2
        err = usage_error(capsys)
        assert err["error"] == "ConfigurationError"
        rule = ">= 0" if flag == "--seed" else "finite"
        assert err["message"].startswith(flag(world) if callable(flag) else f"{flag} must be {rule}, got ")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
    def test_is_usage_error_before_any_output(self, world, tmp_path, capsys, case):
        argv, error, named = OUT_OF_RANGE[case]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([str(a) for a in argv(world)] + ["--out-dir", str(out)]) == 2
        err = usage_error(capsys)
        assert err["error"] == error
        assert named in err["message"]
        assert [p.name for p in out.iterdir()] == ["config.json"]


class TestCorpusFilesRead:
    """A command opens the corpus files of the splits it uses, and no other."""

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("reads")
        corpus, teacher = root / "corpus", root / "teacher"
        assert main(["gen-corpus", "--out-dir", str(corpus), *TINY_CORPUS]) == 0
        assert main(["train-teacher", "--corpus", str(corpus), "--out-dir", str(teacher),
                     "--epochs", "2"]) == 0
        assert main(["pseudolabel", "--corpus", str(corpus), "--out-dir", str(root / "pl"),
                     "--model", str(teacher / "teacher_model.json")]) == 0
        for name, removed in (("no-unlabeled", ["unlabeled.jsonl", "unlabeled_refs.jsonl"]),
                              ("refs-only", ["unlabeled.jsonl"])):
            shutil.copytree(corpus, root / name)
            for f in removed:
                (root / name / f).unlink()
        return root

    @pytest.mark.parametrize("corpus, argv", [
        ("no-unlabeled", lambda d: ["train-teacher", *FAST_TRAIN]),
        ("no-unlabeled", lambda d: ["estimate-threshold", "--min-probe", "5", *FAST_TRAIN]),
        ("no-unlabeled", lambda d: ["estimate-threshold", "--min-probe", "4", "--probe", "labeled",
                                    "--model", d / "teacher" / "teacher_model.json"]),
        ("refs-only", lambda d: ["filter", "--pseudo-labels", d / "pl" / "pseudolabels.jsonl",
                                 "--max-wer", "0.5"]),
    ], ids=["train-teacher", "estimate-threshold", "estimate-threshold-model", "filter-max-wer"])
    def test_same_files_without_the_unused_corpus_files(self, world, tmp_path, corpus, argv):
        runs = {}
        for name in ("corpus", corpus):
            out = tmp_path / name
            assert main([str(a) for a in argv(world)] + ["--corpus", str(world / name),
                                                         "--out-dir", str(out)]) == 0
            runs[name] = run_files(out)
            # config.json records the corpus path
            assert read_config(out)["config"]["corpus"] == str(world / name)
            del runs[name]["config.json"]
        assert runs["corpus"] == runs[corpus]

    @pytest.mark.parametrize("argv", [
        lambda d: ["pseudolabel", "--model", d / "teacher" / "teacher_model.json"],
        lambda d: ["ipl", "--epochs", "0", "--iter-max", "1"],
        lambda d: ["sweep", "--epochs", "0", "--iters-per-update", "1", "--max-updates", "1"],
    ], ids=["pseudolabel", "ipl", "sweep"])
    def test_commands_using_the_unlabeled_split_name_the_missing_file(self, world, tmp_path,
                                                                      capsys, argv):
        capsys.readouterr()
        corpus = world / "no-unlabeled"
        rc = main([str(a) for a in argv(world)] + ["--corpus", str(corpus),
                                                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = usage_error(capsys)
        assert err["error"] == "ManifestError"
        assert err["message"] == f"{corpus / 'unlabeled.jsonl'}: missing file"


class TestCorpusMismatch:
    """Inputs that parse but cannot make a run on this corpus exit 2 before any output."""

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mismatch")
        assert main(["gen-corpus", "--out-dir", str(root / "corpus"), *TINY_CORPUS]) == 0
        for name, flag in (("dim4", "--feature-dim"), ("vocab3", "--vocab-size")):
            other = root / f"corpus-{name}"
            assert main(["gen-corpus", "--out-dir", str(other), flag, name[-1], *TINY_CORPUS]) == 0
            assert main(["train-teacher", "--corpus", str(other), "--out-dir", str(root / name),
                         "--epochs", "0"]) == 0
        return root

    @pytest.mark.parametrize("command", ["train-teacher", "ipl", "estimate-threshold", "sweep"])
    @pytest.mark.parametrize("split", ["dev", "test"])
    def test_empty_split(self, world, tmp_path, capsys, command, split):
        corpus = tmp_path / "corpus"
        shutil.copytree(world / "corpus", corpus)
        (corpus / f"{split}.jsonl").write_text("")
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main([command, "--corpus", str(corpus), "--out-dir", str(out), "--epochs", "1"])
        assert rc == 2
        assert usage_error(capsys) == {"error": "ConfigurationError",
                                       "message": f"{split} split is empty"}
        assert [p.name for p in out.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["pseudolabel", "estimate-threshold"])
    @pytest.mark.parametrize("other, name, have, want", [
        ("dim4", "feature_dim", 4, 8), ("vocab3", "vocab_size", 3, 8)])
    def test_checkpoint_of_another_corpus(self, world, tmp_path, capsys, command, other, name,
                                          have, want):
        model = world / other / "teacher_model.json"
        out = tmp_path / "out"
        probe = [] if command == "pseudolabel" else ["--min-probe", "1"]
        capsys.readouterr()
        rc = main([command, "--corpus", str(world / "corpus"), "--model", str(model),
                   "--out-dir", str(out), *probe])
        assert rc == 2
        assert usage_error(capsys) == {
            "error": "ConfigurationError",
            "message": f"{model}: checkpoint {name} {have} != corpus {name} {want}"}
        assert [p.name for p in out.iterdir()] == ["config.json"]

    def test_report_on_an_ipl_run_without_unlabeled_utterances(self, world, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(world / "corpus", corpus)
        for name in ("unlabeled.jsonl", "unlabeled_refs.jsonl"):
            (corpus / name).write_text("")
        run, rep = tmp_path / "run", tmp_path / "report"
        assert main(["ipl", "--corpus", str(corpus), "--out-dir", str(run), "--epochs", "0",
                     "--iter-max", "1"]) == 0
        assert main(["report", "--run-dir", str(run), "--out-dir", str(rep)]) == 0
        assert sorted(p.name for p in rep.iterdir()) == ["config.json", "report_summary.txt"]
        assert (rep / "report_summary.txt").read_text() == (run / "summary.txt").read_text()


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


def write_snapshot(path, command, config):
    path.write_text(json.dumps({"schema": "run-config", "version": 1,
                                "command": command, "config": config}))
    return path


class TestTypedConfig:
    @pytest.mark.parametrize("key, value, expected", [
        ("probe", "test", "is \"test\", expected one of ['dev', 'labeled']"),
    ], ids=["bad-choice"])
    def test_mistyped_value_is_usage_error(self, corpus_dir, tmp_path, capsys, key, value, expected):
        snap = write_snapshot(tmp_path / "config.json", "estimate-threshold", {key: value})
        out = tmp_path / "out"
        rc = main(["estimate-threshold", "--config", str(snap), "--corpus", str(corpus_dir),
                   "--out-dir", str(out)])
        assert rc == 2
        err = usage_error(capsys)
        assert err["error"] == "ConfigurationError"
        assert err["message"] == f"{snap}:1: config: field {key!r} {expected}"
        assert not out.exists()

    def test_int_for_float_and_null_for_none_default_accepted(self, corpus_dir, tmp_path):
        config = {"epochs": 0, "max_wer": 1, "probe_size": None, "min_probe": 5}
        snap = write_snapshot(tmp_path / "config.json", "estimate-threshold", config)
        out = tmp_path / "out"
        rc = main(["estimate-threshold", "--config", str(snap), "--corpus", str(corpus_dir),
                   "--out-dir", str(out)])
        assert rc == 0
        assert read_config(out)["config"]["max_wer"] == 1


class TestSnapshotRelaunch:
    def test_gen_corpus_relaunch_identical(self, corpus_dir, tmp_path):
        clone = tmp_path / "clone"
        rc = main(["gen-corpus", "--config", str(corpus_dir / "config.json"), "--out-dir", str(clone)])
        assert rc == 0
        for name in ("meta.json", "labeled.jsonl", "unlabeled.jsonl", "dev.jsonl",
                     "test.jsonl", "unlabeled_refs.jsonl", "config.json"):
            assert (clone / name).read_bytes() == (corpus_dir / name).read_bytes(), name

    @pytest.mark.parametrize("argv", [
        ["train-teacher", *FAST_TRAIN],
        ["sweep", "--initial", "-0.2", "--step", "0.2", "--iters-per-update", "1",
         "--max-updates", "2", *FAST_TRAIN],
        ["estimate-threshold", "--min-probe", "5", "--probe-size", "6", "--exclude-blank",
         *FAST_TRAIN],
    ], ids=lambda argv: argv[0])
    def test_relaunch_identical(self, corpus_dir, tmp_path, argv):
        first, clone = tmp_path / "first", tmp_path / "clone"
        assert main([*argv, "--corpus", str(corpus_dir), "--out-dir", str(first)]) == 0
        assert main([argv[0], "--config", str(first / "config.json"), "--out-dir", str(clone)]) == 0
        assert run_files(clone) == run_files(first)

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
