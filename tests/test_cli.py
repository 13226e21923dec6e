import argparse
import io
import json
import os
import re
import shutil
from pathlib import Path
from typing import Callable, NamedTuple

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


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ipl", "--help"])
    assert exc.value.code == 0 and "--out-dir OUT_DIR" in capsys.readouterr().out


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


class TestTrainTeacher:
    def test_writes_model_and_report(self, corpus_dir, tmp_path):
        run = tmp_path / "teacher"
        rc = main(["train-teacher", "--corpus", str(corpus_dir), "--out-dir", str(run), *FAST_TRAIN])
        assert rc == 0
        for name in ("teacher_model.json", "teacher_report.jsonl", "summary.txt", "config.json"):
            assert (run / name).is_file(), name

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



def write_snapshot(path, command, config):
    path.write_text(json.dumps({"schema": "run-config", "version": 1,
                                "command": command, "config": config}))
    return path


class TestEstimateCommand:
    def test_writes_estimate_artifacts(self, corpus_dir, tmp_path):
        run = tmp_path / "est"
        rc = main(["estimate-threshold", "--corpus", str(corpus_dir), "--out-dir", str(run),
                   "--min-probe", "5", *FAST_TRAIN])
        assert rc == 0
        est = json.loads((run / "estimate.json").read_text())
        assert est["threshold"] <= 0.0
        assert (run / "probe_pseudolabels.jsonl").is_file()

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
        for name in ("meta.json", "labeled.jsonl", "unlabeled.jsonl", "dev.jsonl", "test.jsonl",
                     "labeled.frames.npy", "unlabeled.frames.npy", "dev.frames.npy", "test.frames.npy",
                     "unlabeled_refs.jsonl", "config.json"):
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

    def test_flag_overrides_snapshot(self, corpus_dir, tmp_path):
        other = tmp_path / "other"
        rc = main(["gen-corpus", "--config", str(corpus_dir / "config.json"),
                   "--out-dir", str(other), "--seed", "4"])
        assert rc == 0
        assert read_config(other)["config"]["seed"] == 4
        assert (other / "labeled.jsonl").read_bytes() != (corpus_dir / "labeled.jsonl").read_bytes()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Every input the refusal table reads, built once through main at --epochs 0: a corpus and
    copies of it without some unlabeled files, its teacher, pseudo-labels with oracle WERs, a
    sweep and an estimate run, two corpora of other dimensions with their teachers, an empty
    directory, a pseudo-label file of unknown ids and two --config snapshots of bad values."""
    root = tmp_path_factory.mktemp("world")
    corpus, model = root / "corpus", root / "teacher" / "teacher_model.json"
    runs = [["gen-corpus", "--out-dir", corpus, *TINY_CORPUS],
            ["train-teacher", "--corpus", corpus, "--out-dir", root / "teacher", "--epochs", "0"],
            ["pseudolabel", "--corpus", corpus, "--out-dir", root / "pl", "--model", model,
             "--annotate-oracle"],
            ["sweep", "--corpus", corpus, "--out-dir", root / "sweep", "--epochs", "0",
             "--iters-per-update", "1", "--max-updates", "1"],
            ["estimate-threshold", "--corpus", corpus, "--out-dir", root / "est", "--epochs", "0",
             "--min-probe", "5"]]
    for name, flag in (("dim4", "--feature-dim"), ("vocab3", "--vocab-size")):
        runs += [["gen-corpus", "--out-dir", root / f"corpus-{name}", flag, name[-1], *TINY_CORPUS],
                 ["train-teacher", "--corpus", root / f"corpus-{name}", "--out-dir", root / name,
                  "--epochs", "0"]]
    for argv in runs:
        assert main([str(a) for a in argv]) == 0, argv
    unlabeled = ["unlabeled.jsonl", "unlabeled.frames.npy"]
    for name, removed in (("no-refs", ["unlabeled_refs.jsonl"]), ("refs-only", unlabeled),
                          ("no-unlabeled", [*unlabeled, "unlabeled_refs.jsonl"])):
        shutil.copytree(corpus, root / name)
        for f in removed:
            (root / name / f).unlink()
    (root / "empty").mkdir()
    save_pseudolabels(columns([PseudoLabel("stray-0", LabelSequence((1,)), -0.1)]), root / "stray.jsonl")
    write_snapshot(root / "nan-config.json", "estimate-threshold", {"max_wer": float("nan")})
    write_snapshot(root / "seed-config.json", "gen-corpus", {"seed": -1})
    return root


class TestCorpusFilesRead:
    """A command opens the corpus files of the splits it uses, and no other."""

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

    def test_report_on_an_ipl_run_without_unlabeled_utterances(self, world, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(world / "corpus", corpus)
        for name in ("unlabeled.jsonl", "unlabeled_refs.jsonl"):
            (corpus / name).write_text("")
        np.save(corpus / "unlabeled.frames.npy", np.zeros((0, 8)))
        run, rep = tmp_path / "run", tmp_path / "report"
        assert main(["ipl", "--corpus", str(corpus), "--out-dir", str(run), "--epochs", "0",
                     "--iter-max", "1"]) == 0
        assert main(["report", "--run-dir", str(run), "--out-dir", str(rep)]) == 0
        assert sorted(p.name for p in rep.iterdir()) == ["config.json", "report_summary.txt"]
        assert (rep / "report_summary.txt").read_text() == (run / "summary.txt").read_text()


# The refusal contract: every refused input, from argv to file, exits 2 with one JSON line on
# stderr, {"error": class, "message": text}, and leaves its --out-dir absent or holding exactly
# the config.json snapshot. One row per input:
#   argv    the command in the world copy ``d``, to which ``--out-dir`` is added;
#   error   the error class;
#   pin     the message, ``{d}`` standing for the copy; a trailing ``...`` pins a prefix;
#   damage  None, or (file in the world, its line or None for its whole text, edit) triples; an
#           edit of the whole text (of a .npy file, its bytes) that returns None deletes the file;
#   out     what the out-dir holds afterwards.
SNAPSHOT, ABSENT, UNGIVEN = "config.json", "absent", "no --out-dir given"


class Refusal(NamedTuple):
    argv: Callable
    error: str
    pin: str
    damage: tuple | None = None
    out: str = SNAPSHOT


def _damaged(file, lineno, edit, *more) -> dict:
    """A row's damage, that triple and ``more`` of them, and its out-dir state: a --config snapshot
    is read before one is written."""
    return {"damage": ((file, lineno, edit), *more),
            "out": ABSENT if file.endswith("config.json") else SNAPSHOT}


def _on(command, *flags, corpus="corpus"):
    """The argv of ``command`` on the world's ``corpus`` with ``flags``, a flag given as a function
    of the world copy (such as ``_MODEL``) expanded in it."""
    return lambda d: [command, "--corpus", d / corpus,
                      *(a for flag in flags for a in (flag(d) if callable(flag) else [flag]))]


_MODEL = lambda d: ["--model", d / "teacher" / "teacher_model.json"]
_TEACHER = _on("pseudolabel", _MODEL)
_TRAIN = _on("train-teacher", "--epochs", "0")
_ESTIMATE = _on("estimate-threshold", "--epochs", "0", "--min-probe", "5")
_PLS = lambda d: ["filter", "--pseudo-labels", d / "pl" / "pseudolabels.jsonl"]
_FILTER = lambda d: [*_PLS(d), "--score-threshold", "-1"]
_WER_FILTER = lambda d: [*_PLS(d), "--corpus", d / "corpus", "--max-wer", "0.5"]
_MISSING = lambda d: ["filter", "--pseudo-labels", d / "missing.jsonl", "--corpus", d / "corpus"]
_REPORT = lambda d: ["report", "--run-dir", d / "sweep"]
_CONFIG = lambda d: ["train-teacher", "--config", d / "teacher" / "config.json"]
_ONE_OF = "filter: exactly one of --score-threshold / --max-wer"
BIG = "1" + "0" * 400  # JSON reads 10**400 as an int, which float() cannot hold

# Flag-parsing errors and --config snapshots, refused before anything is written
_ARGV_ROWS = {
    "unknown-flag": Refusal(lambda d: ["gen-corpus", "--bogus", "1"], "ConfigurationError",
                            "unrecognized arguments: --bogus 1", out=ABSENT),
    "ipl-unknown-flag": Refusal(_on("ipl", "--bogus", "1"), "ConfigurationError",
                                "unrecognized arguments: --bogus 1", out=ABSENT),
    "int-text": Refusal(_on("ipl", "--epochs", "abc"), "ConfigurationError",
                        "argument --epochs: invalid int value: 'abc'", out=ABSENT),
    "float-text": Refusal(_on("ipl", "--base-lr", "x"), "ConfigurationError",
                          "argument --base-lr: invalid float value: 'x'", out=ABSENT),
    "bad-choice": Refusal(_on("ipl", "--filter-mode", "x"), "ConfigurationError",
                          "argument --filter-mode: invalid choice: 'x'...", out=ABSENT),
    # a value that starts with "-" and is not a number reads as a flag: "--coverage=-inf" is a value
    "dash-value": Refusal(lambda d: ["estimate-threshold", "--coverage", "-inf"], "ConfigurationError",
                          "argument --coverage: expected one argument", out=ABSENT),
    "missing-out-dir": Refusal(_on("ipl"), "ConfigurationError",
                               "the following arguments are required: --out-dir", out=UNGIVEN),
    "missing-command": Refusal(lambda d: [], "ConfigurationError",
                               "the following arguments are required: command", out=UNGIVEN),
    # a --config file is read by the file rule, which names the file and the key
    "config-max-wer": Refusal(lambda d: ["estimate-threshold", "--config", d / "nan-config.json"],
                              "ConfigurationError", "{d}/nan-config.json:1: config: field 'max_wer' is NaN, "
                              "expected a finite number", out=ABSENT),
    "config-negative-seed": Refusal(lambda d: ["gen-corpus", "--config", d / "seed-config.json"],
                                    "ConfigurationError", "--seed must be >= 0, got -1", out=ABSENT),
    "config-bad-choice": Refusal(lambda d: ["estimate-threshold", "--config", d / "est" / "config.json"],
                                 "ConfigurationError", "{d}/est/config.json:1: config: field 'probe' is "
                                 "\"test\", expected one of ['dev', 'labeled']",
                                 **_damaged("est/config.json", 1, _edit_record(
                                     lambda rec: rec["config"].update(probe="test")))),
    "config-member-not-object": Refusal(_CONFIG, "ConfigurationError",
                                        "{d}/teacher/config.json:1: field 'config' is list, expected dict",
                                        **_damaged("teacher/config.json", 1, _edit_record(
                                            lambda rec: rec.update(config=[1])))),
    "config-command-mismatch": Refusal(lambda d: ["ipl", "--config", d / "corpus" / "config.json"],
                                       "ConfigurationError", "{d}/corpus/config.json: snapshot is for "
                                       "command 'gen-corpus', not 'ipl'", out=ABSENT),
    # every float flag of every command, not finite; a negative --seed on every command (those
    # whose table has no seed ignore it)
    **{f"{command}-{flag[2:]}={value}": Refusal(lambda d, argv=[command, f"{flag}={value}"]: argv,
                                                 "ConfigurationError", f"{flag} must be finite, got {value}",
                                                 out=ABSENT)
       for command, (_, _, flags) in cli.COMMANDS.items()
       for flag in [cli._flag(key) for key, (kind, _) in flags.items() if kind is float]
       for value in ("nan", "inf", "-inf")},
    **{f"{command}-negative-seed": Refusal(lambda d, command=command: [command, "--seed", "-1"],
                                           "ConfigurationError", "--seed must be >= 0, got -1", out=ABSENT)
       for command in cli.COMMANDS},
    # as in a file, an integer flag's value beyond the float range, whose digits are not printed
    "seed-10**400": Refusal(lambda d: ["gen-corpus", "--seed", BIG], "ConfigurationError",
                            "--seed is an integer beyond the float range", out=ABSENT),
    "epochs-10**400": Refusal(_on("ipl", "--epochs", BIG), "ConfigurationError",
                              "--epochs is an integer beyond the float range", out=ABSENT),
    "ignored-seed--10**400": Refusal(lambda d: ["report", "--seed", "-" + BIG], "ConfigurationError",
                                     "--seed is an integer beyond the float range", out=ABSENT),
}

# Values out of range, and inputs that parse but cannot make a run, refused after config.json
_RANGE_ROWS = {
    "gen-corpus-vocab-size-1": Refusal(lambda d: ["gen-corpus", "--vocab-size", "1"], "ConfigurationError",
                                       "vocab_size must be >= 2, got 1"),
    "negative-base-lr": Refusal(_on("ipl", "--epochs", "1", "--base-lr", "-1"), "ConfigurationError",
                                "base_lr must be >= 0, got -1.0"),
    "negative-probe-size": Refusal(_on("estimate-threshold", "--epochs", "0", "--min-probe", "1",
                                       "--probe-size", "-5"), "ConfigurationError",
                                   "--probe-size must be >= 1, got -5"),
    "estimate-zero-bins": Refusal(lambda d: [*_ESTIMATE(d), "--bins", "0"], "ConfigurationError",
                                  "--bins must be >= 1, got 0"),
    "report-zero-bins": Refusal(lambda d: ["report", "--run-dir", d / "est", "--bins", "0"],
                                "ConfigurationError", "--bins must be >= 1, got 0"),
    "coverage-above-one": Refusal(lambda d: [*_ESTIMATE(d), "--coverage", "2"], "ConfigurationError",
                                  "coverage must lie in [0, 1], got 2.0"),
    "negative-coverage": Refusal(lambda d: [*_ESTIMATE(d), "--coverage", "-1"], "ConfigurationError",
                                 "coverage must lie in [0, 1], got -1.0"),
    "zero-min-probe": Refusal(_on("estimate-threshold", "--epochs", "0", "--min-probe", "0"),
                              "ConfigurationError", "min_probe must be >= 1, got 0"),
    # the probe is checked before a teacher is trained and written
    "probe-size-below-min-probe": Refusal(lambda d: [*_ESTIMATE(d), "--probe-size", "3"],
                                          "InsufficientProbeError",
                                          "probe has 3 utterances; need at least 5"),
    "dev-below-min-probe": Refusal(_on("estimate-threshold", "--epochs", "1", "--min-probe", "50"),
                                   "InsufficientProbeError", "probe has 6 utterances; need at least 50"),
    "probe-too-small": Refusal(_on("estimate-threshold", "--min-probe", "50", *FAST_TRAIN),
                               "InsufficientProbeError", "probe has 6 utterances; need at least 50"),
    "sweep-zero-iters-per-update": Refusal(_on("sweep", "--iters-per-update", "0"), "ConfigurationError",
                                           "iters_per_update must be >= 1, got 0"),
    "sweep-zero-max-updates": Refusal(_on("sweep", "--max-updates", "0"), "ConfigurationError",
                                      "max_updates must be >= 1, got 0"),
    # the wer filter keeps WER strictly below max_wer, so max_wer <= 0 keeps nothing; filter
    # refuses it before it opens the (here missing) pseudo-label file
    "filter-zero-max-wer": Refusal(lambda d: [*_MISSING(d), "--max-wer", "0"], "ConfigurationError",
                                   "max_wer must be > 0, got 0.0"),
    "filter-negative-max-wer": Refusal(lambda d: [*_MISSING(d), "--max-wer", "-1"], "ConfigurationError",
                                       "max_wer must be > 0, got -1.0"),
    "ipl-negative-max-wer": Refusal(_on("ipl", "--filter-mode", "wer", "--max-wer", "-1", "--epochs", "1"),
                                    "ConfigurationError", "max_wer must be > 0, got -1.0"),
    "estimate-zero-max-wer": Refusal(lambda d: [*_ESTIMATE(d), "--max-wer", "0"], "ConfigurationError",
                                     "max_wer must be > 0, got 0.0"),
    "filter-no-mode": Refusal(_PLS, "ConfigurationError", _ONE_OF),
    "filter-both-modes": Refusal(lambda d: [*_PLS(d), "--score-threshold", "-0.1", "--max-wer", "0.1"],
                                 "ConfigurationError", _ONE_OF),
    "score-mode-without-threshold": Refusal(_on("ipl", "--filter-mode", "score"), "ConfigurationError",
                                            "score mode needs score_threshold"),
    "missing-corpus": Refusal(_on("train-teacher", corpus="nope"), "FileNotFoundError",
                              "corpus directory not found: {d}/nope"),
    "report-on-empty-dir": Refusal(lambda d: ["report", "--run-dir", d / "empty"], "ConfigurationError",
                                   "{d}/empty: no reports.jsonl, sweep.json, estimate.json or "
                                   "teacher_report.jsonl"),
    "filter-unknown-ids": Refusal(lambda d: ["filter", "--pseudo-labels", d / "stray.jsonl", "--corpus",
                                             d / "corpus", "--max-wer", "0.5"], "OracleError",
                                  "no ground truth for utterance stray-0"),
    # the corpus withholds the truth the wer filter needs: checked before a teacher is trained
    "wer-mode-without-truth": Refusal(_on("ipl", "--filter-mode", "wer", "--max-wer", "0.1", "--epochs", "1",
                                          corpus="no-refs"), "OracleError",
                                      "filter mode 'wer' needs the unlabeled transcripts the corpus "
                                      "withholds"),
    **{f"{argv[0]}-no-unlabeled-file": Refusal(_on(*argv, corpus="no-unlabeled"), "ManifestError",
                                               "{d}/no-unlabeled/unlabeled.frames.npy: missing file")
       for argv in [("pseudolabel", _MODEL), ("ipl", "--epochs", "0", "--iter-max", "1"),
                    ("sweep", "--epochs", "0", "--iters-per-update", "1", "--max-updates", "1")]},
    **{f"{command}-empty-{split}-split": Refusal(_on(command, "--epochs", "1"), "ConfigurationError",
                                                 f"{split} split is empty",
                                                 **_damaged(f"corpus/{split}.jsonl", None, lambda text: "",
                                                            (f"corpus/{split}.frames.npy", None,
                                                             lambda raw: _npy(np.zeros((0, 8))))))
       for command in ("train-teacher", "ipl", "estimate-threshold", "sweep") for split in ("dev", "test")},
    **{f"{argv[0]}-checkpoint-of-{other}": Refusal(
        _on(*argv, lambda d, other=other: ["--model", d / other / "teacher_model.json"]),
        "ConfigurationError",
        f"{{d}}/{other}/teacher_model.json: checkpoint {name} {have} != corpus {name} 8")
       for argv in (["pseudolabel"], ["estimate-threshold", "--min-probe", "1"])
       for other, name, have in (("dim4", "feature_dim", 4), ("vocab3", "vocab_size", 3))},
}

# Damages of one record line: name -> (edit of the line, message after "path:line: ")
DAMAGES = {"invalid-json": (lambda line: line[: len(line) // 2], "invalid JSON: ..."),
           "array": (lambda line: "[1, 2]", "record is not an object")}


def _npy(array, allow_pickle=False) -> bytes:
    """The bytes of ``array`` as ``np.save`` writes them."""
    out = io.BytesIO()
    np.save(out, array, allow_pickle=allow_pickle)
    return out.getvalue()


def _frames_edit(edit):
    """An edit of a frames file's bytes: its array replaced by ``edit(array)``."""
    return lambda raw: _npy(edit(np.load(io.BytesIO(raw))))


def _nan_row(row):
    """An edit of a frames array: a NaN in its row ``row``."""
    def edit(frames):
        frames[row, 3] = np.nan
        return frames
    return edit


# The world's unlabeled frames: 81 rows of 8, unl-0000's 12 rows first, so unl-0001's from row 12.
# Damages of the frames file: (edit of its bytes, message after its path); a message of numpy's
# own, which numpy versions word differently, is pinned by its start
FRAME_DAMAGES = {
    "missing": (lambda raw: None, "missing file"),  # as a corpus written with base64 frames in its lines
    "empty": (lambda raw: b"", "not a .npy array: EOF: reading magic string, expected 8 bytes got 0"),
    "cut-header": (lambda raw: raw[:40], "not a .npy array: EOF: reading array header, ..."),
    "cut-data": (lambda raw: raw[:-8], "not a .npy array: ..."),
    "trailing-bytes": (lambda raw: raw + bytes(8), "bytes after the array's data"),
    "f4": (_frames_edit(lambda frames: frames.astype("<f4")), "dtype <f4, expected <f8"),
    "big-endian": (_frames_edit(lambda frames: frames.astype(">f8")), "dtype >f8, expected <f8"),
    "object": (lambda raw: _npy(np.load(io.BytesIO(raw)).astype(object), allow_pickle=True),
               "not a .npy array: Object arrays cannot be loaded when allow_pickle=False"),
    "1-d": (_frames_edit(np.ravel), "shape (648,), expected (rows, 8) by meta.json"),
    "3-d": (_frames_edit(lambda frames: frames.reshape(81, 2, 4)),
            "shape (81, 2, 4), expected (rows, 8) by meta.json"),
    "7-columns": (_frames_edit(lambda frames: frames[:, :7]),
                  "shape (81, 7), expected (rows, 8) by meta.json"),
    "fortran-order": (_frames_edit(np.asfortranarray), "frames in Fortran order, expected C order"),
    "nan": (_frames_edit(_nan_row(12)),
            "utterance unl-0001 ({d}/corpus/unlabeled.jsonl:2): non-finite frame value")}
# A line's num_frames below 1, or one that makes the lines' total more or fewer than the frames
# file's rows (unl-0001 has 12 frames): (num_frames, message)
NUM_FRAMES_DAMAGES = {
    "0": (0, "{d}/corpus/unlabeled.jsonl:2: utterance unl-0001: num_frames must be >= 1, got 0"),
    "-1": (-1, "{d}/corpus/unlabeled.jsonl:2: utterance unl-0001: num_frames must be >= 1, got -1"),
    "13": (13, "{d}/corpus/unlabeled.frames.npy: 81 rows != 82, the num_frames total of "
               "{d}/corpus/unlabeled.jsonl"),
    "11": (11, "{d}/corpus/unlabeled.frames.npy: 81 rows != 80, the num_frames total of "
               "{d}/corpus/unlabeled.jsonl")}
# A pseudo-label token outside the corpus's vocabulary, too large for the edit distance's int32
# or for a C long among them
TOKEN_DAMAGES = {name: (_edit_record(lambda rec, t=t: rec.update(tokens=[1, t])),
                        "token index out of vocabulary range")
                 for name, t in {"2**40": 2**40, "2**70": 2**70, "99": 99}.items()}
# An oracle WER no run writes
WER_DAMAGES = {name: (_edit_record(lambda rec, w=w: rec.update(oracle_wer=w)), pin) for name, (w, pin) in {
    "nan": (float("nan"), "field 'oracle_wer' is NaN, expected a finite number"),
    "inf": (float("inf"), "field 'oracle_wer' is Infinity, expected a finite number"),
    "negative": (-0.5, "oracle_wer must be >= 0, got -0.5")}.items()}
# A checkpoint parameter item that is NaN
_NAN_W = _edit_record(lambda rec: _set("params", "W", 0, 1)(rec, float("nan")))


def _empty_transcript(uid):
    """An empty transcript where a split has labels; any non-empty hypothesis has an infinite WER
    against one."""
    return {"empty-transcript": (_edit_record(lambda rec: rec.update(tokens=[])),
                                 f"utterance {uid!r}: empty transcript")}


# Every artifact a command reads: (file, line to damage or None for the whole text, or a .npy
# file's bytes, error, argv in the world copy, damages)
DAMAGED_INPUTS = {
    "meta": ("corpus/meta.json", 1, "ManifestError", _TRAIN, DAMAGES),
    "split-line": ("corpus/labeled.jsonl", 2, "ManifestError", _TRAIN, DAMAGES),
    "unlabeled-line": ("corpus/unlabeled.jsonl", 1, "ManifestError", _TEACHER, DAMAGES),
    "refs-line": ("corpus/unlabeled_refs.jsonl", 1, "ManifestError", _WER_FILTER, DAMAGES),
    "pseudo-label-header": ("pl/pseudolabels.jsonl", 1, "ManifestError", _FILTER, DAMAGES),
    "pseudo-label-line": ("pl/pseudolabels.jsonl", 2, "ManifestError", _FILTER, DAMAGES),
    "checkpoint": ("teacher/teacher_model.json", 1, "ConfigurationError", _TEACHER, DAMAGES),
    "config": ("teacher/config.json", 1, "ConfigurationError", _CONFIG, DAMAGES),
    "frames": ("corpus/unlabeled.frames.npy", None, "ManifestError", _TEACHER, FRAME_DAMAGES),
    "labeled-frames": ("corpus/labeled.frames.npy", None, "ManifestError", _TRAIN,
                       {"nan": (_frames_edit(_nan_row(0)),
                                "utterance lab-0000 ({d}/corpus/labeled.jsonl:1): non-finite frame value")}),
    "pseudo-label-token": ("pl/pseudolabels.jsonl", 2, "ManifestError", _WER_FILTER, TOKEN_DAMAGES),
    "labeled-transcript": ("corpus/labeled.jsonl", 1, "ManifestError", _TRAIN, _empty_transcript("lab-0000")),
    "dev-transcript": ("corpus/dev.jsonl", 1, "ManifestError", _ESTIMATE, _empty_transcript("dev-0000")),
    "test-transcript": ("corpus/test.jsonl", 2, "ManifestError", _TRAIN, _empty_transcript("tst-0001")),
    "refs-transcript-ipl": ("corpus/unlabeled_refs.jsonl", 2, "ManifestError",
                            _on("ipl", "--epochs", "0", "--iter-max", "1"), _empty_transcript("unl-0001")),
    "refs-transcript-filter": ("corpus/unlabeled_refs.jsonl", 2, "ManifestError", _WER_FILTER,
                               _empty_transcript("unl-0001")),
    "pseudo-label-wer-score": ("pl/pseudolabels.jsonl", 2, "ManifestError", _FILTER, WER_DAMAGES),
    "pseudo-label-wer-third-line": ("pl/pseudolabels.jsonl", 3, "ManifestError", _FILTER,
                                    {"negative": WER_DAMAGES["negative"]}),
    "pseudo-label-wer-oracle": ("pl/pseudolabels.jsonl", 2, "ManifestError", _WER_FILTER, WER_DAMAGES),
    "probe-wer": ("est/probe_pseudolabels.jsonl", 2, "ManifestError",
                  lambda d: ["report", "--run-dir", d / "est"], WER_DAMAGES),
    "checkpoint-shape": ("teacher/teacher_model.json", None, "ConfigurationError", _TEACHER,
                         {"feature-dim-plus-one": (_edit_record(lambda rec: rec.update(feature_dim=9)),
                                                   "parameter W has shape (8, 9), expected (9, 9) from "
                                                   "feature_dim 9, vocab_size 8, hidden_dim 0")}),
    **{f"checkpoint-nan-{command}": ("teacher/teacher_model.json", None, "ConfigurationError",
                                     _on(command, _MODEL),
                                     {"nan": (_NAN_W, "params: field 'W' item 1 is NaN, expected a finite "
                                                      "number")})
       for command in ("pseudolabel", "estimate-threshold")},
}

# A run directory report refuses: (file, line or None, edit, message after the file's path)
_SWEEP_LISTS = (":1: thresholds and best_dev_wer_per_threshold must be equally long, with best_threshold "
                "among the thresholds")
MALFORMED_RUNS = {
    "bad-json-line": ("sweep/reports.jsonl", 2, lambda line: line[:-3], ":2: invalid JSON: ..."),
    "array-line": ("sweep/reports.jsonl", 2, lambda line: "[1, 2]", ":2: record is not an object"),
    "unknown-field": ("sweep/reports.jsonl", 2, _edit_record(lambda rec: rec.update(bogus=1)),
                      ":2: missing fields [], unknown fields ['bogus']"),
    "missing-field": ("sweep/reports.jsonl", 2, _edit_record(lambda rec: rec.pop("dev_wer")),
                      ":2: missing fields ['dev_wer'], unknown fields []"),
    "wrong-type": ("sweep/reports.jsonl", 2, _edit_record(lambda rec: rec.update(dev_wer="x")),
                   ":2: field 'dev_wer' is str, expected int or float"),
    "bool-for-number": ("sweep/reports.jsonl", 2,
                        _edit_record(lambda rec: rec.update(iteration=True, kept=False, dev_wer=True)),
                        ":2: field 'dev_wer' is bool, expected int or float"),
    "header-only": ("sweep/reports.jsonl", None, lambda text: text.splitlines()[0] + "\n",
                    ": no iteration records"),
    "sweep-bad-json": ("sweep/sweep.json", 1, lambda line: line[:-3], ":1: invalid JSON: ..."),
    "sweep-array": ("sweep/sweep.json", None, lambda text: "[1, 2]\n", ":1: record is not an object"),
    "sweep-missing-keys": ("sweep/sweep.json", 1, _edit_record(lambda rec: rec.pop("thresholds")),
                           ":1: missing fields ['thresholds'], unknown fields []"),
    "sweep-wrong-type": ("sweep/sweep.json", 1, _edit_record(lambda rec: rec.update(thresholds=1)),
                         ":1: field 'thresholds' is int, expected list"),
    **{f"sweep-{name}-entry": ("sweep/sweep.json", 1,
                               _edit_record(lambda rec, v=v: rec.update(best_dev_wer_per_threshold=[v])),
                               f":1: field 'best_dev_wer_per_threshold' item 0 is {name}, expected a finite "
                               "number")
       for name, v in (("null", None), ("true", True))},
    "sweep-length-mismatch": ("sweep/sweep.json", 1,
                              _edit_record(lambda rec: rec["best_dev_wer_per_threshold"].append(0.5)),
                              _SWEEP_LISTS),
    "sweep-best-not-listed": ("sweep/sweep.json", 1,
                              _edit_record(lambda rec: rec.update(best_threshold=rec["thresholds"][0] - 1)),
                              _SWEEP_LISTS),
    "estimate-bad-json": ("est/estimate.json", 1, lambda line: line[:-3], ":1: invalid JSON: ..."),
    "estimate-array": ("est/estimate.json", None, lambda text: "[1, 2]\n", ":1: record is not an object"),
    "estimate-wrong-type": ("est/estimate.json", 1, _edit_record(lambda rec: rec.update(threshold="x")),
                            ":1: field 'threshold' is str, expected int or float"),
    "estimate-bool-for-number": ("est/estimate.json", 1, _edit_record(lambda rec: rec.update(threshold=True)),
                                 ":1: field 'threshold' is bool, expected int or float"),
    "teacher-bool-for-number": ("sweep/teacher_report.jsonl", 2,
                                _edit_record(lambda rec: rec.update(test_wer=False)),
                                ":2: field 'test_wer' is bool, expected int or float"),
    "teacher-loss-curve-entry": ("sweep/teacher_report.jsonl", 2,
                                 _edit_record(lambda rec: rec["loss_curve"].append("x")),
                                 ":2: field 'loss_curve' item 0 is \"x\", expected a finite number"),
    "teacher-two-records": ("est/teacher_report.jsonl", None, lambda text: text + text.splitlines()[1] + "\n",
                            ": expected one record, found 2"),
    # written last: a run without it did not finish
    "summary-missing": ("sweep/summary.txt", None, lambda text: None,
                        ": missing file; the run did not finish"),
}

# One rule for every JSON value a command reads: exactly a type its field table lists, every
# number finite, an integer within the float range. A number in each file, set
# to each of RULE_VALUES and of its RULE_EXTRAS: (file, its line or None, what the message
# names, where the value goes, error, argv in the world copy)
RULE_VALUES = ["true", '"0.5"', "NaN", "Infinity", "-Infinity", "1e999"]
RULE_INPUTS = {
    "meta": ("corpus/meta.json", 1, "field 'feature_dim'", _set("feature_dim"), "ManifestError", _TRAIN),
    "pseudo-label-score": ("pl/pseudolabels.jsonl", 3, "field 'score'", _set("score"), "ManifestError",
                           _FILTER),
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
# null where no default is None; an integer beyond the float range in every field, whose digits
# no message prints
RULE_EXTRAS = {**dict.fromkeys(RULE_INPUTS, [BIG]),
               "config-int": ["null", BIG], "config-float": ["null", BIG]}


def _where(file, lineno) -> str:
    return f"{{d}}/{file}:{lineno}: " if lineno else f"{{d}}/{file}: "


REFUSALS = {
    **_ARGV_ROWS, **_RANGE_ROWS,
    **{f"{case}-{damage}": Refusal(argv, error, _where(file, lineno) + pin, **_damaged(file, lineno, edit))
       for case, (file, lineno, error, argv, damages) in DAMAGED_INPUTS.items()
       for damage, (edit, pin) in damages.items()},
    **{f"num-frames-{name}": Refusal(_TEACHER, "ManifestError", pin, **_damaged(
        "corpus/unlabeled.jsonl", 2, _edit_record(lambda rec, n=n: rec.update(num_frames=n))))
       for name, (n, pin) in NUM_FRAMES_DAMAGES.items()},
    **{f"report-{case}": Refusal(lambda d, run=file.split("/")[0]: ["report", "--run-dir", d / run],
                                 "ConfigurationError", f"{{d}}/{file}{pin}", **_damaged(file, lineno, edit))
       for case, (file, lineno, edit, pin) in MALFORMED_RUNS.items()},
    **{f"rule-{case}-{'10**400' if token == BIG else token}": Refusal(
        argv, error, _where(file, lineno) + named + (
            " is an integer beyond the float range, expected a finite number" if token == BIG else " ..."),
        **_damaged(file, lineno or 1, lambda line, put=put, token=token: _with_token(line, put, token)))
       for case, (file, lineno, named, put, error, argv) in RULE_INPUTS.items()
       for token in RULE_VALUES + RULE_EXTRAS.get(case, [])},
    "checkpoint-hidden-dim-10**400": Refusal(
        _TEACHER, "ConfigurationError", "{d}/teacher/teacher_model.json:1: field 'hidden_dim' is an integer "
        "beyond the float range, expected a finite number",
        **_damaged("teacher/teacher_model.json", 1, lambda line: _with_token(line, _set("hidden_dim"), BIG))),
    # an integer literal longer than int() reads
    "meta-5000-digit-feature-dim": Refusal(
        _TRAIN, "ManifestError", "{d}/corpus/meta.json:1: invalid JSON: Exceeds the limit (4300...",
        **_damaged("corpus/meta.json", 1, lambda line: _with_token(line, _set("feature_dim"), "1" * 5000))),
}


def _world_copy(world, root, damage):
    """``root`` as a copy of the world: the damaged entry copied and damaged, every other one a
    symbolic link to the world's."""
    root.mkdir()
    damaged = {file.split("/")[0] for file, _, _ in damage or ()}
    for entry in world.iterdir():
        if entry.name not in damaged:
            (root / entry.name).symlink_to(entry)
        elif entry.is_dir():
            shutil.copytree(entry, root / entry.name)
        else:
            shutil.copy(entry, root / entry.name)
    for file, lineno, edit in damage or ():
        path, binary = root / file, file.endswith(".npy")
        if lineno is not None:
            _set_line(path, lineno, edit)
        elif (data := edit(path.read_bytes() if binary else path.read_text())) is None:
            path.unlink()
        else:
            path.write_bytes(data) if binary else path.write_text(data)


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused_input_exits_2_with_one_json_record(world, tmp_path, capsys, case):
    row = REFUSALS[case]
    root, out = tmp_path / "world", tmp_path / "out"
    _world_copy(world, root, row.damage)
    argv = [str(a) for a in row.argv(root)] + ([] if row.out == UNGIVEN else ["--out-dir", str(out)])
    capsys.readouterr()
    assert main(argv) == 2  # not 1, and no SystemExit
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert isinstance(err, dict) and sorted(err) == ["error", "message"]
    assert err["error"] == row.error, err
    assert not re.search(r"\d{20}", err["message"])  # no message prints a huge integer's digits
    pin = row.pin.replace("{d}", str(root))
    if pin.endswith("..."):
        assert err["message"].startswith(pin[:-3]), (err["message"], pin)
    else:
        assert err["message"] == pin
    assert (os.listdir(out) if out.exists() else None) == ([SNAPSHOT] if row.out == SNAPSHOT else None)
