import json
import re
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iplfilter import metrics, pipeline
from iplfilter.artifacts import NUMBER, NumberList
from iplfilter.corpus import CorpusGenConfig, Transcripts, generate_corpus
from iplfilter.errors import ConfigurationError, InsufficientProbeError, OracleError
from iplfilter.model import TrainConfig, init_model
from iplfilter.pipeline import (
    EstimateConfig,
    IplConfig,
    RunRecord,
    RunWriter,
    estimate_threshold,
    load_run,
    report_record,
    run_ipl,
    run_summary,
    select_threshold,
    ThresholdSchedule,
    sweep_threshold,
    train_teacher,
    write_plots,
)
from iplfilter.pseudolabel import load_pseudolabels, score_filter

FAST = TrainConfig(epochs=8, base_lr=0.15, seed=0)
SMALL = CorpusGenConfig(n_labeled=6, n_unlabeled=16, n_dev=8, n_test=8)


def small_splits(seed=0, **overrides):
    return generate_corpus(replace(SMALL, **overrides), seed=seed)


class TestIplConfig:
    def test_score_mode_needs_threshold(self):
        with pytest.raises(ConfigurationError):
            IplConfig(filter_mode="score", train=FAST)

    def test_wer_mode_needs_max_wer(self):
        with pytest.raises(ConfigurationError):
            IplConfig(filter_mode="wer", train=FAST)

    def test_cross_mode_params_rejected(self):
        with pytest.raises(ConfigurationError):
            IplConfig(filter_mode="none", score_threshold=-0.1, train=FAST)
        with pytest.raises(ConfigurationError):
            IplConfig(filter_mode="score", score_threshold=-0.1, max_wer=0.1, train=FAST)

    def test_unknown_filter_mode_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^filter_mode must be one of \('none', 'score', 'wer'\)$"):
            IplConfig(filter_mode="bogus", train=FAST)

    def test_iter_max_positive(self):
        with pytest.raises(ConfigurationError):
            IplConfig(iter_max=0, train=FAST)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("fields", [
        dict(filter_mode="score", score_threshold=None),
        dict(filter_mode="wer", max_wer=None),
        dict(pseudo_weight=None),
    ], ids=["score_threshold", "max_wer", "pseudo_weight"])
    def test_non_finite_float_rejected_naming_field(self, fields, value):
        name = next(k for k, v in fields.items() if v is None)
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
            IplConfig(**{**fields, name: value}, train=FAST)


# The range each config's bounded fields must lie in: name -> lo, or (lo, hi), both inclusive,
# or (lo, None), above lo
BOUNDS = {
    CorpusGenConfig: {"vocab_size": 2, "feature_dim": 1, "noise_sigma": 0, "n_labeled": 1,
                      "n_unlabeled": 1, "n_dev": 1, "n_test": 1},
    TrainConfig: {"epochs": 0, "batch_size": 1, "base_lr": 0, "warmup_frac": (0, 1),
                  "hold_frac": (0, 1), "seed": 0},
    IplConfig: {"iter_max": 1, "seed": 0, "hidden_dim": 0, "max_wer": (0, None), "pseudo_weight": 0},
    ThresholdSchedule: {"step": (0, None), "iters_per_update": 1, "max_updates": 1},
    EstimateConfig: {"max_wer": (0, None), "coverage": (0, 1), "min_probe": 1},
}


def _non_finite_cases():
    """Every float field of every config, set to each non-finite value."""
    for cls in BOUNDS:
        hints = get_type_hints(cls)
        for f in fields(cls):
            if hints[f.name] in (float, float | None):
                for value in (float("nan"), float("inf"), float("-inf")):
                    yield pytest.param(cls, f.name, value, id=f"{cls.__name__}-{f.name}-{value}")


def _out_of_range_cases():
    """Every bounded field, set just below its lower bound and just above its upper one, and
    an open lower bound's field set to the bound itself."""
    for cls, bounds in BOUNDS.items():
        hints = get_type_hints(cls)
        for name, bound in bounds.items():
            lo, hi = bound if isinstance(bound, tuple) else (bound, None)
            for edge, side in ((lo, -1), (hi, 1)):
                if edge is not None:
                    value = edge + side if hints[name] is int else np.nextafter(float(edge), side * np.inf)
                    yield pytest.param(cls, name, value, id=f"{cls.__name__}-{name}-{value}")
            if isinstance(bound, tuple) and hi is None:
                yield pytest.param(cls, name, float(lo), id=f"{cls.__name__}-{name}-{float(lo)}")


class TestConfigRule:
    @pytest.mark.parametrize("cls, name, value", _non_finite_cases())
    def test_non_finite_float_field_is_refused_naming_it(self, cls, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
            cls(**{name: value})

    @pytest.mark.parametrize("cls, name, value", _out_of_range_cases())
    def test_field_outside_its_range_is_refused_naming_it(self, cls, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must "):
            cls(**{name: value})


class TestTeacher:
    def test_noiseless_teacher_is_perfect(self):
        splits = small_splits(noise_sigma=0.0, n_labeled=8, n_dev=10)
        result = train_teacher(splits, IplConfig(train=TrainConfig(epochs=25, seed=0)))
        assert result.report.dev_wer == 0.0

    def test_empty_labeled_split_rejected(self):
        splits = small_splits()
        splits.labeled = []
        with pytest.raises(ConfigurationError):
            train_teacher(splits, IplConfig(train=FAST))

    def test_fixed_seed_reproducible(self):
        splits = small_splits()
        cfg = IplConfig(train=FAST, seed=3)
        a = train_teacher(splits, cfg)
        b = train_teacher(splits, cfg)
        assert all(
            np.array_equal(a.model.params[k], b.model.params[k]) for k in a.model.params
        )
        assert a.report.dev_wer == b.report.dev_wer

    def test_noise_hurts_substantially(self):
        # same pipeline, clean vs noise far beyond the mean separation
        cfg = IplConfig(train=TrainConfig(epochs=25, seed=0))
        clean = train_teacher(small_splits(noise_sigma=0.0, n_labeled=8), cfg).report.dev_wer
        noisy = train_teacher(small_splits(noise_sigma=10.0, n_labeled=8), cfg).report.dev_wer
        assert clean < 0.05
        assert noisy > clean + 0.3


class TestRunIpl:
    def test_degenerate_run_returns_teacher(self):
        splits = small_splits()
        cfg = IplConfig(iter_max=1, train=TrainConfig(epochs=0, seed=0))
        teacher = train_teacher(splits, IplConfig(train=FAST))
        result = run_ipl(splits, cfg, teacher=teacher.model)
        assert all(
            np.array_equal(result.model.params[k], teacher.model.params[k])
            for k in teacher.model.params
        )
        rep = result.reports[0]
        assert rep.generated == len(splits.unlabeled)
        assert rep.kept + rep.rejected == rep.generated

    def test_conservation_and_counts(self):
        splits = small_splits()
        cfg = IplConfig(
            iter_max=2, filter_mode="score", score_threshold=-0.15, train=FAST
        )
        result = run_ipl(splits, cfg)
        for rep in result.reports:
            assert rep.generated == len(splits.unlabeled)
            assert rep.kept + rep.rejected == rep.generated
            assert rep.oracle_mean_wer_kept is None or rep.oracle_mean_wer_kept >= 0

    def test_reproducible_end_to_end(self):
        splits = small_splits()
        cfg = IplConfig(iter_max=2, filter_mode="score", score_threshold=-0.2, train=FAST, seed=1)
        a = run_ipl(splits, cfg)
        b = run_ipl(splits, cfg)
        assert all(np.array_equal(a.model.params[k], b.model.params[k]) for k in a.model.params)
        assert [r.dev_wer for r in a.reports] == [r.dev_wer for r in b.reports]

    def test_hidden_truth_never_influences_score_mode(self):
        splits = small_splits()
        cfg = IplConfig(iter_max=2, filter_mode="score", score_threshold=-0.6, train=FAST, seed=1)
        with_truth = run_ipl(splits, cfg)
        stripped = run_ipl(replace(splits, unlabeled_refs=Transcripts()), cfg)
        assert all(
            np.array_equal(with_truth.model.params[k], stripped.model.params[k])
            for k in with_truth.model.params
        )
        for a, b in zip(with_truth.reports, stripped.reports):
            assert (a.kept, a.rejected, a.dev_wer, a.test_wer) == (b.kept, b.rejected, b.dev_wer, b.test_wer)
            assert a.kept > 0
            assert a.oracle_mean_wer_kept is not None
            assert b.oracle_mean_wer_kept is None

    def test_empty_kept_set_degrades_gracefully(self):
        splits = small_splits()
        cfg = IplConfig(iter_max=1, filter_mode="score", score_threshold=0.0, train=FAST)
        result = run_ipl(splits, cfg)
        rep = result.reports[0]
        assert rep.kept == 0
        assert rep.trained_on_labeled_only
        assert rep.mean_score_kept is None

    def test_wer_mode_requires_truth(self, tmp_path, monkeypatch):
        splits = replace(small_splits(), unlabeled_refs=Transcripts())
        cfg = IplConfig(iter_max=1, filter_mode="wer", max_wer=0.1, train=FAST)
        monkeypatch.setattr(pipeline, "train_teacher", lambda *a: pytest.fail("teacher trained"))
        with pytest.raises(OracleError, match="withholds"):
            run_ipl(splits, cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()  # no teacher written either

    def test_restart_vs_warm_start_differ_after_two_iterations(self):
        splits = small_splits()
        kw = dict(iter_max=2, filter_mode="none", train=FAST, seed=0)
        warm = run_ipl(splits, IplConfig(warm_start=True, **kw))
        cold = run_ipl(splits, IplConfig(warm_start=False, **kw))
        assert not all(
            np.array_equal(warm.model.params[k], cold.model.params[k])
            for k in warm.model.params
        )

    def test_lowering_threshold_never_shrinks_kept_count(self):
        splits = small_splits()
        teacher = train_teacher(splits, IplConfig(train=FAST)).model
        kept = []
        for thr in (-0.05, -0.2, -0.5, -1.0):
            cfg = IplConfig(iter_max=1, filter_mode="score", score_threshold=thr, train=FAST)
            kept.append(run_ipl(splits, cfg, teacher=teacher).reports[0].kept)
        assert kept == sorted(kept)

    def test_run_dir_artifacts(self, tmp_path):
        splits = small_splits()
        cfg = IplConfig(iter_max=2, filter_mode="score", score_threshold=-0.2, train=FAST)
        run_ipl(splits, cfg, out_dir=tmp_path)
        for name in (
            "teacher_model.json",
            "teacher_report.jsonl",
            "iter-01.model.json",
            "iter-01.pseudolabels.jsonl",
            "iter-02.model.json",
            "reports.jsonl",
            "summary.txt",
            "timings.txt",
        ):
            assert (tmp_path / name).is_file(), name
        assert len(load_run(tmp_path).reports) == 2
        assert "wall_clock" not in (tmp_path / "reports.jsonl").read_text()

    def test_runs_every_iteration_while_dev_wer_rises(self, monkeypatch):
        # a one-config schedule has no predecessor to decline against
        wers = iter(range(100))
        monkeypatch.setattr(pipeline, "evaluate_wer", lambda model, pairs: float(next(wers)))
        result = run_ipl(small_splits(), IplConfig(iter_max=4, train=FAST))
        assert [r.iteration for r in result.reports] == [1, 2, 3, 4]
        assert [r.dev_wer for r in result.reports] == [2.0, 4.0, 6.0, 8.0]


class TestSelectThreshold:
    def test_literal_tradeoff_sequence(self):
        history = [(-0.03, 7.87), (-0.04, 7.63), (-0.05, 7.47), (-0.06, 7.60)]
        assert select_threshold(history) == (-0.05, True)

    def test_monotone_improvement_returns_last_without_decline(self):
        history = [(-0.1, 5.0), (-0.2, 4.0), (-0.3, 3.5)]
        assert select_threshold(history) == (-0.3, False)

    def test_immediate_decline_returns_first(self):
        history = [(-0.1, 5.0), (-0.2, 6.0)]
        assert select_threshold(history) == (-0.1, True)

    def test_tie_is_not_a_decline(self):
        history = [(-0.1, 5.0), (-0.2, 5.0), (-0.3, 6.0)]
        assert select_threshold(history) == (-0.2, True)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            select_threshold([])

    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_never_worse_than_both_neighbors(self, wers):
        history = [(-0.01 * (i + 1), w) for i, w in enumerate(wers)]
        chosen, declined = select_threshold(history)
        idx = [t for t, _ in history].index(chosen)
        if idx > 0:
            assert wers[idx] <= wers[idx - 1]
        if declined:
            assert wers[idx] < wers[idx + 1]


class TestSweep:
    def test_stops_on_decline_and_returns_predecessor(self):
        splits = generate_corpus(CorpusGenConfig(), seed=0)
        cfg = IplConfig(
            filter_mode="score", score_threshold=-0.05,
            train=TrainConfig(epochs=30, base_lr=0.15), seed=0,
        )
        sched = ThresholdSchedule(initial=-0.05, step=0.03, iters_per_update=3, max_updates=8)
        result = sweep_threshold(splits, cfg, sched)
        assert result.declined
        decline_idx = result.thresholds.index(result.best_threshold)
        assert result.best_dev_wer_per_threshold[decline_idx + 1] > result.best_dev_wer_per_threshold[decline_idx]
        assert len(result.reports) == 3 * len(result.thresholds)

    def test_boundary_advances_every_n_iterations(self):
        # max_updates caps the sweep before a decline can stop it early
        splits = small_splits()
        sched = ThresholdSchedule(initial=-0.1, step=0.05, iters_per_update=2, max_updates=1)
        cfg = IplConfig(train=FAST)
        result = sweep_threshold(splits, cfg, sched)
        assert [r.threshold for r in result.reports] == [-0.1, -0.1]
        sched = replace(sched, max_updates=3)
        result = sweep_threshold(splits, cfg, sched)
        n = len(result.thresholds)
        assert result.thresholds == [sched.boundary(u) for u in range(n)]
        assert [r.threshold for r in result.reports] == [sched.boundary(u // 2) for u in range(2 * n)]
        assert [r.iteration for r in result.reports] == list(range(1, 2 * n + 1))

    def test_exhausted_schedule_warns(self):
        splits = small_splits()
        cfg = IplConfig(filter_mode="score", score_threshold=-0.1, train=FAST)
        sched = ThresholdSchedule(initial=-0.1, step=0.05, iters_per_update=1, max_updates=1)
        result = sweep_threshold(splits, cfg, sched)
        assert not result.declined
        assert result.best_threshold == -0.1

    def test_schedule_replaces_the_configs_filter(self, tmp_path):
        splits = small_splits()
        sched = ThresholdSchedule(initial=-0.1, step=0.05, iters_per_update=1, max_updates=2)
        for mode, kw in [("none", {}), ("wer", {"max_wer": 0.1})]:
            cfg = IplConfig(filter_mode=mode, train=FAST, **kw)
            sweep_threshold(splits, cfg, sched, out_dir=tmp_path / mode)
        reports = (tmp_path / "none" / "reports.jsonl").read_bytes()
        assert (tmp_path / "wer" / "reports.jsonl").read_bytes() == reports
        thresholds = [r.threshold for r in load_run(tmp_path / "wer").reports]
        assert thresholds == [sched.boundary(0), sched.boundary(1)]

    def test_each_step_runs_its_own_iter_max(self):
        splits = small_splits()
        schedule = [IplConfig(iter_max=n, train=FAST) for n in (2, 1)]
        teacher = train_teacher(splits, schedule[0]).model
        run, best = pipeline._ipl_loop(splits, schedule, teacher, RunWriter(None))
        assert [r.iteration for r in run.reports] == [1, 2, 3]
        assert best == [min(r.dev_wer for r in run.reports[:2]), run.reports[2].dev_wer]

    def test_needs_dev_split(self):
        splits = small_splits()
        splits.dev = []
        cfg = IplConfig(filter_mode="score", score_threshold=-0.1, train=FAST)
        with pytest.raises(ConfigurationError):
            sweep_threshold(splits, cfg, ThresholdSchedule(-0.1, 0.05))


class TestEmptySplits:
    @pytest.mark.parametrize("split", ["labeled", "dev", "test"])
    def test_a_run_needs_labeled_dev_and_test(self, split):
        splits = small_splits()
        teacher = init_model(splits.feature_dim, 8, 0, seed=0)
        setattr(splits, split, [])
        with pytest.raises(ConfigurationError, match=f"^{split} split is empty$"):
            train_teacher(splits, IplConfig(train=FAST))
        with pytest.raises(ConfigurationError, match=f"^{split} split is empty$"):
            run_ipl(splits, IplConfig(iter_max=1, train=FAST), teacher=teacher)


class TestOracleWerOnce:
    @pytest.mark.parametrize("mode, kw", [("score", {"score_threshold": -1.0}),
                                          ("wer", {"max_wer": 0.5}), ("none", {})])
    def test_one_edit_distance_per_utterance_per_iteration(self, monkeypatch, mode, kw):
        splits = small_splits(n_unlabeled=50, n_dev=10, n_test=10)
        teacher = init_model(splits.feature_dim, 8, 0, seed=0)
        pairs = []  # pairs handed to each edit_counts call, batch form or single
        edit_counts = metrics.edit_counts
        monkeypatch.setattr(metrics, "edit_counts",
                            lambda *a: pairs.append(len(a[2]) if len(a) > 2 else 1) or edit_counts(*a))
        cfg = IplConfig(iter_max=1, filter_mode=mode, train=replace(FAST, epochs=0), **kw)
        run_ipl(splits, cfg, teacher=teacher)
        assert sum(pairs) == 50 + 10 + 10


class TestEstimate:
    @pytest.mark.parametrize("kw, named", [
        ({"coverage": 1.5}, "coverage"), ({"coverage": -0.1}, "coverage"),
        ({"min_probe": 0}, "min_probe"),
    ])
    def test_range_checks(self, kw, named):
        splits = small_splits()
        model = init_model(splits.feature_dim, 8, 0, seed=0)
        with pytest.raises(ConfigurationError, match=f"^{named} must"):
            estimate_threshold(model, splits.dev, EstimateConfig(max_wer=0.1, **kw))

    def test_perfect_hypotheses_keep_everything(self):
        splits = small_splits(noise_sigma=0.0, n_labeled=8, n_dev=24)
        teacher = train_teacher(splits, IplConfig(train=TrainConfig(epochs=25, seed=0)))
        assert teacher.report.dev_wer == 0.0  # precondition: probe decodes exactly
        result = estimate_threshold(teacher.model, splits.dev, EstimateConfig(max_wer=0.10, min_probe=10))
        scores = [p.score for p in result.pseudolabels]
        assert result.threshold == np.nextafter(min(scores), -np.inf)
        assert result.score_kept_count == len(splits.dev)
        assert result.wer_kept_count == len(splits.dev)
        assert result.overlap_jaccard == 1.0

    def test_probe_too_small(self):
        splits = small_splits()
        model = init_model(splits.feature_dim, 8, 0, seed=0)
        with pytest.raises(InsufficientProbeError):
            estimate_threshold(model, splits.dev[:3], EstimateConfig(max_wer=0.1, min_probe=20))

    def test_empty_probe(self):
        splits = small_splits()
        model = init_model(splits.feature_dim, 8, 0, seed=0)
        with pytest.raises(InsufficientProbeError):
            estimate_threshold(model, [], EstimateConfig(max_wer=0.1))

    def test_report_contents(self, tmp_path):
        splits = generate_corpus(CorpusGenConfig(n_labeled=8, n_unlabeled=10, n_dev=30, n_test=8), seed=1)
        teacher = train_teacher(splits, IplConfig(train=TrainConfig(epochs=20, seed=0)))
        result = estimate_threshold(teacher.model, splits.dev, EstimateConfig(max_wer=0.10, min_probe=10))
        RunWriter(tmp_path).estimate(result, 20)
        assert len(result.pseudolabels) == 30
        assert all(p.oracle_wer is not None for p in result.pseudolabels)
        assert 0.0 <= result.overlap_jaccard <= 1.0
        assert 0.0 <= result.overlap_min_ratio <= 1.0
        for name in ("estimate.json", "probe_pseudolabels.jsonl", "score_hist.jsonl",
                     "wer_hist.jsonl", "scatter.jsonl"):
            assert (tmp_path / name).is_file(), name
        for name in ("score_hist.jsonl", "wer_hist.jsonl"):
            bins = [json.loads(line) for line in (tmp_path / name).read_text().splitlines()[1:]]
            assert sum(b["count"] for b in bins) == 30, name

    def test_kept_set_respects_wer_cap_and_coverage(self):
        splits = generate_corpus(CorpusGenConfig(n_labeled=8, n_unlabeled=10, n_dev=40, n_test=8), seed=2)
        teacher = train_teacher(splits, IplConfig(train=TrainConfig(epochs=20, seed=0)))
        result = estimate_threshold(teacher.model, splits.dev, EstimateConfig(max_wer=0.10, min_probe=10))
        kept = [(p.utterance_id, p.oracle_wer) for p in result.pseudolabels
                if p.score > result.threshold]
        assert len(kept) == result.score_kept_count
        assert len(score_filter(result.pseudolabels, result.threshold)) == result.score_kept_count
        assert len(kept) <= result.wer_kept_count
        inside = sum(1 for _, w in kept if w < 0.10)
        assert inside >= 0.9 * len(kept)


class TestReportSerialization:
    def test_summary_marks_best_row(self, tmp_path):
        splits = small_splits()
        cfg = IplConfig(iter_max=2, filter_mode="none", train=FAST)
        result = run_ipl(splits, cfg, out_dir=tmp_path)
        best = min(result.reports, key=lambda r: r.dev_wer).iteration
        text = (tmp_path / "summary.txt").read_text()
        assert f"{best}*" in text

    def test_reports_write_and_load(self, tmp_path):
        splits = small_splits()
        result = run_ipl(splits, IplConfig(iter_max=1, filter_mode="none", train=FAST), out_dir=tmp_path)
        loaded = load_run(tmp_path).reports
        assert loaded[0].generated == result.reports[0].generated
        assert loaded[0].dev_wer == result.reports[0].dev_wer


class TestLoadRun:
    def test_ipl_run_reads_back(self, tmp_path):
        result = run_ipl(small_splits(), IplConfig(iter_max=2, train=FAST), out_dir=tmp_path)
        run = load_run(tmp_path)
        assert [report_record(r) for r in run.reports] == [report_record(r) for r in result.reports]
        assert run.sweep is None and run.estimate is None
        assert run.pseudolabels == tmp_path / "iter-02.pseudolabels.jsonl"
        assert run_summary(run) == (tmp_path / "summary.txt").read_text()

    def test_estimate_run_reads_back(self, tmp_path):
        splits = small_splits(n_dev=12)
        result = estimate_threshold(init_model(splits.feature_dim, 8, 0, seed=0), splits.dev,
                                    EstimateConfig(max_wer=0.5, min_probe=10))
        writer = RunWriter(tmp_path)
        writer.estimate(result, 20)
        writer.finish()
        run = load_run(tmp_path)
        assert run.teacher is None and run.reports == [] and run.sweep is None
        assert run.estimate["threshold"] == result.threshold
        assert run.estimate["score_kept_count"] == result.score_kept_count
        assert run.pseudolabels == tmp_path / "probe_pseudolabels.jsonl"
        assert "estimated threshold" in run_summary(run)
        assert run_summary(run) == (tmp_path / "summary.txt").read_text()

    def test_teacher_run_reads_back(self, tmp_path):
        writer = RunWriter(tmp_path)
        teacher = train_teacher(small_splits(), IplConfig(train=FAST))
        writer.teacher(teacher)
        writer.finish()
        run = load_run(tmp_path)
        assert run == RunRecord(teacher=teacher.report)
        report = teacher.report
        assert run_summary(run) == f"teacher dev_wer {report.dev_wer:.4f} test_wer {report.test_wer:.4f}\n"
        assert run_summary(run) == (tmp_path / "summary.txt").read_text()

    def test_stale_iteration_file_is_ignored(self, tmp_path):
        # a 3-iteration run, then a 2-iteration run into the same directory
        run_ipl(small_splits(), IplConfig(iter_max=3, train=FAST), out_dir=tmp_path)
        result = run_ipl(small_splits(), IplConfig(iter_max=2, train=FAST), out_dir=tmp_path)
        assert (tmp_path / "iter-03.pseudolabels.jsonl").is_file()
        run = load_run(tmp_path)
        assert [r.iteration for r in run.reports] == [1, 2]
        assert run.pseudolabels == tmp_path / "iter-02.pseudolabels.jsonl"
        assert run_summary(run) == (tmp_path / "summary.txt").read_text()
        assert run_summary(run) == run_summary(RunRecord(run.teacher, result.reports))

    def test_a_report_of_iteration_100_names_iter_100(self, tmp_path):
        run_ipl(small_splits(), IplConfig(iter_max=1, train=FAST), out_dir=tmp_path)
        reports = tmp_path / "reports.jsonl"
        header, rec = reports.read_text().splitlines()
        reports.write_text(header + "\n" + json.dumps({**json.loads(rec), "iteration": 100}) + "\n")
        for t in (1, 9, 10, 99):
            (tmp_path / f"iter-{t:02d}.pseudolabels.jsonl").touch()
        missing = tmp_path / "iter-100.pseudolabels.jsonl"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(missing))}: missing file$"):
            load_run(tmp_path)
        missing.touch()
        assert load_run(tmp_path).pseudolabels == missing

    @pytest.mark.parametrize("name, lineno, field", [("reports.jsonl", 2, "dev_wer"),
                                                     ("estimate.json", 1, "threshold"),
                                                     ("teacher_report.jsonl", 2, "dev_wer")])
    def test_bool_for_a_number_names_line(self, tmp_path, name, lineno, field):
        # each file from a run of its own: a run clears the records of an earlier one
        splits = small_splits(n_dev=12)
        if name == "estimate.json":
            model = init_model(splits.feature_dim, 8, 0, seed=0)
            RunWriter(tmp_path).estimate(estimate_threshold(model, splits.dev,
                                                            EstimateConfig(max_wer=0.5, min_probe=10)), 20)
        else:
            run_ipl(splits, IplConfig(iter_max=1, train=FAST), out_dir=tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), field: True})
        path.write_text("\n".join(lines) + "\n")
        expected = f"{path}:{lineno}: field {field!r} is bool, expected int or float"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(expected)}$"):
            load_run(tmp_path)

    def test_missing_dir_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nope")

    def test_dir_without_records_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no reports.jsonl"):
            load_run(tmp_path)


class TestWritePlots:
    @pytest.fixture()
    def pls(self, tmp_path):
        run_ipl(small_splits(), IplConfig(iter_max=1, train=FAST), out_dir=tmp_path / "run")
        return load_pseudolabels(tmp_path / "run" / "iter-01.pseudolabels.jsonl")

    def test_with_oracle_wer_writes_all_three(self, pls, tmp_path):
        assert all(p.oracle_wer is not None for p in pls)
        write_plots(pls, 4, tmp_path / "plots")
        assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == [
            "scatter.jsonl", "score_hist.jsonl", "wer_hist.jsonl"]
        lines = (tmp_path / "plots" / "scatter.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": "score-wer-scatter", "version": 1}
        assert [json.loads(line) for line in lines[1:]] == [
            {"utterance_id": p.utterance_id, "score": p.score, "oracle_wer": p.oracle_wer}
            for p in pls]

    def test_no_labels_write_no_file(self, tmp_path):
        write_plots([], 4, tmp_path / "plots")
        assert not (tmp_path / "plots").exists()

    def test_without_oracle_wer_writes_score_histogram_only(self, pls, tmp_path):
        pls.oracle_wer = None
        write_plots(pls, 4, tmp_path / "plots")
        assert [p.name for p in (tmp_path / "plots").iterdir()] == ["score_hist.jsonl"]
        bins = [json.loads(line)
                for line in (tmp_path / "plots" / "score_hist.jsonl").read_text().splitlines()[1:]]
        assert len(bins) == 4 and sum(b["count"] for b in bins) == len(pls)
        assert bins[0]["bin_left"] == min(p.score for p in pls)
        assert bins[-1]["bin_right"] == max(p.score for p in pls)


# The field table of each run record, pinned: a new dataclass field is a change of file format
_OPTIONAL = (*NUMBER, type(None))
RECORD_TABLES = {
    "REPORT_FIELDS": {
        "iteration": int, "threshold": _OPTIONAL, "generated": int, "kept": int, "rejected": int,
        "mean_score_kept": _OPTIONAL, "oracle_mean_wer_kept": _OPTIONAL,
        "oracle_mean_wer_rejected": _OPTIONAL, "dev_wer": NUMBER, "test_wer": NUMBER,
        "trained_on_labeled_only": bool,
    },
    "TEACHER_FIELDS": {"dev_wer": NUMBER, "test_wer": NUMBER, "loss_curve": NumberList},
    "SWEEP_FIELDS": {"best_threshold": NUMBER, "declined": bool, "thresholds": NumberList,
                     "best_dev_wer_per_threshold": NumberList},
    "ESTIMATE_FIELDS": {"threshold": NUMBER, "probe_size": int, "wer_kept_count": int,
                        "score_kept_count": int, "overlap_jaccard": NUMBER,
                        "overlap_min_ratio": NUMBER},
}


@pytest.mark.parametrize("name", sorted(RECORD_TABLES))
def test_record_tables_are_pinned(name):
    table = getattr(pipeline, name)
    assert table == RECORD_TABLES[name]
    assert list(table) == list(RECORD_TABLES[name])  # in dataclass field order


def test_record_fields_rejects_an_annotation_without_a_json_type():
    from dataclasses import dataclass

    from iplfilter.artifacts import record_fields

    @dataclass
    class Odd:
        n: int
        ids: list[str]
        ok: bool

    assert record_fields(Odd, skip=("ids",)) == {"n": int, "ok": bool}
    with pytest.raises(TypeError, match="Odd: no JSON type for the fields .*'ids'"):
        record_fields(Odd)
