"""Acceptance suite: one test per numbered criterion, at stated tolerances.

The conftest terminal hook prints one PASS/FAIL line per criterion after the
run. Criteria 6-8 train real models, so this module takes a couple of minutes;
everything is seeded and deterministic.
"""

import math
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np
import pytest

from iplfilter.cli import main as cli_main
from iplfilter.corpus import CorpusGenConfig, LabelSequence, generate_corpus
from iplfilter.ctc import brute_force_ctc, ctc_log_prob, greedy_decode
from iplfilter.metrics import edit_counts, overlap_rate
from iplfilter.model import TrainConfig, init_model, lr_at, utterance_loss_and_grads
from iplfilter.pipeline import (
    IplConfig,
    ThresholdSchedule,
    estimate_threshold,
    run_ipl,
    select_threshold,
    sweep_threshold,
    train_teacher,
)
from iplfilter.pseudolabel import PseudoLabel, score_filter, wer_filter
from test_ctc import is_feasible
from test_pseudolabel import columns, ids, score_utterance

SEEDS = (0, 1, 2, 3, 4)
TRAIN = TrainConfig(epochs=30, base_lr=0.15)
SCORE_THRESHOLD = -0.08
MAX_WER = 0.10
SCHEDULE = ThresholdSchedule(initial=-0.05, step=0.03, iters_per_update=3, max_updates=8)


def random_logp(rng, T, C):
    logits = rng.standard_normal((T, C))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def sign_test_p_value(n_wins, n_trials):
    """One-sided exact binomial tail P(X >= n_wins) under p = 1/2."""
    if n_trials == 0:
        return 1.0
    tail = sum(math.comb(n_trials, k) for k in range(n_wins, n_trials + 1))
    return tail / 2**n_trials


def _mode_runs(seed):
    """One seed's final dev WER per mode on the default corpus, and each IPL run's time."""
    splits = generate_corpus(CorpusGenConfig(), seed=seed)

    def cfg(**kw):
        return IplConfig(iter_max=3, train=TRAIN, seed=seed, **kw)

    teacher = train_teacher(splits, cfg(filter_mode="none"))
    runs = {
        "none": cfg(filter_mode="none"),
        "score": cfg(filter_mode="score", score_threshold=SCORE_THRESHOLD),
        "wer": cfg(filter_mode="wer", max_wer=MAX_WER),
    }
    table = {(seed, "teacher"): teacher.report.dev_wer}
    timings = []
    for mode, rc in runs.items():
        t0 = time.perf_counter()
        result = run_ipl(splits, rc, teacher=teacher.model)
        timings.append(time.perf_counter() - t0)
        table[(seed, mode)] = result.reports[-1].dev_wer
    return table, timings


def _sweep_estimate(seed):
    """One seed's sweep-selected and probe-estimated thresholds."""
    splits = generate_corpus(CorpusGenConfig(), seed=seed)
    cfg = IplConfig(
        filter_mode="score", score_threshold=SCHEDULE.initial, train=TRAIN, seed=seed
    )
    teacher = train_teacher(splits, cfg)
    sw = sweep_threshold(splits, cfg, SCHEDULE, teacher=teacher.model)
    est = estimate_threshold(teacher.model, splits.dev, max_wer=MAX_WER)
    return seed, sw, est


@pytest.fixture(scope="module")
def fixture_jobs():
    """Both fixtures' ten (fixture, seed) jobs, run in worker processes.

    Every job is fully seeded and shares no state, so the results equal
    those of running the jobs one after another, in this process. The
    sweeps, the longest jobs, go first. Spawned workers start from a fresh
    import, so each turns a numpy RuntimeWarning into an error itself, as
    the suite's configuration does here.
    """
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, 10),
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=warnings.simplefilter, initargs=("error", RuntimeWarning)) as pool:
        sweeps = [pool.submit(_sweep_estimate, seed) for seed in SEEDS]
        modes = [pool.submit(_mode_runs, seed) for seed in SEEDS]
        return [job.result() for job in modes], [job.result() for job in sweeps]


@pytest.fixture(scope="module")
def mode_runs(fixture_jobs):
    """Final dev WER per (seed, mode) on the default corpus, plus timings."""
    table, timings = {}, []
    for rows, times in fixture_jobs[0]:
        table.update(rows)
        timings.extend(times)
    return table, timings


@pytest.fixture(scope="module")
def sweep_estimate_runs(fixture_jobs):
    """Sweep-selected vs probe-estimated thresholds per seed."""
    return fixture_jobs[1]


class TestCriterion1:
    def test_criterion_01_ctc_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        checked = 0
        while checked < 200:
            T = int(rng.integers(1, 7))
            C = int(rng.integers(2, 5))  # blank + at most 3 tokens
            L = int(rng.integers(0, T + 1))
            labels = [int(rng.integers(1, C)) for _ in range(L)]
            if not is_feasible(T, labels):
                continue
            logp = random_logp(rng, T, C)
            exact = ctc_log_prob(logp, labels).log_prob
            brute = brute_force_ctc(logp, labels)
            assert abs(exact - brute) <= 1e-6
            checked += 1
        assert time.perf_counter() - t0 < 10.0


class TestCriterion2:
    def test_criterion_02_ctc_gradient_check(self):
        rng = np.random.default_rng(77)
        t0 = time.perf_counter()
        h = 1e-6
        checked = 0
        while checked < 50:
            T = int(rng.integers(2, 6))
            C = int(rng.integers(2, 5))
            L = int(rng.integers(0, T + 1))
            labels = [int(rng.integers(1, C)) for _ in range(L)]
            if not is_feasible(T, labels):
                continue
            logits = rng.standard_normal((T, C))

            def loss(lg):
                lp = lg - np.log(np.exp(lg).sum(axis=1, keepdims=True))
                return -ctc_log_prob(lp, labels).log_prob

            lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            grad = ctc_log_prob(lp, labels, with_grad=True).grad
            numeric = np.zeros_like(logits)
            for idx in np.ndindex(logits.shape):
                up, down = logits.copy(), logits.copy()
                up[idx] += h
                down[idx] -= h
                numeric[idx] = (loss(up) - loss(down)) / (2 * h)
            rel = np.abs(grad - numeric).max() / max(np.abs(numeric).max(), 1e-8)
            assert rel <= 1e-4
            checked += 1
        # model parameters get the same treatment end to end
        from iplfilter.corpus import FeatureSequence

        for trial in range(5):
            model = init_model(3, 3, 4 if trial % 2 else 0, seed=trial)
            fs = FeatureSequence("u", rng.standard_normal((4, 3)))
            labels = LabelSequence((1, 2))
            _, grads = utterance_loss_and_grads(model, fs, labels)
            for key, g in grads.items():
                numeric = np.zeros_like(g)
                param = model.params[key]
                for idx in np.ndindex(param.shape):
                    orig = param[idx]
                    param[idx] = orig + h
                    up, _ = utterance_loss_and_grads(model, fs, labels)
                    param[idx] = orig - h
                    down, _ = utterance_loss_and_grads(model, fs, labels)
                    param[idx] = orig
                    numeric[idx] = (up - down) / (2 * h)
                rel = np.abs(g - numeric).max() / max(np.abs(numeric).max(), 1e-8)
                assert rel <= 1e-4
        assert time.perf_counter() - t0 < 30.0


class TestCriterion3:
    def test_criterion_03_wer_oracle_equivalence(self):
        def recursive_levenshtein(a, b):
            @lru_cache(maxsize=None)
            def dist(i, j):
                if i == 0:
                    return j
                if j == 0:
                    return i
                same = a[i - 1] == b[j - 1]
                return min(
                    dist(i - 1, j - 1) + (0 if same else 1),
                    dist(i - 1, j) + 1,
                    dist(i, j - 1) + 1,
                )

            return dist(len(a), len(b))

        rng = np.random.default_rng(11)
        for _ in range(500):
            ref = tuple(int(x) for x in rng.integers(1, 5, size=rng.integers(0, 9)))
            hyp = tuple(int(x) for x in rng.integers(1, 5, size=rng.integers(0, 9)))
            counts = edit_counts(ref, hyp)
            assert counts.errors == recursive_levenshtein(ref, hyp)
            assert counts.substitutions + counts.deletions + counts.hits == len(ref)
            assert counts.substitutions + counts.insertions + counts.hits == len(hyp)


class TestCriterion4:
    def test_criterion_04_score_consistency(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            logp = random_logp(rng, int(rng.integers(1, 12)), int(rng.integers(2, 7)))
            _, framewise_max = greedy_decode(logp)
            assert score_utterance(logp) == float(np.mean(framewise_max))
        for K in (2, 3, 4, 9):
            uniform = np.full((7, K), -np.log(K))
            assert abs(score_utterance(uniform) - (-np.log(K))) <= 1e-9


class TestCriterion5:
    def test_criterion_05_filter_algebra(self):
        rng = np.random.default_rng(31)
        # subset anti-monotonicity over >= 1000 random threshold pairs
        for _ in range(1000):
            n = int(rng.integers(0, 25))
            pls = columns(
                PseudoLabel(f"u{i}", LabelSequence((1,)), float(-rng.uniform(0, 3)))
                for i in range(n)
            )
            b1, b2 = -rng.uniform(0, 3), -rng.uniform(0, 3)
            lo, hi = min(b1, b2), max(b1, b2)
            kept_hi = set(ids(pls, score_filter(pls, hi)))
            kept_lo = set(ids(pls, score_filter(pls, lo)))
            assert kept_hi <= kept_lo
        # wer_filter soundness: kept strictly under the cutoff, rejected at or over
        for trial in range(50):
            refs = {}
            rows = []
            for i in range(int(rng.integers(1, 30))):
                ref = tuple(int(x) for x in rng.integers(1, 5, size=rng.integers(1, 6)))
                hyp = tuple(int(x) for x in rng.integers(1, 5, size=rng.integers(0, 6)))
                refs[f"u{i}"] = LabelSequence(ref)
                rows.append(PseudoLabel(f"u{i}", LabelSequence(hyp), -1.0))
            pls = columns(rows)
            cutoff = float(rng.uniform(0.05, 1.5))
            kept_ids = set(ids(pls, wer_filter(pls, refs, cutoff)))
            for p in pls:
                assert p.oracle_wer is not None
                if p.utterance_id in kept_ids:
                    assert p.oracle_wer < cutoff
                else:
                    assert p.oracle_wer >= cutoff


class TestCriterion6:
    def test_criterion_06_filter_comparison_direction(self, mode_runs):
        table, timings = mode_runs
        assert all(t < 300.0 for t in timings), "an IPL run exceeded 5 minutes"
        chain = ("wer", "score", "none", "teacher")  # best to worst expected
        means = {m: np.mean([table[(s, m)] for s in SEEDS]) for m in chain}
        for better, worse in zip(chain, chain[1:]):
            assert means[better] <= means[worse] + 1e-12, (
                f"mean dev WER inverted: {better} {means[better]:.4f} "
                f"vs {worse} {means[worse]:.4f}"
            )
            inversions = sum(table[(s, better)] > table[(s, worse)] for s in SEEDS)
            non_ties = sum(table[(s, better)] != table[(s, worse)] for s in SEEDS)
            p = sign_test_p_value(inversions, non_ties)
            assert p > 0.05, f"{better} significantly worse than {worse} (p={p:.3f})"


class TestCriterion7:
    def test_criterion_07_sweep_returns_predecessor_at_first_decline(self, sweep_estimate_runs):
        declined_anywhere = False
        for seed, sw, _ in sweep_estimate_runs:
            if not sw.declined:
                continue
            declined_anywhere = True
            wers = sw.best_dev_wer_per_threshold
            first_decline = next(k for k in range(1, len(wers)) if wers[k] > wers[k - 1])
            assert sw.best_threshold == sw.thresholds[first_decline - 1]
            assert len(sw.reports) == len(sw.thresholds) * SCHEDULE.iters_per_update
        assert declined_anywhere, "tuned corpus never produced a dev-WER decline"

    def test_criterion_07_literal_tradeoff_sequence(self):
        history = [(-0.03, 7.87), (-0.04, 7.63), (-0.05, 7.47), (-0.06, 7.60)]
        chosen, declined = select_threshold(history)
        assert chosen == -0.05
        assert declined


class TestCriterion8:
    def test_criterion_08_estimate_matches_sweep(self, sweep_estimate_runs):
        near = 0
        for seed, sw, est in sweep_estimate_runs:
            if abs(est.threshold - sw.best_threshold) <= SCHEDULE.step + 1e-12:
                near += 1
        assert near >= 3, f"only {near}/5 estimates within one schedule step"

    def test_criterion_08_overlap_beats_random_subsets(self, sweep_estimate_runs):
        rng = np.random.default_rng(9)
        observed, baseline = [], []
        for seed, _, est in sweep_estimate_runs:
            observed.append(est.overlap_jaccard)
            ids = [p.utterance_id for p in est.pseudolabels]
            wer_ids = {p.utterance_id for p in est.pseudolabels if p.oracle_wer < MAX_WER}
            sims = []
            for _ in range(400):
                subset = set(rng.choice(ids, size=est.score_kept_count, replace=False))
                sims.append(overlap_rate(subset, wer_ids))
            baseline.append(np.mean(sims))
        assert np.mean(observed) >= 2.0 * np.mean(baseline), (
            f"mean jaccard {np.mean(observed):.3f} vs random {np.mean(baseline):.3f}"
        )


class TestCriterion9:
    def test_criterion_09_lr_schedule_pointwise(self):
        cfg = TrainConfig(base_lr=0.25)
        total = 101  # progress hits every percent exactly
        lrs = [lr_at(step, total, cfg) for step in range(total)]
        assert lrs[0] == 0.0
        assert lrs[-1] == 0.0
        for step in range(total):
            p = step / 100
            if p < 0.10:
                expected = 0.25 * (p / 0.10)
            elif p <= 0.50:
                expected = 0.25
            else:
                expected = 0.25 * (1.0 - p) / 0.50
            assert lrs[step] == pytest.approx(expected, abs=1e-15), f"step {step}"
        for step in range(10, 51):
            assert lrs[step] == 0.25


class TestCriterion10:
    def test_criterion_10_cli_rerun_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert cli_main([
            "gen-corpus", "--out-dir", str(corpus), "--seed", "5",
            "--n-labeled", "4", "--n-unlabeled", "10", "--n-dev", "6", "--n-test", "6",
        ]) == 0

        first = tmp_path / "run-a"
        assert cli_main([
            "ipl", "--corpus", str(corpus), "--out-dir", str(first),
            "--iter-max", "2", "--filter-mode", "score", "--score-threshold", "-0.3",
            "--epochs", "5", "--seed", "2",
        ]) == 0

        second = tmp_path / "run-b"
        assert cli_main([
            "ipl", "--config", str(first / "config.json"), "--out-dir", str(second),
        ]) == 0

        names_a = {p.name for p in first.iterdir()}
        names_b = {p.name for p in second.iterdir()}
        assert names_a == names_b
        compared = 0
        for name in sorted(names_a):
            if name == "timings.txt":  # wall clock is the one legitimate difference
                continue
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
            compared += 1
        assert compared >= 7
