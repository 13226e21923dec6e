"""Acceptance suite: one test per numbered criterion, at stated tolerances.

The conftest terminal hook prints one PASS/FAIL line per criterion after the
run. Criteria 6-8 assert on the rows of ``scripts/study.py``'s jobs, which train
real models; everything is seeded and deterministic.
"""

import argparse
import math
import time
from functools import lru_cache

import numpy as np
import pytest

import study
from iplfilter.cli import main as cli_main
from iplfilter.corpus import LabelSequence
from iplfilter.ctc import brute_force_ctc, ctc_log_prob, greedy_decode
from iplfilter.metrics import edit_counts, overlap_rate
from iplfilter.model import TrainConfig, init_model, lr_at, utterance_loss_and_grads
from iplfilter.pipeline import select_threshold
from iplfilter.pseudolabel import PseudoLabel, score_filter, wer_filter
from rows import transcripts_of
from test_ctc import is_feasible
from test_pseudolabel import columns, ids, score_utterance


def random_logp(rng, T, C):
    logits = rng.standard_normal((T, C))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def sign_test_p_value(n_wins, n_trials):
    """One-sided exact binomial tail P(X >= n_wins) under p = 1/2."""
    if n_trials == 0:
        return 1.0
    tail = sum(math.comb(n_trials, k) for k in range(n_wins, n_trials + 1))
    return tail / 2**n_trials


@pytest.fixture(scope="module")
def studies():
    """``scripts/study.py``'s options, compare rows, threshold rows and compare jobs' wall
    seconds, at its defaults: all ten (study, seed) jobs in one pool, the sweeps first."""
    opts = argparse.Namespace(**{**vars(study.build_parser().parse_args(["compare"])),
                                 **vars(study.build_parser().parse_args(["threshold"]))})
    n = len(opts.seeds)
    rows, seconds = study.run([(study.threshold, s) for s in opts.seeds]
                              + [(study.compare, s) for s in opts.seeds], opts)
    return opts, rows[n:], rows[:n], seconds[n:]


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
            kept_ids = set(ids(pls, wer_filter(pls, transcripts_of(refs), cutoff)))
            for p in pls:
                assert p.oracle_wer is not None
                if p.utterance_id in kept_ids:
                    assert p.oracle_wer < cutoff
                else:
                    assert p.oracle_wer >= cutoff


class TestCriterion6:
    def test_criterion_06_filter_comparison_direction(self, studies):
        _, rows, _, seconds = studies
        assert all(t < 300.0 for t in seconds), "a compare job (teacher and three IPL runs) exceeded 5 minutes"
        chain = ("wer", "score", "none", "teacher")  # best to worst expected
        means = {m: np.mean([r[f"{m}_dev"] for r in rows]) for m in chain}
        for better, worse in zip(chain, chain[1:]):
            assert means[better] <= means[worse] + 1e-12, (
                f"mean dev WER inverted: {better} {means[better]:.4f} "
                f"vs {worse} {means[worse]:.4f}"
            )
            inversions = sum(r[f"{better}_dev"] > r[f"{worse}_dev"] for r in rows)
            non_ties = sum(r[f"{better}_dev"] != r[f"{worse}_dev"] for r in rows)
            p = sign_test_p_value(inversions, non_ties)
            assert p > 0.05, f"{better} significantly worse than {worse} (p={p:.3f})"


class TestCriterion7:
    def test_criterion_07_sweep_returns_predecessor_at_first_decline(self, studies):
        opts, _, rows, _ = studies
        declined_anywhere = False
        for row in rows:
            if not row["sweep_declined"]:
                continue
            declined_anywhere = True
            wers = row["best_dev_wer_per_threshold"]
            first_decline = next(k for k in range(1, len(wers)) if wers[k] > wers[k - 1])
            assert row["sweep_threshold"] == row["thresholds"][first_decline - 1]
            assert row["sweep_iterations"] == len(row["thresholds"]) * opts.iters_per_update
        assert declined_anywhere, "tuned corpus never produced a dev-WER decline"

    def test_criterion_07_literal_tradeoff_sequence(self):
        history = [(-0.03, 7.87), (-0.04, 7.63), (-0.05, 7.47), (-0.06, 7.60)]
        chosen, declined = select_threshold(history)
        assert chosen == -0.05
        assert declined


class TestCriterion8:
    def test_criterion_08_estimate_matches_sweep(self, studies):
        rows = studies[2]
        near = sum(row["within_one_step"] for row in rows)
        assert near >= 3, f"only {near}/{len(rows)} estimates within one schedule step"

    def test_criterion_08_overlap_beats_random_subsets(self, studies):
        rng = np.random.default_rng(9)
        observed, baseline = [], []
        for row in studies[2]:
            observed.append(row["overlap_jaccard"])
            wer_kept = set(row["wer_kept_positions"])
            sims = []
            for _ in range(400):
                subset = set(rng.choice(row["probe_size"], size=row["score_kept"], replace=False).tolist())
                sims.append(overlap_rate(subset, wer_kept))
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
