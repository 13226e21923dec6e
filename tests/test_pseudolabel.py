import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from iplfilter.corpus import BLANK, CorpusGenConfig, FeatureSequence, LabelSequence, generate_corpus
from iplfilter.ctc import greedy_decode
from iplfilter.errors import ConfigurationError, ManifestError, MetricError, OracleError, ShapeError
from iplfilter.metrics import wer
from iplfilter.model import init_model, forward
from iplfilter.pipeline import evaluate_wer
from iplfilter.pseudolabel import (
    DECODE_BLOCK,
    PseudoLabel,
    ThresholdSchedule,
    annotate_oracle_wer,
    generate_pseudolabels,
    load_pseudolabels,
    save_pseudolabels,
    score_filter,
    wer_filter,
)


def score_utterance(logp, exclude_blank: bool = False) -> float:
    """Per-utterance scoring reference: mean over frames of the per-frame max log-probability.

    ``exclude_blank`` restricts the mean to frames whose argmax is a real
    token (falling back to all frames when the decode is pure blank). A
    score that is not finite raises :class:`MetricError`, naming the
    utterance when ``logp`` carries one.
    """
    arr = np.asarray(getattr(logp, "logp", logp), dtype=np.float64)
    fmax = arr.max(axis=1)
    if exclude_blank:
        mask = (arr.argmax(axis=1) != BLANK) | np.isnan(fmax)
        if mask.any():
            fmax = fmax[mask]
    score = float(fmax.mean())
    if not np.isfinite(score):
        uid = getattr(logp, "utterance_id", None)
        where = "" if uid is None else f"utterance {uid}: "
        raise MetricError(f"{where}non-finite confidence score {score}")
    return score


def random_logp(rng, T, C):
    logits = rng.standard_normal((T, C))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def make_pls(scores):
    return [
        PseudoLabel(utterance_id=f"u{i}", hypothesis=LabelSequence((1,)), score=s)
        for i, s in enumerate(scores)
    ]


class TestScore:
    def test_one_hot_rows_score_zero(self):
        logp = np.full((4, 3), -np.inf)
        logp[:, 1] = 0.0
        assert score_utterance(logp) == 0.0

    def test_arithmetic_mean_of_framewise_max(self):
        # framewise maxima fixed at -0.1 and -0.3 by construction
        row = lambda m: [m, np.log1p(-np.exp(m))]
        logp = np.array([row(-0.1), row(-0.3)])
        assert score_utterance(logp) == pytest.approx(-0.2)

    def test_uniform_rows(self):
        logp = np.full((5, 4), np.log(0.25))
        assert score_utterance(logp) == pytest.approx(-np.log(4))

    def test_equals_mean_of_greedy_framewise_max(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logp = random_logp(rng, int(rng.integers(1, 9)), int(rng.integers(2, 6)))
            _, fmax = greedy_decode(logp)
            assert score_utterance(logp) == float(np.mean(fmax))

    @given(hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=300, deadline=None)
    def test_generate_pseudolabels_mean_is_ndarray_mean_bit_for_bit(self, maxima):
        # the expression generate_pseudolabels uses in place of .mean(); lengths
        # up to 300 cross numpy's 8- and 128-element pairwise-summation blocks
        assert float(np.add.reduce(maxima)) / maxima.size == float(maxima.mean())

    def test_always_nonpositive(self):
        rng = np.random.default_rng(1)
        assert all(
            score_utterance(random_logp(rng, 5, 4)) <= 0.0 for _ in range(50)
        )

    def test_exclude_blank_uses_token_frames_only(self):
        logp = np.log(np.array([[0.8, 0.1, 0.1], [0.1, 0.6, 0.3]]))
        full = score_utterance(logp)
        no_blank = score_utterance(logp, exclude_blank=True)
        assert no_blank == pytest.approx(np.log(0.6))
        assert full == pytest.approx((np.log(0.8) + np.log(0.6)) / 2)

    def test_exclude_blank_falls_back_when_all_blank(self):
        logp = np.log(np.array([[0.9, 0.05, 0.05]]))
        assert score_utterance(logp, exclude_blank=True) == pytest.approx(np.log(0.9))


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_raises(self, bad):
        logp = random_logp(np.random.default_rng(3), 3, 4)
        logp[1] = bad
        with pytest.raises(MetricError, match="non-finite confidence score"):
            score_utterance(logp)

    def test_nan_row_is_scored_under_exclude_blank(self):
        # a NaN row's argmax is 0, the blank; it must not drop out of the mean
        logp = np.log(np.array([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.1, 0.8, 0.1]]))
        logp[1] = np.nan
        with pytest.raises(MetricError, match="non-finite confidence score"):
            score_utterance(logp, exclude_blank=True)


class TestGenerate:
    def test_non_finite_frames_raise_naming_utterance(self):
        frames = np.ones((3, 2))
        frames[1, 0] = np.nan
        unlabeled = [FeatureSequence("ok", np.ones((3, 2))), FeatureSequence("u-nan", frames)]
        with pytest.raises(MetricError, match="^utterance u-nan: non-finite confidence score nan$"):
            generate_pseudolabels(init_model(2, 3, 0, seed=0), unlabeled)

    def test_empty_input(self):
        model = init_model(3, 2, 0, seed=0)
        assert generate_pseudolabels(model, []) == []

    def test_noiseless_converged_model_recovers_hidden_truth(self):
        from iplfilter.model import TrainConfig, train

        cfg = CorpusGenConfig(noise_sigma=0.0, n_labeled=8, n_unlabeled=12, n_dev=2, n_test=2)
        splits = generate_corpus(cfg, seed=1)
        model = init_model(splits.feature_dim, cfg.vocab_size, 0, seed=0)
        trained = train(model, splits.labeled, TrainConfig(epochs=60, base_lr=0.15, seed=1)).model
        pls = generate_pseudolabels(trained, splits.unlabeled)
        for p in pls:
            assert p.hypothesis.tokens == splits.unlabeled_refs[p.utterance_id].tokens
            assert -0.05 < p.score <= 0.0  # confident on clean data

    def test_score_filtered_set_is_cleaner_at_moderate_noise(self):
        from iplfilter.model import TrainConfig, train

        splits = generate_corpus(CorpusGenConfig(), seed=0)  # default moderate noise
        model = init_model(splits.feature_dim, 8, 0, seed=0)
        trained = train(model, splits.labeled, TrainConfig(epochs=30, base_lr=0.15, seed=1)).model
        pls = generate_pseudolabels(trained, splits.unlabeled)
        annotate_oracle_wer(pls, splits.unlabeled_refs)
        kept = score_filter(pls, -0.08)
        assert kept
        mean_kept = np.mean([p.oracle_wer for p in kept])
        mean_all = np.mean([p.oracle_wer for p in pls])
        assert mean_kept <= mean_all

    def test_matches_decode_and_score_per_utterance(self):
        # 300 utterances are three stacked blocks, the last one partial
        splits = generate_corpus(CorpusGenConfig(n_labeled=2, n_unlabeled=300, n_dev=2, n_test=2), seed=2)
        assert 2 * DECODE_BLOCK < len(splits.unlabeled) < 3 * DECODE_BLOCK
        pairs = [(fs, splits.unlabeled_refs[fs.utterance_id]) for fs in splits.unlabeled]
        for hidden_dim in (0, 16):
            model = init_model(splits.feature_dim, 8, hidden_dim, seed=1)
            logps = [forward(model, fs) for fs in splits.unlabeled]
            hyps = [greedy_decode(logp)[0] for logp in logps]
            # a stacked hidden layer may change the last bits of a score
            rel = 0.0 if hidden_dim == 0 else 1e-12
            changed = 0
            for exclude_blank in (False, True):
                pls = generate_pseudolabels(model, splits.unlabeled, exclude_blank=exclude_blank)
                assert [p.utterance_id for p in pls] == [fs.utterance_id for fs in splits.unlabeled]
                for logp, hyp, p in zip(logps, hyps, pls):
                    score = score_utterance(logp, exclude_blank=exclude_blank)
                    assert p.hypothesis.tokens == hyp.tokens
                    if rel == 0.0:
                        assert p.score == score
                    else:
                        assert p.score == pytest.approx(score, rel=rel, abs=0)
                    assert p.score <= 0.0
                    assert p.oracle_wer is None
                    changed += exclude_blank and score != score_utterance(logp)
            assert changed > 0  # exclude_blank drops frames from some scores
            assert evaluate_wer(model, pairs) == wer([(ref, hyp) for (_, ref), hyp in zip(pairs, hyps)])

    def test_exclude_blank_scores_every_frame_of_an_all_blank_decode(self):
        model = init_model(2, 3, 0, seed=0)
        model.params["b"][BLANK] = 5.0  # blank is every frame's argmax
        unlabeled = [FeatureSequence(f"u{i}", np.full((i + 1, 2), 0.5)) for i in range(3)]
        pls = generate_pseudolabels(model, unlabeled, exclude_blank=True)
        assert all(p.hypothesis.tokens == () for p in pls)
        assert [p.score for p in pls] == [p.score for p in generate_pseudolabels(model, unlabeled)]

    def test_wrong_feature_dim_in_second_block_raises_naming_utterance(self):
        unlabeled = [FeatureSequence(f"u{i}", np.ones((3, 2))) for i in range(DECODE_BLOCK + 5)]
        unlabeled[DECODE_BLOCK + 2] = FeatureSequence("u-wide", np.ones((3, 4)))
        with pytest.raises(ShapeError, match="^utterance u-wide: feature_dim 4 != model feature_dim 2$"):
            generate_pseudolabels(init_model(2, 3, 0, seed=0), unlabeled)

    def test_nan_frame_in_second_block_raises_naming_utterance(self):
        frames = np.ones((3, 2))
        frames[1, 0] = np.nan
        unlabeled = [FeatureSequence(f"u{i}", np.ones((3, 2))) for i in range(DECODE_BLOCK + 5)]
        unlabeled[DECODE_BLOCK + 2] = FeatureSequence("u-nan", frames)
        with pytest.raises(MetricError, match="^utterance u-nan: non-finite confidence score nan$"):
            generate_pseudolabels(init_model(2, 3, 0, seed=0), unlabeled)

    @pytest.mark.parametrize("exclude_blank", [False, True])
    def test_one_nan_feature_raises_with_or_without_exclude_blank(self, exclude_blank):
        # the NaN frame decodes as blank; exclude_blank must still score it
        frames = np.random.default_rng(0).standard_normal((6, 2))
        frames[3, 1] = np.nan
        with pytest.raises(MetricError, match="^utterance u-nan: non-finite confidence score nan$"):
            generate_pseudolabels(init_model(2, 3, 0, seed=0), [FeatureSequence("u-nan", frames)],
                                  exclude_blank=exclude_blank)

    def test_evaluate_wer_on_an_empty_split_raises(self):
        with pytest.raises(MetricError, match="at least one"):
            evaluate_wer(init_model(2, 3, 0, seed=0), [])


class TestScoreFilter:
    def test_minus_inf_keeps_all(self):
        pls = make_pls([-0.5, -1.0])
        assert score_filter(pls, float("-inf")) == pls

    def test_strict_comparison(self):
        pls = make_pls([-0.02, -0.04, -0.06])
        kept = score_filter(pls, -0.05)
        assert [p.utterance_id for p in kept] == ["u0", "u1"]
        assert score_filter(pls, -0.04) == pls[:1]  # boundary value excluded

    def test_zero_boundary_keeps_nothing(self):
        assert score_filter(make_pls([-0.1, -0.2]), 0.0) == []

    @given(
        scores=st.lists(st.floats(min_value=-5, max_value=0), max_size=30),
        b1=st.floats(min_value=-5, max_value=0),
        b2=st.floats(min_value=-5, max_value=0),
    )
    @settings(max_examples=200, deadline=None)
    def test_anti_monotone_in_boundary(self, scores, b1, b2):
        pls = make_pls(scores)
        lo, hi = min(b1, b2), max(b1, b2)
        kept_hi = {p.utterance_id for p in score_filter(pls, hi)}
        kept_lo = {p.utterance_id for p in score_filter(pls, lo)}
        assert kept_hi <= kept_lo

    def test_order_preserved(self):
        pls = make_pls([-0.3, -0.1, -0.2])
        assert [p.utterance_id for p in score_filter(pls, -0.25)] == ["u1", "u2"]


class TestWerFilter:
    def _setup(self):
        refs = {
            "u0": LabelSequence((1, 2, 3)),
            "u1": LabelSequence((1, 2)),
            "u2": LabelSequence((3, 1)),
        }
        pls = [
            PseudoLabel("u0", LabelSequence((1, 2, 3)), -0.1),   # exact
            PseudoLabel("u1", LabelSequence((1, 3)), -0.2),      # 1 sub / 2 -> 0.5
            PseudoLabel("u2", LabelSequence((3,)), -0.3),        # 1 del / 2 -> 0.5
        ]
        return refs, pls

    def test_infinite_cutoff_keeps_all_and_annotates(self):
        refs, pls = self._setup()
        kept = wer_filter(pls, refs, float("inf"))
        assert kept == pls
        assert [p.oracle_wer for p in pls] == pytest.approx([0.0, 0.5, 0.5])

    def test_exact_hypotheses_always_kept(self):
        refs, pls = self._setup()
        assert wer_filter(pls[:1], refs, 1e-9) == pls[:1]

    def test_strictly_below_cutoff(self):
        refs, pls = self._setup()
        kept = wer_filter(pls, refs, 0.5)
        assert kept == pls[:1]  # 0.5 is not < 0.5

    def test_soundness_against_independent_recheck(self):
        from iplfilter.metrics import utterance_wer

        splits = generate_corpus(CorpusGenConfig(n_labeled=2, n_unlabeled=30, n_dev=2, n_test=2), seed=4)
        model = init_model(splits.feature_dim, 8, 0, seed=2)
        pls = generate_pseudolabels(model, splits.unlabeled)
        kept = wer_filter(pls, splits.unlabeled_refs, 0.10)
        kept_ids = {p.utterance_id for p in kept}
        for p in pls:
            independent = utterance_wer(splits.unlabeled_refs[p.utterance_id], p.hypothesis)
            assert (p.utterance_id in kept_ids) == (independent < 0.10)
            assert p.oracle_wer == pytest.approx(independent)

    def test_missing_truth_raises(self):
        _, pls = self._setup()
        with pytest.raises(OracleError, match="u1"):
            annotate_oracle_wer(pls, {"u0": LabelSequence((1,))})


class TestThresholdSchedule:
    def test_paper_default_sequence(self):
        sched = ThresholdSchedule(initial=-0.03, step=0.01)
        assert [round(sched.boundary(u), 10) for u in range(4)] == [-0.03, -0.04, -0.05, -0.06]

    def test_third_update_value(self):
        assert ThresholdSchedule(initial=-0.03, step=0.01).boundary(2) == pytest.approx(-0.05)

    def test_zero_step_rejected(self):
        with pytest.raises(ConfigurationError):
            ThresholdSchedule(initial=-0.03, step=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["initial", "step"])
    def test_non_finite_initial_or_step_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match="must be finite"):
            ThresholdSchedule(**{"initial": -0.03, "step": 0.01, name: value})

    def test_exact_arithmetic(self):
        sched = ThresholdSchedule(initial=-1.0, step=0.25)
        for k in range(8):
            assert sched.boundary(k) == -1.0 - k * 0.25


class TestPseudolabelFiles:
    def test_round_trip(self, tmp_path):
        pls = [
            PseudoLabel("a", LabelSequence((1, 2)), -0.125, oracle_wer=0.5),
            PseudoLabel("b", LabelSequence(()), -1.75, oracle_wer=None),
        ]
        save_pseudolabels(pls, tmp_path / "p.jsonl")
        assert load_pseudolabels(tmp_path / "p.jsonl") == pls

    def test_round_trip_full_precision(self, tmp_path):
        pls = [PseudoLabel("a", LabelSequence((3,)), -0.1234567890123456789)]
        save_pseudolabels(pls, tmp_path / "p.jsonl")
        assert load_pseudolabels(tmp_path / "p.jsonl")[0].score == pls[0].score

    def test_rejects_wrong_schema(self, tmp_path):
        (tmp_path / "x.jsonl").write_text('{"schema": "nope"}\n')
        with pytest.raises(ManifestError):
            load_pseudolabels(tmp_path / "x.jsonl")

    def test_parse_error_names_line(self, tmp_path):
        save_pseudolabels(make_pls([-0.1, -0.2]), tmp_path / "p.jsonl")
        text = tmp_path.joinpath("p.jsonl").read_text()
        tmp_path.joinpath("p.jsonl").write_text(text[:-10])
        with pytest.raises(ManifestError, match="p.jsonl:3"):
            load_pseudolabels(tmp_path / "p.jsonl")

    def test_non_finite_score_names_line(self, tmp_path):
        # json writes and reads NaN; a boundary could neither keep nor drop it
        save_pseudolabels(make_pls([-0.1, float("nan")]), tmp_path / "p.jsonl")
        with pytest.raises(ManifestError, match="p.jsonl:3: non-finite score nan"):
            load_pseudolabels(tmp_path / "p.jsonl")

    @pytest.mark.parametrize("edit", [
        {"tokens": [0]}, {"tokens": 2}, {"tokens": ["a"]}, {"score": "-0.1"}, {"oracle_wer": None},
    ])
    def test_bad_value_names_line(self, tmp_path, edit):
        path = tmp_path / "p.jsonl"
        save_pseudolabels(make_pls([-0.1, -0.2]), path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), **edit})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}:3: "):
            load_pseudolabels(path)

    @pytest.mark.parametrize("text", ["", "[1]\n", '{"schema": "pseudo-labels", "version": 2}\n'])
    def test_rejects_missing_or_wrong_header(self, tmp_path, text):
        (tmp_path / "x.jsonl").write_text(text)
        with pytest.raises(ManifestError, match=":1: "):
            load_pseudolabels(tmp_path / "x.jsonl")
