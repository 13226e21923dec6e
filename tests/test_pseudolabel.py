import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from iplfilter.artifacts import _dump
from iplfilter.corpus import BLANK, CorpusGenConfig, FeatureSequence, LabelSequence, generate_corpus, stacked
from iplfilter.ctc import collapse, greedy_decode
from iplfilter.errors import ConfigurationError, ManifestError, MetricError, OracleError, ShapeError
from iplfilter.metrics import wer
from iplfilter.model import init_model, forward, forward_frames
from iplfilter.pipeline import ThresholdSchedule, evaluate_wer
from rows import split_of, transcripts_of
from iplfilter.pseudolabel import (
    DECODE_BLOCK,
    PseudoLabel,
    PseudoLabels,
    annotate_oracle_wer,
    generate_pseudolabels,
    load_pseudolabels,
    row_lines,
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


def reference_pseudolabels(model, unlabeled, exclude_blank: bool = False) -> list[PseudoLabel]:
    """The per-utterance loop :func:`generate_pseudolabels` replaced: one forward pass per
    block of ``DECODE_BLOCK`` utterances, then each utterance collapsed and scored alone."""
    rows = []
    for lo in range(0, len(unlabeled), DECODE_BLOCK):
        block = unlabeled[lo : lo + DECODE_BLOCK]
        logp = forward_frames(model, np.concatenate([fs.frames for fs in block]))
        for fs, part in zip(block, np.split(logp, np.cumsum([fs.num_frames for fs in block])[:-1])):
            maxima = part.max(axis=1)
            if exclude_blank:
                token = (part.argmax(axis=1) != BLANK) | np.isnan(maxima)
                maxima = maxima[token] if token.any() else maxima
            score = float(np.add.reduce(maxima)) / maxima.size
            if not math.isfinite(score):
                raise MetricError(f"utterance {fs.utterance_id}: non-finite confidence score {score}")
            rows.append(PseudoLabel(fs.utterance_id, collapse(part.argmax(axis=1)), score))
    return rows


def random_logp(rng, T, C):
    logits = rng.standard_normal((T, C))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def columns(rows) -> PseudoLabels:
    """The columns of :class:`PseudoLabel` rows; ``oracle_wer`` only if every row has one."""
    rows = list(rows)
    tokens, lengths = stacked(p.hypothesis for p in rows)
    wers = [p.oracle_wer for p in rows]
    return PseudoLabels(np.array([p.utterance_id for p in rows], dtype=object), tokens, lengths,
                        np.array([p.score for p in rows], dtype=np.float64),
                        None if not rows or None in wers else np.array(wers, dtype=np.float64))


def ids(pls, rows=None) -> list[str]:
    return (pls.ids if rows is None else pls.ids[rows]).tolist()


def make_pls(scores):
    return columns(
        PseudoLabel(utterance_id=f"u{i}", hypothesis=LabelSequence((1,)), score=s)
        for i, s in enumerate(scores)
    )


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
            generate_pseudolabels(init_model(2, 3, 0, seed=0), split_of(unlabeled))

    def test_empty_input(self):
        model = init_model(3, 2, 0, seed=0)
        pls = generate_pseudolabels(model, split_of([], 3))
        assert len(pls) == 0 and list(pls) == [] and pls.tokens.size == 0

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
        assert kept.size
        mean_kept = np.mean(pls.oracle_wer[kept])
        mean_all = np.mean(pls.oracle_wer)
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
            assert evaluate_wer(model, split_of(pairs)) == wer([(ref, hyp) for (_, ref), hyp in zip(pairs, hyps)])

    def test_exclude_blank_scores_every_frame_of_an_all_blank_decode(self):
        model = init_model(2, 3, 0, seed=0)
        model.params["b"][BLANK] = 5.0  # blank is every frame's argmax
        unlabeled = [FeatureSequence(f"u{i}", np.full((i + 1, 2), 0.5)) for i in range(3)]
        pls = generate_pseudolabels(model, split_of(unlabeled), exclude_blank=True)
        assert all(p.hypothesis.tokens == () for p in pls)
        assert [p.score for p in pls] == [p.score for p in generate_pseudolabels(model, split_of(unlabeled))]

    def test_wrong_feature_dim_raises_naming_the_first_utterance(self):
        unlabeled = [FeatureSequence(f"u{i}", np.ones((3, 4))) for i in range(DECODE_BLOCK + 5)]
        with pytest.raises(ShapeError, match="^utterance u0: feature_dim 4 != model feature_dim 2$"):
            generate_pseudolabels(init_model(2, 3, 0, seed=0), split_of(unlabeled))

    def test_nan_frame_in_second_block_raises_naming_utterance(self):
        frames = np.ones((3, 2))
        frames[1, 0] = np.nan
        unlabeled = [FeatureSequence(f"u{i}", np.ones((3, 2))) for i in range(DECODE_BLOCK + 5)]
        unlabeled[DECODE_BLOCK + 2] = FeatureSequence("u-nan", frames)
        with pytest.raises(MetricError, match="^utterance u-nan: non-finite confidence score nan$"):
            generate_pseudolabels(init_model(2, 3, 0, seed=0), split_of(unlabeled))

    @pytest.mark.parametrize("exclude_blank", [False, True])
    def test_one_nan_feature_raises_with_or_without_exclude_blank(self, exclude_blank):
        # the NaN frame decodes as blank; exclude_blank must still score it
        frames = np.random.default_rng(0).standard_normal((6, 2))
        frames[3, 1] = np.nan
        with pytest.raises(MetricError, match="^utterance u-nan: non-finite confidence score nan$"):
            generate_pseudolabels(init_model(2, 3, 0, seed=0), split_of([FeatureSequence("u-nan", frames)]),
                                  exclude_blank=exclude_blank)

    def test_evaluate_wer_on_an_empty_split_raises(self):
        with pytest.raises(MetricError, match="at least one"):
            evaluate_wer(init_model(2, 3, 0, seed=0), split_of([], 2))


class TestScoreFilter:
    def test_minus_inf_keeps_all(self):
        pls = make_pls([-0.5, -1.0])
        assert score_filter(pls, float("-inf")).tolist() == [0, 1]

    def test_strict_comparison(self):
        pls = make_pls([-0.02, -0.04, -0.06])
        assert ids(pls, score_filter(pls, -0.05)) == ["u0", "u1"]
        assert score_filter(pls, -0.04).tolist() == [0]  # boundary value excluded

    def test_zero_boundary_keeps_nothing(self):
        assert score_filter(make_pls([-0.1, -0.2]), 0.0).size == 0

    @given(
        scores=st.lists(st.floats(min_value=-5, max_value=0), max_size=30),
        b1=st.floats(min_value=-5, max_value=0),
        b2=st.floats(min_value=-5, max_value=0),
    )
    @settings(max_examples=200, deadline=None)
    def test_anti_monotone_in_boundary(self, scores, b1, b2):
        pls = make_pls(scores)
        lo, hi = min(b1, b2), max(b1, b2)
        assert set(ids(pls, score_filter(pls, hi))) <= set(ids(pls, score_filter(pls, lo)))

    def test_order_preserved(self):
        pls = make_pls([-0.3, -0.1, -0.2])
        assert ids(pls, score_filter(pls, -0.25)) == ["u1", "u2"]


class TestWerFilter:
    def _setup(self):
        refs = transcripts_of({
            "u0": LabelSequence((1, 2, 3)),
            "u1": LabelSequence((1, 2)),
            "u2": LabelSequence((3, 1)),
        })
        pls = columns([
            PseudoLabel("u0", LabelSequence((1, 2, 3)), -0.1),   # exact
            PseudoLabel("u1", LabelSequence((1, 3)), -0.2),      # 1 sub / 2 -> 0.5
            PseudoLabel("u2", LabelSequence((3,)), -0.3),        # 1 del / 2 -> 0.5
        ])
        return refs, pls

    def test_infinite_cutoff_keeps_all_and_annotates(self):
        refs, pls = self._setup()
        assert wer_filter(pls, refs, float("inf")).tolist() == [0, 1, 2]
        assert pls.oracle_wer.tolist() == pytest.approx([0.0, 0.5, 0.5])

    def test_exact_hypotheses_always_kept(self):
        refs, pls = self._setup()
        assert wer_filter(pls[[0]], refs, 1e-9).tolist() == [0]

    def test_strictly_below_cutoff(self):
        refs, pls = self._setup()
        assert wer_filter(pls, refs, 0.5).tolist() == [0]  # 0.5 is not < 0.5

    def test_soundness_against_independent_recheck(self):
        from test_metrics import reference_wer

        splits = generate_corpus(CorpusGenConfig(n_labeled=2, n_unlabeled=30, n_dev=2, n_test=2), seed=4)
        model = init_model(splits.feature_dim, 8, 0, seed=2)
        pls = generate_pseudolabels(model, splits.unlabeled)
        kept_ids = set(ids(pls, wer_filter(pls, splits.unlabeled_refs, 0.10)))
        for p in pls:
            independent = reference_wer(splits.unlabeled_refs[p.utterance_id], p.hypothesis)
            assert (p.utterance_id in kept_ids) == (independent < 0.10)
            assert p.oracle_wer == independent  # bit for bit

    def test_missing_truth_raises(self):
        _, pls = self._setup()
        with pytest.raises(OracleError, match="u1"):
            annotate_oracle_wer(pls, transcripts_of({"u0": LabelSequence((1,))}))


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

    @pytest.mark.parametrize("name", ["iters_per_update", "max_updates"])
    def test_counts_must_be_positive(self, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be >= 1"):
            ThresholdSchedule(**{name: 0})

    def test_defaults_are_the_paper_sweep(self):
        assert ThresholdSchedule() == ThresholdSchedule(-0.05, 0.03, 3, 8)

    def test_exact_arithmetic(self):
        sched = ThresholdSchedule(initial=-1.0, step=0.25)
        for k in range(8):
            assert sched.boundary(k) == -1.0 - k * 0.25


class TestPseudolabelFiles:
    def test_round_trip(self, tmp_path):
        rows = [
            PseudoLabel("a", LabelSequence((1, 2)), -0.125, oracle_wer=0.5),
            PseudoLabel("b", LabelSequence(()), -1.75, oracle_wer=0.0),
        ]
        save_pseudolabels(columns(rows), tmp_path / "p.jsonl")
        assert list(load_pseudolabels(tmp_path / "p.jsonl")) == rows

    def test_round_trip_without_oracle_wer(self, tmp_path):
        rows = [PseudoLabel("a", LabelSequence((1, 2)), -0.125), PseudoLabel("b", LabelSequence(()), -1.75)]
        save_pseudolabels(columns(rows), tmp_path / "p.jsonl")
        assert list(load_pseudolabels(tmp_path / "p.jsonl")) == rows
        assert '"oracle_wer"' not in (tmp_path / "p.jsonl").read_text()

    def test_oracle_wer_on_some_records_only_names_the_first_without(self, tmp_path):
        path = tmp_path / "p.jsonl"
        save_pseudolabels(make_pls([-0.1, -0.2, -0.3]), path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "oracle_wer": 0.5})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}:2: no oracle_wer, unlike other records$"):
            load_pseudolabels(path)

    def test_round_trip_full_precision(self, tmp_path):
        pls = make_pls([-0.1234567890123456789])
        save_pseudolabels(pls, tmp_path / "p.jsonl")
        assert load_pseudolabels(tmp_path / "p.jsonl").scores.tolist() == pls.scores.tolist()

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

    @pytest.mark.parametrize("edit", [
        {"tokens": [0]}, {"tokens": 2}, {"tokens": ["a"]}, {"score": "-0.1"}, {"oracle_wer": None},
        {"score": True}, {"oracle_wer": False},
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


def _random_split(lengths, seed: int, hidden_dim: int, blank_bias: float):
    """Utterances of ``lengths`` frames and a model whose blank bias mixes blank and token frames."""
    rng = np.random.default_rng(seed)
    unlabeled = [FeatureSequence(f"u{i}", rng.standard_normal((T, 3))) for i, T in enumerate(lengths)]
    model = init_model(3, 4, hidden_dim, seed=seed)
    model.params["b" if hidden_dim == 0 else "b2"][BLANK] = blank_bias
    return model, unlabeled


class TestColumnsEqualThePerUtteranceReference:
    @given(lengths=st.lists(st.integers(1, 50), min_size=1, max_size=40), seed=st.integers(0, 2**16),
           hidden_dim=st.sampled_from([0, 4]), blank_bias=st.floats(-2, 3), exclude_blank=st.booleans())
    @example(lengths=[50, 1, 8, 9, 16, 17, 49] * 20, seed=1, hidden_dim=0, blank_bias=0.5, exclude_blank=True)
    @settings(max_examples=150, deadline=None)
    def test_generate_equals_the_per_utterance_loop(self, lengths, seed, hidden_dim, blank_bias, exclude_blank):
        # scored-frame counts of 1 to 50 cross numpy's 8-element pairwise-summation block;
        # the example's 140 utterances are two decode blocks
        model, unlabeled = _random_split(lengths, seed, hidden_dim, blank_bias)
        pls = generate_pseudolabels(model, split_of(unlabeled), exclude_blank=exclude_blank)
        ref = reference_pseudolabels(model, unlabeled, exclude_blank=exclude_blank)
        assert ids(pls) == [p.utterance_id for p in ref]
        assert pls.lengths.tolist() == [len(p.hypothesis) for p in ref]
        assert pls.tokens.tolist() == [t for p in ref for t in p.hypothesis]
        assert pls.scores.view(np.uint64).tolist() == np.array([p.score for p in ref]).view(np.uint64).tolist()
        assert pls.oracle_wer is None

    @given(lengths=st.lists(st.integers(1, 50), min_size=1, max_size=20), seed=st.integers(0, 2**16),
           exclude_blank=st.booleans(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_a_nan_frame_raises_naming_its_utterance(self, lengths, seed, exclude_blank, data):
        model, unlabeled = _random_split(lengths, seed, 0, 1.0)
        bad = data.draw(st.integers(0, len(lengths) - 1))
        frames = unlabeled[bad].frames.copy()
        frames[data.draw(st.integers(0, lengths[bad] - 1)), 0] = np.nan
        unlabeled[bad] = FeatureSequence(f"u{bad}", frames)
        message = f"^utterance u{bad}: non-finite confidence score nan$"
        with pytest.raises(MetricError, match=message):
            reference_pseudolabels(model, unlabeled, exclude_blank=exclude_blank)
        with pytest.raises(MetricError, match=message):
            generate_pseudolabels(model, split_of(unlabeled), exclude_blank=exclude_blank)


# ids with quotes, backslashes, control and non-ASCII characters; scores at the edges of float64
_IDS = st.text(max_size=8) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é☃𝄞", "\u2028", '"\\\n\t'])
_SCORES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, -1e-300, -1.7976931348623157e308, 2.2250738585072014e-308])
_ROWS = st.lists(st.tuples(_IDS, st.lists(st.integers(1, 2**62), max_size=20), _SCORES,
                           st.floats(0, 1e300) | st.just(0.0)), max_size=12)


class TestColumnWriter:
    @given(rows=_ROWS, with_wer=st.booleans())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_equal_the_record_encoder_and_read_back_bit_for_bit(self, tmp_path, rows, with_wer):
        pls = columns(PseudoLabel(uid, LabelSequence(toks), score, wer if with_wer else None)
                      for uid, toks, score, wer in rows)
        path = tmp_path / "p.jsonl"
        save_pseudolabels(pls, path)
        records = [{"utterance_id": uid, "tokens": toks, "score": score,
                    **({"oracle_wer": wer} if with_wer else {})} for uid, toks, score, wer in rows]
        header = _dump({"schema": "pseudo-labels", "version": 1})
        assert path.read_text(encoding="utf-8") == header + "".join(map(_dump, records))
        # the scatter.jsonl rows of write_plots: the same lines without the tokens
        scatter = [{key: rec[key] for key in rec if key != "tokens"} for rec in records]
        assert "".join(row_lines(pls, tokens=False)) == "".join(map(_dump, scatter))
        back = load_pseudolabels(path)
        assert ids(back) == ids(pls) and back.tokens.tolist() == pls.tokens.tolist()
        assert back.lengths.tolist() == pls.lengths.tolist()
        assert back.scores.view(np.uint64).tolist() == pls.scores.view(np.uint64).tolist()
        assert (back.oracle_wer is None) == (not with_wer or not rows)
        if back.oracle_wer is not None:
            assert back.oracle_wer.view(np.uint64).tolist() == pls.oracle_wer.view(np.uint64).tolist()

    @pytest.mark.parametrize("score, wer", [(float("nan"), 0.0), (-0.1, float("inf"))])
    def test_non_finite_values_are_not_written(self, tmp_path, score, wer):
        pls = columns([PseudoLabel("a", LabelSequence((1,)), score, wer)])
        with pytest.raises(ValueError, match="must be finite"):
            save_pseudolabels(pls, tmp_path / "p.jsonl")
        assert not (tmp_path / "p.jsonl").exists()


class TestFilterSelections:
    @given(scores=st.lists(st.floats(-5, 0), max_size=30), boundary=st.floats(-5, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_score_filter_equals_the_comprehension(self, scores, boundary):
        rows = [PseudoLabel(f"u{i}", LabelSequence((1,)), s) for i, s in enumerate(scores)]
        pls = columns(rows)
        assert ids(pls, score_filter(pls, boundary)) == [p.utterance_id for p in rows if p.score > boundary]

    @given(pairs=st.lists(st.tuples(st.lists(st.integers(1, 3), min_size=1, max_size=6),
                                    st.lists(st.integers(1, 3), max_size=6)), max_size=20),
           max_wer=st.floats(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_wer_filter_equals_the_comprehension(self, pairs, max_wer):
        from test_metrics import reference_wer

        rows = [PseudoLabel(f"u{i}", LabelSequence(hyp), -1.0) for i, (_, hyp) in enumerate(pairs)]
        refs = {p.utterance_id: LabelSequence(ref) for p, (ref, _) in zip(rows, pairs)}
        pls = columns(rows)
        assert ids(pls, wer_filter(pls, transcripts_of(refs), max_wer)) == [
            p.utterance_id for p, (ref, hyp) in zip(rows, pairs) if reference_wer(ref, hyp) < max_wer]
        assert pls.oracle_wer.tolist() == [reference_wer(ref, hyp) for ref, hyp in pairs]

    def test_selection_keeps_every_column_in_index_order(self):
        pls = columns([PseudoLabel("a", LabelSequence((1, 2)), -0.1, 0.5),
                       PseudoLabel("b", LabelSequence(()), -0.2, 0.0),
                       PseudoLabel("c", LabelSequence((3,)), -0.3, 1.0)])
        assert list(pls[np.array([2, 0])]) == [PseudoLabel("c", LabelSequence((3,)), -0.3, 1.0),
                                               PseudoLabel("a", LabelSequence((1, 2)), -0.1, 0.5)]
        assert list(pls[pls.scores > -0.25]) == list(pls)[:2]
        assert len(pls[np.array([], dtype=np.int64)]) == 0

    def test_empty_reference_raises_naming_the_utterance(self):
        pls = columns([PseudoLabel("u0", LabelSequence((1,)), -0.1),
                       PseudoLabel("u1", LabelSequence(()), -0.1)])
        with pytest.raises(OracleError, match="^utterance u1: empty reference transcript$"):
            annotate_oracle_wer(pls, transcripts_of({"u0": LabelSequence((1,)), "u1": LabelSequence(())}))
        assert pls.oracle_wer is None
