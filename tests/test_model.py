import itertools
import json

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iplfilter.corpus import CorpusGenConfig, FeatureSequence, LabelSequence, generate_corpus
from iplfilter.ctc import collapse, ctc_log_prob, greedy_decode
from iplfilter.errors import ConfigurationError, ShapeError, TrainingError
from iplfilter.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainConfig,
    _backprop,
    _forward_cache,
    forward,
    forward_frames,
    init_model,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
    utterance_loss_and_grads,
)
from rows import split_of
from test_ctc import is_feasible


def greedy_accuracy(model, data) -> float:
    """Fraction of utterances whose greedy decode equals the reference."""
    pairs = list(data)
    hits = sum(greedy_decode(forward(model, fs))[0].tokens == lab.tokens for fs, lab in pairs)
    return hits / len(pairs)


def em_min_ctc_loss(T, C, labels, iters=300):
    """Unconstrained minimum of -log P via EM over row-stochastic matrices.

    The E-step posterior comes from literal path enumeration, so this oracle
    is independent of the forward-backward implementation.
    """
    def brute_posterior(p):
        tot = 0.0
        acc = np.zeros((T, C))
        for z in itertools.product(range(C), repeat=T):
            if collapse(z).tokens != tuple(labels):
                continue
            w = np.prod([p[t, z[t]] for t in range(T)])
            tot += w
            for t, k in enumerate(z):
                acc[t, k] += w
        return acc / tot

    p = np.full((T, C), 1.0 / C)
    for _ in range(iters):
        p = brute_posterior(p)
    with np.errstate(divide="ignore"):
        return -ctc_log_prob(np.log(p), labels).log_prob


class TestInitAndForward:
    def test_same_seed_same_weights(self):
        a = init_model(4, 3, 0, seed=9)
        b = init_model(4, 3, 0, seed=9)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_different_seeds_differ(self):
        a = init_model(4, 3, 0, seed=1)
        b = init_model(4, 3, 0, seed=2)
        assert not np.array_equal(a.params["W"], b.params["W"])

    def test_rows_log_normalize(self):
        rng = np.random.default_rng(0)
        for hidden in (0, 5):
            m = init_model(6, 4, hidden, seed=3)
            logp = forward_frames(m, rng.standard_normal((9, 6)))
            assert np.abs(np.exp(logp).sum(axis=1) - 1.0).max() < 1e-6
            assert np.all(logp <= 0.0)

    def test_zero_weight_model_is_uniform(self):
        m = init_model(3, 3, 0, seed=0)
        m.params["W"][:] = 0.0
        m.params["b"][:] = 0.0
        logp = forward_frames(m, np.random.default_rng(1).standard_normal((4, 3)))
        assert np.allclose(logp, -np.log(4))

    def test_single_frame_shape(self):
        m = init_model(5, 2, 0, seed=0)
        fs = FeatureSequence("u", np.zeros((1, 5)))
        out = forward(m, fs)
        assert out.logp.shape == (1, 3)
        assert out.utterance_id == "u"

    def test_dimension_mismatch(self):
        m = init_model(5, 2, 0, seed=0)
        with pytest.raises(ShapeError, match="u1"):
            forward(m, FeatureSequence("u1", np.zeros((2, 4))))

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            init_model(0, 2, 0, seed=0)
        with pytest.raises(ConfigurationError):
            init_model(3, 2, -1, seed=0)

    def test_forward_consistent_with_finite_differences(self):
        # nudging one weight changes the outputs the way the jacobian says
        m = init_model(3, 2, 0, seed=4)
        frames = np.random.default_rng(5).standard_normal((4, 3))
        eps = 1e-6
        base = forward_frames(m, frames)
        m.params["W"][1, 2] += eps
        bumped = forward_frames(m, frames)
        numeric = (bumped - base) / eps
        # analytic: d logp[t, k] / d W[1, 2] = x[t, 1] * (1[k=2] - p[t, 2])
        p = np.exp(base)
        analytic = frames[:, [1]] * (np.eye(3)[2][None, :] - p[:, [2]])
        assert np.abs(numeric - analytic).max() < 1e-4


class TestParameterGradients:
    @pytest.mark.parametrize("hidden", [0, 4])
    def test_matches_central_differences(self, hidden):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(6):
            T = int(rng.integers(2, 6))
            D = int(rng.integers(1, 5))
            model = init_model(D, 3, hidden, seed=int(rng.integers(0, 100)))
            fs = FeatureSequence("u", rng.standard_normal((T, D)))
            while True:
                labels = LabelSequence(tuple(int(rng.integers(1, 4)) for _ in range(rng.integers(0, 3))))
                if is_feasible(T, labels):
                    break
            _, grads = utterance_loss_and_grads(model, fs, labels)
            for key, g in grads.items():
                numeric = np.zeros_like(g)
                flat = model.params[key]
                for idx in np.ndindex(flat.shape):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up, _ = utterance_loss_and_grads(model, fs, labels)
                    flat[idx] = orig - h
                    down, _ = utterance_loss_and_grads(model, fs, labels)
                    flat[idx] = orig
                    numeric[idx] = (up - down) / (2 * h)
                rel = np.abs(g - numeric).max() / max(np.abs(numeric).max(), 1e-8)
                assert rel <= 1e-4, f"param {key}: rel err {rel}"


def per_utterance_gradient(model, batch, weights):
    """The weighted mean gradient as a per-utterance loop computes it: one
    forward pass, CTC call and backprop per utterance, summed in batch order.
    The reference for ``train``'s stacked minibatch step."""
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    for w, (fs, lab) in zip(weights, batch):
        logp, hidden = _forward_cache(model, fs.frames)
        dlogits = ctc_log_prob(logp, lab, with_grad=True).grad
        for k, g in _backprop(model, fs.frames, hidden, dlogits).items():
            grads[k] += w * g
    return {k: g / len(batch) for k, g in grads.items()}


class TestAppliedGradient:
    """The step ``train`` takes is the weighted mean gradient.

    With two epochs of one full-batch SGD step each and no warmup or hold,
    step 0 runs at ``base_lr`` and step 1 at lr 0, so (p0 - p1) / base_lr is
    exactly the gradient ``train`` applied.
    """

    BASE_LR = 0.5

    def applied_gradient(self, hidden, weights):
        rng = np.random.default_rng(23)
        D, V = 3, 3
        batch = [
            (FeatureSequence(f"u{i}", rng.standard_normal((T, D))), LabelSequence(labels))
            for i, (T, labels) in enumerate([(2, (1,)), (5, (2, 3)), (3, ()), (6, (1, 3, 1))])
        ]
        model = init_model(D, V, hidden, seed=5)
        cfg = TrainConfig(epochs=2, batch_size=len(batch), base_lr=self.BASE_LR, warmup_frac=0.0,
                          hold_frac=0.0, seed=3, optimizer="sgd")
        trained = train(model, split_of(batch), cfg, weights=weights).model
        applied = {k: (p0 - trained.params[k]) / self.BASE_LR for k, p0 in model.params.items()}
        return model, batch, applied

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_stacked_step_matches_per_utterance_loop(self, hidden):
        weights = np.array([0.5, 2.0, 0.0, 0.75])
        model, batch, applied = self.applied_gradient(hidden, weights)
        reference = per_utterance_gradient(model, batch, weights)
        for key, g in reference.items():
            np.testing.assert_allclose(applied[key], g, rtol=1e-12, err_msg=f"param {key}")

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_matches_central_differences(self, hidden):
        weights = np.array([0.5, 2.0, 1.25, 0.75])
        model, batch, applied = self.applied_gradient(hidden, weights)

        def objective():
            losses = [-ctc_log_prob(forward(model, fs).logp, lab).log_prob for fs, lab in batch]
            return float(np.dot(weights, losses)) / len(batch)

        h = 1e-6
        for key, p0 in model.params.items():
            numeric = np.zeros_like(p0)
            for idx in np.ndindex(p0.shape):
                orig = p0[idx]
                p0[idx] = orig + h
                up = objective()
                p0[idx] = orig - h
                down = objective()
                p0[idx] = orig
                numeric[idx] = (up - down) / (2 * h)
            rel = np.abs(applied[key] - numeric).max() / np.abs(numeric).max()
            assert rel <= 1e-6, f"param {key}: rel err {rel}"


class TestLrSchedule:
    CFG = TrainConfig(base_lr=0.5)

    def test_warmup_start_is_zero(self):
        assert lr_at(0, 101, self.CFG) == 0.0

    def test_hold_region_is_base(self):
        assert lr_at(30, 101, self.CFG) == 0.5  # 30% of progress
        assert lr_at(10, 101, self.CFG) == 0.5  # hold begins at 10%
        assert lr_at(50, 101, self.CFG) == 0.5  # hold ends at 50%

    def test_decay_midpoint_is_half(self):
        assert lr_at(75, 101, self.CFG) == pytest.approx(0.25)

    def test_final_step_is_zero(self):
        assert lr_at(100, 101, self.CFG) == 0.0

    def test_warmup_is_linear(self):
        assert lr_at(5, 101, self.CFG) == pytest.approx(0.25)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_at(101, 101, self.CFG)
        with pytest.raises(ValueError):
            lr_at(-1, 101, self.CFG)

    def test_single_step_run(self):
        assert lr_at(0, 1, self.CFG) == 0.0

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(warmup_frac=0.7, hold_frac=0.5)

    @pytest.mark.parametrize("base_lr", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_bad_base_lr_rejected(self, base_lr):
        with pytest.raises(ConfigurationError, match="base_lr"):
            TrainConfig(base_lr=base_lr)


def reference_train(model, data, cfg, weights=None):
    """``train`` as it was before the label plan and the flat Adam buffer:
    label lists handed to ``ctc_log_prob`` per minibatch, and Adam updated
    parameter by parameter. The reference for ``train``'s weights and loss
    curve, bit for bit."""
    pairs = list(data)
    for fs, lab in pairs:
        assert is_feasible(fs.num_frames, lab)
    w = np.ones(len(pairs)) if weights is None else np.asarray(weights, dtype=np.float64)
    out = model.copy()
    n = len(pairs)
    if n == 0 or cfg.epochs == 0:
        return out, []
    rng = np.random.default_rng(cfg.seed)
    batches_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    adam_m = {k: np.zeros_like(v) for k, v in out.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in out.params.items()}
    step = 0
    curve = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_losses = []
        for b in range(batches_per_epoch):
            idx = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            frames = [pairs[i][0].frames for i in idx]
            lengths = [f.shape[0] for f in frames]
            x = np.concatenate(frames)
            logp, hidden = _forward_cache(out, x)
            res = ctc_log_prob(logp, [pairs[i][1] for i in idx], with_grad=True, lengths=lengths)
            batch_grads = _backprop(out, x, hidden, res.grad * np.repeat(w[idx], lengths)[:, None])
            epoch_losses.extend((-res.log_prob).tolist())
            lr = lr_at(step, total_steps, cfg)
            for k, g in batch_grads.items():
                g /= idx.size
                if cfg.optimizer == "sgd":
                    g *= lr
                    continue
                adam_m[k] = ADAM_BETA1 * adam_m[k] + (1 - ADAM_BETA1) * g
                adam_v[k] = ADAM_BETA2 * adam_v[k] + (1 - ADAM_BETA2) * g**2
                m_hat = adam_m[k] / (1 - ADAM_BETA1 ** (step + 1))
                v_hat = adam_v[k] / (1 - ADAM_BETA2 ** (step + 1))
                g[...] = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            for k, g in batch_grads.items():
                out.params[k] -= g
            step += 1
        curve.append(float(np.mean(epoch_losses)))
    return out, curve


@st.composite
def ragged_corpora(draw):
    """1-12 utterances of 1-7 frames over a 1-4 token vocabulary: empty
    labels, repeat pairs, optional pseudo-label weights, either optimizer,
    ``hidden_dim`` 0 or 3."""
    D, V = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = []
    for i in range(draw(st.integers(1, 12))):
        T = draw(st.integers(1, 7))
        labels = draw(st.lists(st.integers(1, V), max_size=T))
        while not is_feasible(T, labels):
            labels.pop()
        data.append((FeatureSequence(f"u{i}", rng.standard_normal((T, D))), LabelSequence(tuple(labels))))
    weights = draw(st.none() | st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=len(data),
                                        max_size=len(data)))
    cfg = TrainConfig(epochs=draw(st.integers(1, 3)), batch_size=draw(st.integers(1, 5)),
                      seed=draw(st.integers(0, 99)), optimizer=draw(st.sampled_from(["adam", "sgd"])))
    return init_model(D, V, draw(st.sampled_from([0, 3])), seed=draw(st.integers(0, 99))), data, cfg, weights


class TestTrainMatchesReference:
    @given(ragged_corpora())
    @settings(max_examples=150, deadline=None)
    def test_weights_and_loss_curve_are_bit_identical(self, case):
        model, data, cfg, weights = case
        result = train(model, split_of(data), cfg, weights=weights)
        ref_model, ref_curve = reference_train(model, data, cfg, weights=weights)
        assert list(result.model.params) == list(ref_model.params)
        for k, p in ref_model.params.items():
            assert np.array_equal(result.model.params[k], p), f"param {k}"
        assert result.loss_curve == ref_curve

    def test_default_corpus_matches_at_both_hidden_dims(self):
        splits = generate_corpus(CorpusGenConfig(n_labeled=24, n_unlabeled=2, n_dev=2, n_test=2), seed=6)
        for hidden in (0, 8):
            model = init_model(splits.feature_dim, 8, hidden, seed=2)
            cfg = TrainConfig(epochs=3, seed=4)
            result = train(model, splits.labeled, cfg)
            ref_model, ref_curve = reference_train(model, splits.labeled, cfg)
            assert all(np.array_equal(result.model.params[k], p) for k, p in ref_model.params.items())
            assert result.loss_curve == ref_curve


class TestTrain:
    def test_noiseless_corpus_learns_exactly(self):
        cfg = CorpusGenConfig(noise_sigma=0.0, n_labeled=8, n_unlabeled=2, n_dev=2, n_test=2)
        splits = generate_corpus(cfg, seed=0)
        model = init_model(splits.feature_dim, cfg.vocab_size, 0, seed=0)
        result = train(model, splits.labeled, TrainConfig(epochs=25, base_lr=0.15, seed=1))
        curve = result.loss_curve
        # epoch 0 records the pre-update loss (warmup lr starts at 0); from
        # there the mean loss falls monotonically through the early epochs
        assert all(curve[i + 1] < curve[i] for i in range(1, 10))
        assert curve[-1] < 0.01 * curve[0]
        assert greedy_accuracy(result.model, splits.labeled) == 1.0

    def test_zero_lr_is_a_no_op(self):
        splits = generate_corpus(CorpusGenConfig(n_labeled=3, n_unlabeled=2, n_dev=2, n_test=2), seed=1)
        model = init_model(splits.feature_dim, 8, 0, seed=0)
        result = train(model, splits.labeled, TrainConfig(epochs=3, base_lr=0.0, seed=1))
        assert all(np.array_equal(result.model.params[k], model.params[k]) for k in model.params)
        assert result.loss_curve == pytest.approx([result.loss_curve[0]] * 3)

    def test_single_utterance_reaches_brute_force_minimum(self):
        rng = np.random.default_rng(0)
        frames = rng.standard_normal((3, 8))  # T <= D: any logits reachable
        labels = LabelSequence((1, 2))
        target = em_min_ctc_loss(3, 4, labels.tokens)
        model = init_model(8, 3, 0, seed=0)
        result = train(
            model, split_of([(FeatureSequence("u", frames), labels)]),
            TrainConfig(epochs=400, batch_size=1, base_lr=0.3, seed=1),
        )
        final, _ = utterance_loss_and_grads(result.model, FeatureSequence("u", frames), labels)
        assert abs(final - target) < 0.01

    def test_seed_determinism(self):
        splits = generate_corpus(CorpusGenConfig(n_labeled=4, n_unlabeled=2, n_dev=2, n_test=2), seed=3)
        model = init_model(splits.feature_dim, 8, 0, seed=5)
        tc = TrainConfig(epochs=4, seed=11)
        a = train(model, splits.labeled, tc)
        b = train(model, splits.labeled, tc)
        assert all(np.array_equal(a.model.params[k], b.model.params[k]) for k in a.model.params)
        assert a.loss_curve == b.loss_curve

    def test_infeasible_pair_names_utterance(self):
        model = init_model(2, 3, 0, seed=0)
        bad = (FeatureSequence("bad-utt", np.zeros((1, 2))), LabelSequence((1, 1)))
        with pytest.raises(TrainingError, match="bad-utt"):
            train(model, split_of([bad]), TrainConfig(epochs=1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_token_outside_vocabulary_names_utterance_before_any_step(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        data = [(FeatureSequence("bad-utt", rng.standard_normal((4, 2))), LabelSequence((1, 7)))]
        data += [(FeatureSequence(f"u{i}", rng.standard_normal((4, 2))), LabelSequence((1, 2))) for i in range(11)]
        monkeypatch.setattr("iplfilter.model.ctc_log_prob", None)  # no step may run
        with pytest.raises(TrainingError, match="^utterance bad-utt: label token outside the vocabulary 1..3$"):
            train(init_model(2, 3, 0, seed=0), split_of(data), TrainConfig(epochs=1, batch_size=4, seed=seed))

    def test_infeasible_label_message(self):
        bad = (FeatureSequence("short", np.zeros((2, 2))), LabelSequence((1, 1)))
        with pytest.raises(TrainingError, match=r"^utterance short: label of length 2 infeasible for 2 frame\(s\)$"):
            train(init_model(2, 3, 0, seed=0), split_of([bad]), TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_frames_name_utterance_epoch_and_step(self):
        rng = np.random.default_rng(0)
        data = [(FeatureSequence(f"u{i}", rng.standard_normal((4, 2))), LabelSequence((1, 2))) for i in range(3)]
        frames = rng.standard_normal((4, 2))
        frames[2, 1] = np.nan
        data.append((FeatureSequence("nan-utt", frames), LabelSequence((2,))))
        cfg = TrainConfig(epochs=2, batch_size=2, seed=4)
        step = int(np.flatnonzero(np.random.default_rng(cfg.seed).permutation(4) == 3)[0]) // 2
        with pytest.raises(TrainingError, match=rf"^utterance nan-utt: .* epoch 0, step {step}$"):
            train(init_model(2, 3, 0, seed=0), split_of(data), cfg)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_adam_second_moment_overflow_names_parameter_epoch_and_step(self):
        # squared gradients overflow to inf in W's second moment, which would
        # make every later W update 0 while b keeps moving
        splits = generate_corpus(CorpusGenConfig(n_labeled=6), seed=2)
        data = [(FeatureSequence(fs.utterance_id, fs.frames * 10**177.5), lab) for fs, lab in splits.labeled]
        model = init_model(splits.feature_dim, 8, hidden_dim=0, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=6, warmup_frac=0.0, seed=1)
        with pytest.raises(TrainingError, match=r"^parameter W: .* epoch 0, step 0$"):
            train(model, split_of(data), cfg)

    def test_zero_epochs_returns_model_unchanged(self):
        splits = generate_corpus(CorpusGenConfig(n_labeled=2, n_unlabeled=2, n_dev=2, n_test=2), seed=0)
        model = init_model(splits.feature_dim, 8, 0, seed=0)
        result = train(model, splits.labeled, TrainConfig(epochs=0))
        assert all(np.array_equal(result.model.params[k], model.params[k]) for k in model.params)
        assert result.loss_curve == []

    def test_sgd_option_also_learns(self):
        cfg = CorpusGenConfig(noise_sigma=0.0, n_labeled=4, n_unlabeled=2, n_dev=2, n_test=2)
        splits = generate_corpus(cfg, seed=2)
        model = init_model(splits.feature_dim, cfg.vocab_size, 0, seed=0)
        result = train(
            model, splits.labeled, TrainConfig(epochs=30, base_lr=0.5, optimizer="sgd", seed=1)
        )
        assert result.loss_curve[-1] < result.loss_curve[0]

    def test_rows_stay_normalized_during_training(self):
        splits = generate_corpus(CorpusGenConfig(n_labeled=4, n_unlabeled=2, n_dev=2, n_test=2), seed=4)
        model = init_model(splits.feature_dim, 8, 0, seed=0)
        result = train(model, splits.labeled, TrainConfig(epochs=5, seed=2))
        for fs, _ in splits.labeled:
            logp = forward(result.model, fs).logp
            assert np.abs(np.exp(logp).sum(axis=1) - 1.0).max() < 1e-6


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        for hidden in (0, 3):
            model = init_model(4, 5, hidden, seed=8)
            model.params[list(model.params)[0]] += 1e-17  # oddball floats survive
            save_checkpoint(model, tmp_path / f"m{hidden}.json")
            loaded = load_checkpoint(tmp_path / f"m{hidden}.json")
            assert loaded.feature_dim == model.feature_dim
            assert loaded.vocab_size == model.vocab_size
            assert loaded.hidden_dim == model.hidden_dim
            assert loaded.seed == model.seed
            assert all(np.array_equal(loaded.params[k], model.params[k]) for k in model.params)

    def test_rejects_wrong_schema(self, tmp_path):
        (tmp_path / "x.json").write_text('{"schema": "other"}')
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "x.json")

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda r: r.update(version=99), "version 99"),
            (lambda r: r.update(feature_dim=3), r"parameter W has shape \(8, 9\), expected \(3, 9\)"),
            (lambda r: r.update(vocab_size=2), r"parameter W has shape \(8, 9\), expected \(8, 3\)"),
            (lambda r: r.update(hidden_dim=4), "expected \\['W1', 'W2', 'b1', 'b2'\\]"),
            (lambda r: r.pop("seed"), r"missing fields \['seed'\]"),
            (lambda r: r.update(feature_dim=0), "feature_dim, vocab_size >= 1"),
            (lambda r: r["params"].pop("b"), "parameters \\['W'\\]"),
            (lambda r: r["params"].update(b=[[0.0], [1.0, 2.0]]), "parameter b"),
        ],
    )
    def test_rejects_mismatched_checkpoint(self, tmp_path, corrupt, message):
        path = tmp_path / "m.json"
        save_checkpoint(init_model(8, 8, 0, seed=0), path)
        rec = json.loads(path.read_text())
        corrupt(rec)
        path.write_text(json.dumps(rec))
        with pytest.raises(ConfigurationError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_rejects_non_checkpoint_json(self, tmp_path, text):
        (tmp_path / "x.json").write_text(text)
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "x.json")
