import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iplfilter.corpus import BLANK
from iplfilter.ctc import (
    brute_force_ctc,
    collapse,
    ctc_log_prob,
    greedy_decode,
)
from iplfilter.errors import FeasibilityError
from rows import plan_of


def random_logp(rng, T, C):
    logits = rng.standard_normal((T, C))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def random_instance(rng, max_T=6, max_tokens=3):
    T = int(rng.integers(1, max_T + 1))
    C = int(rng.integers(2, max_tokens + 2))  # classes incl. blank
    L = int(rng.integers(0, T + 1))
    labels = [int(rng.integers(1, C)) for _ in range(L)]
    return random_logp(rng, T, C), labels


class TestCollapse:
    def test_merge_then_deblank(self):
        assert collapse([1, 1, 0, 1, 2]).tokens == (1, 1, 2)

    def test_all_blank(self):
        assert collapse([0, 0]).tokens == ()

    def test_empty_alignment(self):
        assert collapse([]).tokens == ()

    def test_blank_separated_repeat_survives(self):
        assert collapse([2, 0, 2]).tokens == (2, 2)

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=8))
    def test_idempotent_on_repeat_free_blank_free(self, tokens):
        # alignments with no blanks and no adjacent repeats collapse to themselves
        dedup = [t for i, t in enumerate(tokens) if i == 0 or t != tokens[i - 1]]
        assert collapse(dedup).tokens == tuple(dedup)


class TestCtcLogProb:
    def test_single_frame_single_label(self):
        logp = np.log(np.array([[0.2, 0.7, 0.1]]))
        assert ctc_log_prob(logp, [1]).log_prob == pytest.approx(np.log(0.7))

    def test_two_frames_empty_label_is_blank_path(self):
        logp = np.log(np.array([[0.5, 0.3, 0.2], [0.4, 0.35, 0.25]]))
        expected = np.log(0.5) + np.log(0.4)
        assert ctc_log_prob(logp, []).log_prob == pytest.approx(expected)

    def test_matches_brute_force_on_fixed_instance(self):
        rng = np.random.default_rng(7)
        logp = random_logp(rng, 3, 3)  # |V|=2 -> 27 alignments
        got = ctc_log_prob(logp, [1, 2]).log_prob
        assert got == pytest.approx(brute_force_ctc(logp, [1, 2]), abs=1e-12)

    def test_infeasible_raises(self):
        logp = random_logp(np.random.default_rng(0), 2, 3)
        with pytest.raises(FeasibilityError):
            ctc_log_prob(logp, [1, 1])  # needs T >= 3

    def test_repeat_label_needs_blank_gap(self):
        rng = np.random.default_rng(1)
        logp = random_logp(rng, 3, 2)  # only token 1 plus blank
        got = ctc_log_prob(logp, [1, 1]).log_prob
        # single compatible path: token, blank, token
        expected = logp[0, 1] + logp[1, 0] + logp[2, 1]
        assert got == pytest.approx(expected)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 60:
            logp, labels = random_instance(rng)
            bf = brute_force_ctc(logp, labels)
            if not is_feasible(logp.shape[0], labels):
                assert bf == float("-inf")
                continue
            got = ctc_log_prob(logp, labels).log_prob
            assert got == pytest.approx(bf, abs=1e-6)
            assert 0.0 < np.exp(got) <= 1.0
            checked += 1

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        checked = 0
        while checked < 15:
            T = int(rng.integers(2, 6))
            C = int(rng.integers(2, 4))
            logits = rng.standard_normal((T, C))
            L = int(rng.integers(0, T + 1))
            labels = [int(rng.integers(1, C)) for _ in range(L)]
            if not is_feasible(T, labels):
                continue

            def loss(lg):
                lp = lg - np.log(np.exp(lg).sum(axis=1, keepdims=True))
                return -ctc_log_prob(lp, labels).log_prob

            lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            grad = ctc_log_prob(lp, labels, with_grad=True).grad
            numeric = np.zeros_like(logits)
            for i in range(T):
                for j in range(C):
                    up, down = logits.copy(), logits.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    numeric[i, j] = (loss(up) - loss(down)) / (2 * h)
            rel = np.abs(grad - numeric).max() / max(np.abs(numeric).max(), 1e-8)
            assert rel <= 1e-4
            checked += 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_appending_frame_preserves_feasibility(self, data):
        T = data.draw(st.integers(min_value=1, max_value=5))
        labels = data.draw(st.lists(st.integers(min_value=1, max_value=2), max_size=5))
        if not is_feasible(T, labels):
            return
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))
        logp = random_logp(rng, T + 1, 3)
        assert is_feasible(T + 1, labels)
        assert np.isfinite(ctc_log_prob(logp, labels).log_prob)

    @pytest.mark.parametrize("logp", [np.zeros(3), np.zeros((0, 3))], ids=["1-d", "no-frames"])
    @pytest.mark.parametrize("call", [lambda lp: ctc_log_prob(lp, [1]), greedy_decode,
                                      lambda lp: brute_force_ctc(lp, [1])], ids=["ctc", "decode", "brute"])
    def test_single_form_needs_a_matrix_of_frames(self, call, logp):
        with pytest.raises(ValueError, match=r"^logp must be a \(T, C\) matrix with T >= 1$"):
            call(logp)


def is_feasible(num_frames: int, labels) -> bool:
    """A label fits in T frames iff T >= L + (# adjacent equal pairs); the
    per-label rule that :attr:`LabelPlan.min_frames` vectorizes."""
    toks = list(labels)
    return num_frames >= len(toks) + sum(a == b for a, b in zip(toks, toks[1:]))


def reference_ctc_log_prob(logp, labels):
    """One utterance's forward-backward, one frame at a time: the reference
    the batched kernel must match bit for bit. Returns (log P, d(-log P)/d(logits))."""
    T, C = logp.shape
    toks = np.asarray(list(labels), dtype=np.int64)
    ext = np.full(2 * toks.size + 1, BLANK, dtype=np.int64)
    ext[1::2] = toks
    S = ext.size
    e = logp[:, ext]
    allow = np.zeros(S, dtype=bool)
    if S > 2:
        allow[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])

    alpha = np.full((T, S), -np.inf)
    alpha[0, 0] = e[0, 0]
    if S > 1:
        alpha[0, 1] = e[0, 1]
    for t in range(1, T):
        prev = alpha[t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(acc[1:], prev[:-1])
        if S > 2:
            acc[2:] = np.where(allow[2:], np.logaddexp(acc[2:], prev[:-2]), acc[2:])
        alpha[t] = acc + e[t]
    log_prob = alpha[-1, -1] if S == 1 else np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    log_prob = float(log_prob)

    beta = np.full((T, S), -np.inf)
    beta[-1, -1] = e[-1, -1]
    if S > 1:
        beta[-1, -2] = e[-1, -2]
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1]
        acc = nxt.copy()
        acc[:-1] = np.logaddexp(acc[:-1], nxt[1:])
        if S > 2:
            acc[:-2] = np.where(allow[2:], np.logaddexp(acc[:-2], nxt[2:]), acc[:-2])
        beta[t] = acc + e[t]

    occupancy = np.exp(alpha + beta - e - log_prob)
    gamma = np.zeros((T, C))
    np.add.at(gamma, (np.arange(T)[:, None], ext[None, :]), occupancy)
    return log_prob, np.exp(logp) - gamma


def stacked(batch):
    """(stacked logp, label plan, lengths) of a list of (logp, labels) pairs."""
    return (
        np.concatenate([lp for lp, _ in batch]),
        plan_of(lab for _, lab in batch),
        [lp.shape[0] for lp, _ in batch],
    )


@st.composite
def ragged_batches(draw):
    """1-8 utterances of 1-8 frames; empty labels and, with few classes, repeats."""
    C = draw(st.integers(min_value=2, max_value=5))
    batch = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        T = draw(st.integers(min_value=1, max_value=8))
        labels = draw(st.lists(st.integers(min_value=1, max_value=C - 1), max_size=T))
        while not is_feasible(T, labels):
            labels.pop()
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        batch.append((random_logp(rng, T, C), labels))
    return batch


class TestBatchLoss:
    def test_empty_batch_costs_zero(self):
        res = ctc_log_prob(np.zeros((0, 3)), plan_of([]), with_grad=True, lengths=[])
        assert res.log_prob.shape == (0,) and -res.log_prob.sum() == 0.0
        assert res.grad.shape == (0, 3)

    def test_singleton_equals_negative_log_prob(self):
        rng = np.random.default_rng(5)
        logp = random_logp(rng, 4, 3)
        labels = [1, 2]
        batch = ctc_log_prob(logp, plan_of([labels]), with_grad=True, lengths=[4])
        single = ctc_log_prob(logp, labels, with_grad=True)
        assert np.array_equal(batch.log_prob, [single.log_prob])
        assert np.array_equal(batch.grad, single.grad)

    def test_additive_over_pairs(self):
        rng = np.random.default_rng(6)
        batch = [(random_logp(rng, 4, 3), [1]), (random_logp(rng, 5, 3), [2, 1])]
        logp, labels, lengths = stacked(batch)
        res = ctc_log_prob(logp, labels, with_grad=True, lengths=lengths)
        singles = [ctc_log_prob(lp, lab, with_grad=True) for lp, lab in batch]
        assert np.array_equal(res.log_prob, [r.log_prob for r in singles])
        assert np.array_equal(res.grad, np.concatenate([r.grad for r in singles]))
        assert -res.log_prob.sum() >= 0.0

    def test_feasibility_error_names_index(self):
        rng = np.random.default_rng(8)
        batch = [(random_logp(rng, 4, 3), [1]), (random_logp(rng, 1, 3), [1, 2])]
        logp, labels, lengths = stacked(batch)
        with pytest.raises(FeasibilityError, match="utterance 1"):
            ctc_log_prob(logp, labels, lengths=lengths)

    @pytest.mark.parametrize("bad", [BLANK, 3, -1])
    def test_token_outside_class_range_names_index(self, bad):
        rng = np.random.default_rng(9)
        batch = [(random_logp(rng, 4, 3), [1]), (random_logp(rng, 4, 3), [2, bad])]
        logp, labels, lengths = stacked(batch)
        with pytest.raises(ValueError, match="^utterance 1: label token outside the non-blank class range$"):
            ctc_log_prob(logp, labels, lengths=lengths)

    def test_first_failing_utterance_is_named(self):
        rng = np.random.default_rng(10)
        batch = [(random_logp(rng, 4, 3), [1]), (random_logp(rng, 1, 3), [1, 1]), (random_logp(rng, 4, 3), [7])]
        logp, labels, lengths = stacked(batch)
        with pytest.raises(FeasibilityError, match="^utterance 1: label of length 2 with 1 repeat pair"):
            ctc_log_prob(logp, labels, lengths=lengths)

    def test_length_mismatch_raises(self):
        rng = np.random.default_rng(7)
        logp = np.concatenate([random_logp(rng, 4, 3), random_logp(rng, 5, 3)])
        with pytest.raises(ValueError, match="mismatch"):
            ctc_log_prob(logp, plan_of([[1]]), lengths=[4, 5])
        with pytest.raises(ValueError, match="sum to the 9 stacked"):
            ctc_log_prob(logp, plan_of([[1], [2]]), lengths=[4, 4])

    @pytest.mark.parametrize("logp, lengths", [(np.zeros(4), [4]), (np.zeros((4, 3)), [[4]])],
                             ids=["1-d-logp", "2-d-lengths"])
    def test_batch_needs_stacked_logp_and_1d_lengths(self, logp, lengths):
        with pytest.raises(ValueError, match="^a batch needs a stacked"):
            ctc_log_prob(logp, plan_of([[1]]), lengths=lengths)

    @given(ragged_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_utterance_reference_exactly(self, batch):
        # array_equal, not a max-abs difference: Python's max() skips NaN
        logp, labels, lengths = stacked(batch)
        res = ctc_log_prob(logp, labels, with_grad=True, lengths=lengths)
        fwd = ctc_log_prob(logp, labels, lengths=lengths)
        rows = np.cumsum([0, *lengths])
        for b, (lp, lab) in enumerate(batch):
            ref_lp, ref_grad = reference_ctc_log_prob(lp, lab)
            assert np.array_equal(res.log_prob[b], ref_lp)
            assert np.array_equal(fwd.log_prob[b], ref_lp)
            assert np.array_equal(res.grad[rows[b] : rows[b + 1]], ref_grad)
            single = ctc_log_prob(lp, lab, with_grad=True)
            assert single.log_prob == ref_lp and np.array_equal(single.grad, ref_grad)


class TestLabelPlan:
    def test_columns_counts_and_token_maxima(self):
        plan = plan_of([[2, 2, 1], [], [3]])
        assert plan.ext.tolist() == [
            [BLANK, BLANK, BLANK],
            [2, -1, 3],
            [BLANK, -1, BLANK],
            [2, -1, -1],
            [BLANK, -1, -1],
            [1, -1, -1],
            [BLANK, -1, -1],
        ]
        assert plan.n_states.tolist() == [7, 1, 3]
        assert plan.min_frames.tolist() == [4, 0, 1]
        assert plan.max_token.tolist() == [2, 0, 3]

    def test_blank_or_negative_token_maxes_out(self):
        assert plan_of([[1, BLANK], [-2, 1], [1]]).max_token.tolist() == [np.iinfo(np.int64).max] * 2 + [1]

    @given(st.lists(st.lists(st.integers(1, 3), max_size=6), max_size=8))
    def test_min_frames_is_the_feasibility_boundary(self, labels):
        plan = plan_of(labels)
        for lab, m in zip(labels, plan.min_frames.tolist()):
            assert is_feasible(m, lab) and (m == 0 or not is_feasible(m - 1, lab))

    def test_slice_pads_to_its_longest_label(self):
        plan = plan_of([[1, 2, 3], [1], [2, 2]])
        part = plan[np.array([2, 1])]
        assert part.ext.shape == (5, 2) and len(part) == 2
        assert part.ext[:, 0].tolist() == plan.ext[:5, 2].tolist()
        assert part.n_states.tolist() == [5, 3] and part.min_frames.tolist() == [3, 1]
        assert len(plan[np.array([], dtype=np.int64)]) == 0

    @given(ragged_batches(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_plan_slice_matches_label_lists_exactly(self, batch, data):
        # a plan over extra utterances (longer labels too), sliced back to the batch
        extra = data.draw(st.lists(st.lists(st.integers(1, 9), max_size=9), max_size=4))
        labels = [lab for _, lab in batch] + extra
        order = data.draw(st.permutations(range(len(labels))))
        plan = plan_of([labels[i] for i in order])
        idx = np.array([order.index(b) for b in range(len(batch))])
        logp, labs, lengths = stacked(batch)
        for with_grad in (False, True):
            want = ctc_log_prob(logp, labs, with_grad=with_grad, lengths=lengths)
            got = ctc_log_prob(logp, plan[idx], with_grad=with_grad, lengths=lengths)
            assert np.array_equal(got.log_prob, want.log_prob)
            assert (got.grad is None) if not with_grad else np.array_equal(got.grad, want.grad)
        lp, lab = batch[0]
        one = ctc_log_prob(lp, plan[idx[:1]], with_grad=True, lengths=[len(lp)])
        assert one.log_prob[0] == want.log_prob[0] and np.array_equal(one.grad, want.grad[: len(lp)])

    @given(ragged_batches(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_slices_sharing_work_arrays_match_fresh_calls(self, batch, data):
        # one plan's slices of varying sizes, in turn, as train's minibatches use them
        plan = plan_of([lab for _, lab in batch])
        for _ in range(3):
            idx = np.array(data.draw(st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=4)))
            part = [batch[i] for i in idx]
            logp, labs, lengths = stacked(part)
            want = ctc_log_prob(logp, labs, with_grad=True, lengths=lengths)
            got = ctc_log_prob(logp, plan[idx], with_grad=True, lengths=lengths)
            assert np.array_equal(got.log_prob, want.log_prob) and np.array_equal(got.grad, want.grad)

    def test_plan_errors_keep_their_messages(self):
        rng = np.random.default_rng(12)
        batch = [(random_logp(rng, 4, 3), [1]), (random_logp(rng, 1, 3), [1, 1]), (random_logp(rng, 4, 3), [7])]
        logp, plan, lengths = stacked(batch)
        with pytest.raises(FeasibilityError, match="^utterance 1: label of length 2 with 1 repeat pair"):
            ctc_log_prob(logp, plan, lengths=lengths)
        with pytest.raises(ValueError, match="^utterance 0: label token outside the non-blank class range$"):
            ctc_log_prob(logp[5:], plan[[2]], lengths=[4])
        with pytest.raises(ValueError, match="mismatch: 2 lengths vs 3 labels"):
            ctc_log_prob(logp[:5], plan, lengths=[4, 1])


class TestGreedyDecode:
    def test_one_hot_blank_rows(self):
        # rows fully confident on blank: empty hypothesis, framewise max = 0
        logp = np.full((3, 3), -np.inf)
        logp[:, 0] = 0.0
        hyp, fmax = greedy_decode(logp)
        assert hyp.tokens == ()
        assert np.allclose(fmax, 0.0)

    def test_collapse_of_argmax_alignment(self):
        # argmax path [1, 1, 0, 2] -> hypothesis (1, 2)
        probs = np.array(
            [[0.1, 0.8, 0.1], [0.2, 0.6, 0.2], [0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]
        )
        hyp, fmax = greedy_decode(np.log(probs))
        assert hyp.tokens == (1, 2)
        assert fmax == pytest.approx(np.log(probs.max(axis=1)))

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            logp = random_logp(rng, int(rng.integers(1, 8)), int(rng.integers(2, 5)))
            hyp, fmax = greedy_decode(logp)
            assert hyp.tokens == collapse(logp.argmax(axis=1)).tokens
            assert np.array_equal(fmax, logp.max(axis=1))

    def test_tie_breaks_to_lowest_index(self):
        logp = np.log(np.full((2, 4), 0.25))
        hyp, _ = greedy_decode(logp)
        assert hyp.tokens == ()  # blank (index 0) wins every tie

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_single_form_on_each_slice(self, data):
        C = data.draw(st.integers(2, 5))
        lengths = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
        # few distinct values, so argmax ties are common
        cell = st.sampled_from([-3.0, -1.0, -0.5, 0.0])
        logp = np.array(data.draw(st.lists(st.lists(cell, min_size=C, max_size=C),
                                           min_size=sum(lengths), max_size=sum(lengths))))
        starts = np.cumsum(lengths) - lengths
        for b, lo in enumerate(starts):
            kind = data.draw(st.sampled_from(["free", "all-blank", "same-token-across"]))
            if kind == "all-blank":
                logp[lo : lo + lengths[b], BLANK] = 1.0
            elif kind == "same-token-across" and b:  # b - 1 ends on the token b starts with
                logp[lo - 1 : lo + 1, data.draw(st.integers(1, C - 1))] = 2.0
        tokens, n_tokens, fmax = greedy_decode(logp, lengths)
        assert n_tokens.shape == (len(lengths),) and fmax.shape == (sum(lengths),)
        hyps = np.split(tokens, np.cumsum(n_tokens)[:-1])
        for b, lo in enumerate(starts):
            part = logp[lo : lo + lengths[b]]
            assert tuple(hyps[b].tolist()) == collapse(part.argmax(axis=1)).tokens
            assert np.array_equal(fmax[lo : lo + lengths[b]], part.max(axis=1))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_frame_maxima_equal_the_row_maxima(self, data):
        # the maxima are read at the argmax: rows of NaN, of -inf alone, and of ties
        C = data.draw(st.integers(2, 5))
        cell = st.sampled_from([np.nan, -np.inf, -1.0, 0.0])
        logp = np.array(data.draw(st.lists(st.lists(cell, min_size=C, max_size=C), min_size=1, max_size=12)))
        logp[data.draw(st.integers(0, len(logp) - 1))] = -np.inf
        _, _, fmax = greedy_decode(logp, [len(logp)])
        assert np.array_equal(fmax, logp.max(axis=1), equal_nan=True)

    def test_batch_across_a_boundary_keeps_both_tokens(self):
        logp = np.log(np.array([[0.1, 0.8, 0.1], [0.1, 0.8, 0.1], [0.1, 0.8, 0.1]]))
        tokens, n_tokens, _ = greedy_decode(logp, [2, 1])
        assert tokens.tolist() == [1, 1] and n_tokens.tolist() == [1, 1]

    @pytest.mark.parametrize("lengths", [[2], [0, 3], [4, -1], [[3]]])
    def test_batch_rejects_lengths_that_do_not_cover_the_frames(self, lengths):
        with pytest.raises(ValueError, match="summing to N"):
            greedy_decode(np.zeros((3, 2)), lengths)


class TestBruteForce:
    def test_infeasible_is_neg_inf(self):
        logp = random_logp(np.random.default_rng(0), 1, 3)
        assert brute_force_ctc(logp, [1, 2]) == float("-inf")

    def test_guard_rejects_huge_instances(self):
        logp = random_logp(np.random.default_rng(0), 25, 4)
        with pytest.raises(ValueError, match="too large"):
            brute_force_ctc(logp, [1])

    def test_single_frame_matches_dp(self):
        logp = random_logp(np.random.default_rng(2), 1, 4)
        assert brute_force_ctc(logp, [2]) == pytest.approx(
            ctc_log_prob(logp, [2]).log_prob
        )
