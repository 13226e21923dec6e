from dataclasses import astuple
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iplfilter.errors import MetricError
from iplfilter.metrics import (
    EditCounts,
    edit_counts,
    histogram,
    overlap_min_ratio,
    overlap_rate,
    utterance_wer,
    wer,
)


def recursive_levenshtein(a, b):
    """Brute-force reference distance, independent of the DP implementation."""
    a, b = tuple(a), tuple(b)

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


def reference_edit_counts(ref, hyp) -> EditCounts:
    """The numpy-table edit distance that :func:`edit_counts` replaced.

    Same recurrence and the same backtrace order, hit > substitution >
    deletion > insertion, with one ``np.int64`` table cell at a time.
    """
    r = list(ref)
    h = list(hyp)
    n, m = len(r), len(h)
    dp = np.zeros((n + 1, m + 1), dtype=np.int64)
    dp[:, 0] = np.arange(n + 1)
    dp[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dp[i - 1, j - 1] + (r[i - 1] != h[j - 1])
            dp[i, j] = min(sub, dp[i - 1, j] + 1, dp[i, j - 1] + 1)

    S = D = I = H = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and r[i - 1] == h[j - 1] and dp[i, j] == dp[i - 1, j - 1]:
            H += 1
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dp[i, j] == dp[i - 1, j - 1] + 1:
            S += 1
            i, j = i - 1, j - 1
        elif i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            D += 1
            i = i - 1
        else:
            I += 1
            j = j - 1
    return EditCounts(substitutions=S, deletions=D, insertions=I, hits=H)


token_lists = st.lists(st.integers(min_value=1, max_value=5), max_size=8)


class TestEditCounts:
    def test_identity(self):
        c = edit_counts([1, 2, 3], [1, 2, 3])
        assert (c.substitutions, c.deletions, c.insertions, c.hits) == (0, 0, 0, 3)

    def test_hand_traced_mixed_case(self):
        # ref a b c vs hyp a x c d: substitute b->x, insert d
        c = edit_counts([1, 2, 3], [1, 4, 3, 5])
        assert (c.substitutions, c.deletions, c.insertions, c.hits) == (1, 0, 1, 2)

    def test_pure_deletion(self):
        c = edit_counts([1], [])
        assert (c.substitutions, c.deletions, c.insertions, c.hits) == (0, 1, 0, 0)

    def test_both_empty(self):
        c = edit_counts([], [])
        assert (c.substitutions, c.deletions, c.insertions, c.hits) == (0, 0, 0, 0)

    @given(token_lists, token_lists)
    @settings(max_examples=150, deadline=None)
    def test_length_identities_and_oracle(self, ref, hyp):
        c = edit_counts(ref, hyp)
        assert c.substitutions + c.deletions + c.hits == len(ref)
        assert c.substitutions + c.insertions + c.hits == len(hyp)
        assert c.errors == recursive_levenshtein(ref, hyp)


    @given(st.lists(st.integers(1, 3), max_size=10), st.lists(st.integers(1, 3), max_size=10))
    @example([], [])
    @example([1, 2], [])
    @example([], [3, 3])
    @settings(max_examples=300, deadline=None)
    def test_matches_the_numpy_table_reference(self, ref, hyp):
        # a 3-token alphabet makes tied alignments, where the backtrace order decides
        assert edit_counts(ref, hyp) == reference_edit_counts(ref, hyp)


def stacked(pairs):
    """The batch-form arguments of :func:`edit_counts`, built by hand."""
    return ([t for r, _ in pairs for t in r], [t for _, h in pairs for t in h],
            [len(r) for r, _ in pairs], [len(h) for _, h in pairs])


# ragged batches over a 3-token alphabet, empty references and hypotheses included
ragged_pairs = st.lists(
    st.tuples(st.lists(st.integers(1, 3), max_size=9), st.lists(st.integers(1, 3), max_size=9)),
    max_size=12,
)


def reference_wer(ref, hyp) -> float:
    c = reference_edit_counts(ref, hyp)
    if c.reference_length == 0:
        return 0.0 if not hyp else float("inf")
    return c.errors / c.reference_length


class TestEditCountsBatch:
    @given(ragged_pairs)
    @example([])
    @example([([], []), ([], [2, 2]), ([1, 3], []), ([1, 2, 3, 1], [3, 2, 1, 3, 3])])
    @settings(max_examples=300, deadline=None)
    def test_every_pair_matches_the_reference(self, pairs):
        c = edit_counts(*stacked(pairs))
        assert all(x.shape == (len(pairs),) for x in (c.substitutions, c.deletions, c.insertions, c.hits))
        got = list(zip(c.substitutions.tolist(), c.deletions.tolist(), c.insertions.tolist(), c.hits.tolist()))
        assert got == [astuple(reference_edit_counts(r, h)) for r, h in pairs]

    @given(st.lists(st.integers(1, 3), max_size=10), st.lists(st.integers(1, 3), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_batch_of_one_equals_the_single_form(self, ref, hyp):
        c = edit_counts(ref, hyp, [len(ref)], [len(hyp)])
        single = edit_counts(ref, hyp)
        assert all(type(x) is int for x in astuple(single))
        assert astuple(single) == tuple(int(x[0]) for x in astuple(c))

    @given(ragged_pairs)
    @settings(max_examples=200, deadline=None)
    def test_wers_equal_the_per_pair_reference_bit_for_bit(self, pairs):
        assert utterance_wer(pairs) == [reference_wer(r, h) for r, h in pairs]
        counts = [reference_edit_counts(r, h) for r, h in pairs]
        total = sum(c.reference_length for c in counts)
        if total:
            assert wer(pairs) == sum(c.errors for c in counts) / total

    @pytest.mark.parametrize("args", [
        ([1], [1], [[1]], [[1]]), ([1], [1], [1], [1, 0]), ([1], [], [2, -1], [0, 0]), ([1, 2], [1], [1], [1]),
    ], ids=["2-D", "unequal", "negative", "sum"])
    def test_malformed_batch_rejected(self, args):
        with pytest.raises(ValueError, match="^a batch needs 1-D, equally long, non-negative lengths"):
            edit_counts(*args)

    def test_one_length_list_alone_rejected(self):
        with pytest.raises(ValueError, match="both"):
            edit_counts([1], [1], [1])


class TestWer:
    def test_all_identical_is_zero(self):
        assert wer([([1, 2], [1, 2]), ([3], [3])]) == 0.0

    def test_hand_traced_single_pair(self):
        assert wer([([1, 2, 3], [1, 4, 3, 5])]) == pytest.approx(2 / 3)

    def test_empty_hypotheses_rate_one(self):
        assert wer([([1, 2], []), ([3, 4, 5], [])]) == 1.0

    def test_pools_counts_not_rates(self):
        # 1 error over 2 tokens + 0 over 8 -> 1/10, not mean(0.5, 0.0)
        assert wer([([1, 2], [1, 3]), ([1] * 8, [1] * 8)]) == pytest.approx(0.1)

    def test_empty_input_rejected(self):
        with pytest.raises(MetricError):
            wer([])

    def test_zero_reference_length_rejected(self):
        with pytest.raises(MetricError):
            wer([([], [1])])

    def test_zero_iff_all_equal(self):
        assert wer([([1], [1]), ([2], [3])]) > 0.0

    def test_utterance_wer_empty_conventions(self):
        assert utterance_wer([([], []), ([], [1]), ([1, 2], [1, 3])]) == [0.0, float("inf"), 0.5]
        assert utterance_wer([]) == []


class TestOverlap:
    def test_equal_sets(self):
        assert overlap_rate({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint(self):
        assert overlap_rate({1}, {2}) == 0.0

    def test_direct_count(self):
        assert overlap_rate({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_both_empty(self):
        assert overlap_rate(set(), set()) == 1.0

    def test_min_ratio(self):
        assert overlap_min_ratio({1, 2, 3}, {2, 3, 4}) == pytest.approx(2 / 3)
        assert overlap_min_ratio(set(), set()) == 1.0
        assert overlap_min_ratio({1}, set()) == 0.0

    @given(
        st.sets(st.integers(min_value=0, max_value=20)),
        st.sets(st.integers(min_value=0, max_value=20)),
    )
    def test_bounded_and_symmetric(self, a, b):
        r = overlap_rate(a, b)
        assert 0.0 <= r <= 1.0
        assert r == overlap_rate(b, a)


class TestHistogram:
    def test_single_value(self):
        h = histogram([5.0], 1)
        assert sum(h.counts) == 1
        assert len(h.counts) == len(h.bin_edges) - 1

    def test_even_split(self):
        h = histogram([0.0, 1.0, 2.0, 3.0], 2)
        assert h.counts == (2, 2)
        assert h.bin_edges == (0.0, 1.5, 3.0)

    def test_max_in_last_bin(self):
        h = histogram([0.0, 10.0], 5)
        assert h.counts[-1] == 1

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            histogram([], 3)

    def test_bad_bins_rejected(self):
        with pytest.raises(MetricError):
            histogram([1.0], 0)

    @pytest.mark.parametrize("values", [[0.0, 5e-324], [-0.1, float(np.nextafter(-0.1, 0.0))]])
    def test_span_too_narrow_for_the_bins_is_widened(self, values):
        # numpy cannot make 20 distinct edges between two values an ulp apart
        h = histogram(values, 20)
        assert sum(h.counts) == 2
        assert h.bin_edges[0] == min(values) - 0.5 and h.bin_edges[-1] == max(values) + 0.5

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(MetricError, match="must be finite"):
            histogram([0.75, value], 20)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=10))
    def test_conservation(self, values, n_bins):
        h = histogram(values, n_bins)
        assert sum(h.counts) == len(values)
        assert len(h.counts) == len(h.bin_edges) - 1
