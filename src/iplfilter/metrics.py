"""Edit-distance WER, set overlap, and histogram summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import MetricError


@dataclass(frozen=True)
class EditCounts:
    """Substitutions, deletions, insertions, hits of a minimal alignment:
    ints for one pair, (B,) int arrays for a batch."""

    substitutions: int | np.ndarray
    deletions: int | np.ndarray
    insertions: int | np.ndarray
    hits: int | np.ndarray

    @property
    def errors(self) -> int | np.ndarray:
        return self.substitutions + self.deletions + self.insertions

    @property
    def reference_length(self) -> int | np.ndarray:
        return self.substitutions + self.deletions + self.hits


@dataclass(frozen=True)
class Histogram:
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


def edit_counts(ref, hyp, ref_lengths=None, hyp_lengths=None) -> EditCounts:
    """Counts of a minimal-cost alignment under unit costs, for one pair or a batch.

    With ``ref_lengths`` and ``hyp_lengths`` the call covers a batch of B
    pairs: ``ref`` and ``hyp`` stack the tokens of the B references and of
    the B hypotheses (pair b owns the next ``ref_lengths[b]`` and
    ``hyp_lengths[b]`` of each), and every count is a (B,) int array. A
    single pair is the batch of one, with int counts.

    One padded ``(n + 1, m + 1, B)`` table, n and m the longest reference
    and hypothesis, holds every pair's dynamic program, one row of numpy ops
    per reference position; a row's insertion chain is
    ``j + minimum.accumulate(x - j)``. A pair's cells never read the padding
    beyond its own lengths. The backtrace runs over all pairs at once, its
    ties preferring hit > substitution > deletion > insertion, so the count
    decomposition is deterministic even when several alignments share the
    minimal distance.
    """
    if (ref_lengths is None) != (hyp_lengths is None):
        raise ValueError("a batch needs both ref_lengths and hyp_lengths")
    single = ref_lengths is None
    if single:  # a batch of one
        ref, hyp = list(ref), list(hyp)
        ref_lengths, hyp_lengths = [len(ref)], [len(hyp)]
    r_len = np.asarray(ref_lengths, dtype=np.int64)
    h_len = np.asarray(hyp_lengths, dtype=np.int64)
    r_tok, h_tok = np.asarray(ref), np.asarray(hyp)
    if (r_len.ndim != 1 or r_len.shape != h_len.shape or min(r_len.min(initial=0), h_len.min(initial=0)) < 0
            or r_len.sum() != r_tok.size or h_len.sum() != h_tok.size):
        raise ValueError("a batch needs 1-D, equally long, non-negative lengths summing to the stacked tokens")
    B = r_len.size
    n, m = int(r_len.max(initial=0)), int(h_len.max(initial=0))
    R, H = _padded(r_tok, r_len, n), _padded(h_tok, h_len, m)  # token i of pair b at [i, b]
    # the smallest signed type that holds every cell, cell + 1 and cell - m
    col = np.arange(m + 1, dtype=np.min_scalar_type(-(n + m + 2)))[:, None]
    table = np.empty((n + 1, m + 1, B), dtype=col.dtype)
    table[0] = col
    for i in range(1, n + 1):
        prev, row = table[i - 1], table[i]
        np.add(prev[:-1], R[i] != H[1:], out=row[1:])  # hit or substitution
        np.minimum(row[1:], prev[1:] + 1, out=row[1:])  # deletion
        row[0] = i
        np.subtract(row, col, out=row)
        np.minimum.accumulate(row, axis=0, out=row)  # insertion chains
        row += col

    # Backtrace on flat indices into the table: one step back in i is
    # ``step`` cells, one in j is B. Only hits and substitutions are
    # counted; deletions and insertions are what the lengths leave over.
    step, pair = (m + 1) * B, np.arange(B)
    flat = table.reshape(-1)
    i, j = r_len.copy(), h_len.copy()
    at = i * step + j * B + pair
    hits, subs = np.zeros((2, B), dtype=np.int64)
    while True:
        live_i, live_j = i > 0, j > 0
        live = live_i | live_j
        if not live.any():
            break
        cur = flat[at]
        diag, up = flat.take(at - step - B, mode="clip"), flat.take(at - step, mode="clip")
        both = live_i & live_j
        hit = both & (R[i, pair] == H[j, pair]) & (diag == cur)
        sub = both & ~hit & (diag + 1 == cur)
        dele = live_i & ~(hit | sub) & (up + 1 == cur)
        back_j = live & ~dele
        back_i = hit | sub | dele
        hits += hit
        subs += sub
        i -= back_i
        j -= back_j
        at -= back_i * step + back_j * B
    counts = (subs, r_len - hits - subs, h_len - hits - subs, hits)  # S, D, I, H
    return EditCounts(*(int(x[0]) for x in counts) if single else counts)


def _padded(tokens: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """(width + 1, B): column b holds pair b's stacked tokens from row 1; the rest is 0."""
    out = np.zeros((width + 1, lengths.size), dtype=tokens.dtype)
    out[1:].T[np.arange(width) < lengths[:, None]] = tokens
    return out


def _batch(pairs) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
    """The batch-form arguments of :func:`edit_counts` for (ref, hyp) pairs of int32 tokens."""
    refs, hyps = [r for r, _ in pairs], [h for _, h in pairs]
    r_len, h_len = list(map(len, refs)), list(map(len, hyps))
    return (np.fromiter(chain.from_iterable(refs), np.int32, sum(r_len)),
            np.fromiter(chain.from_iterable(hyps), np.int32, sum(h_len)), r_len, h_len)


def wer(pairs) -> float:
    """Corpus-level WER: pooled (S + D + I) / pooled reference length, in one batch."""
    pair_list = list(pairs)
    if not pair_list:
        raise MetricError("wer needs at least one (ref, hyp) pair")
    c = edit_counts(*_batch(pair_list))
    total = int(c.reference_length.sum())
    if total == 0:
        raise MetricError("wer undefined: total reference length is 0")
    return int(c.errors.sum()) / total


def utterance_wer(pairs) -> list[float]:
    """Each (ref, hyp) pair's WER, in one batch: 0.0 for two empty sequences
    and inf for a hypothesis against an empty reference."""
    ref, hyp, r_len, h_len = _batch(list(pairs))
    c = edit_counts(ref, hyp, r_len, h_len)
    n = c.reference_length
    empty = np.where(np.asarray(h_len) == 0, 0.0, np.inf)
    return np.divide(c.errors, n, out=empty, where=n > 0).tolist()


def overlap_rate(set_a, set_b) -> float:
    """Jaccard overlap |A & B| / |A | B|; two empty sets count as identical."""
    a, b = set(set_a), set(set_b)
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def overlap_min_ratio(set_a, set_b) -> float:
    """|A & B| / min(|A|, |B|), the recall-against-the-smaller-set reading."""
    a, b = set(set_a), set(set_b)
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def histogram(values, n_bins: int) -> Histogram:
    """Equal-width bins spanning [min, max]; the max lands in the last bin.

    A span too narrow for ``n_bins`` distinct edges (a single value, or two a
    few ulps apart) is widened by 0.5 on each side, as numpy widens a zero span.
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        raise MetricError("histogram needs at least one value")
    if n_bins < 1:
        raise MetricError("n_bins must be >= 1")
    lo, hi = float(vals.min()), float(vals.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise MetricError(f"histogram values must be finite, got range [{lo}, {hi}]")
    if not (np.diff(np.linspace(lo, hi, n_bins + 1)) > 0).all():
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(vals, bins=n_bins, range=(lo, hi))
    return Histogram(
        bin_edges=tuple(float(x) for x in edges),
        counts=tuple(int(c) for c in counts),
    )
