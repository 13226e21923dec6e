"""Edit-distance WER, set overlap, and histogram summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError


@dataclass(frozen=True)
class EditCounts:
    """Substitutions, deletions, insertions, hits of a minimal alignment."""

    substitutions: int
    deletions: int
    insertions: int
    hits: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def reference_length(self) -> int:
        return self.substitutions + self.deletions + self.hits


@dataclass(frozen=True)
class Histogram:
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


def edit_counts(ref, hyp) -> EditCounts:
    """Minimal-cost alignment under unit costs.

    Backtrace ties prefer hit > substitution > deletion > insertion, so the
    count decomposition is deterministic even when several alignments share
    the minimal distance.
    """
    r, h = list(ref), list(hyp)
    n, m = len(r), len(h)
    dp = [list(range(m + 1))]  # rows of Python ints: no numpy scalar per cell
    for i in range(1, n + 1):
        prev, row = dp[-1], [i]
        for j in range(1, m + 1):
            row.append(min(prev[j - 1] + (r[i - 1] != h[j - 1]), prev[j] + 1, row[j - 1] + 1))
        dp.append(row)

    S = D = I = H = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and r[i - 1] == h[j - 1] and dp[i][j] == dp[i - 1][j - 1]:
            H += 1
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + 1:
            S += 1
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            D += 1
            i = i - 1
        else:
            I += 1
            j = j - 1
    return EditCounts(substitutions=S, deletions=D, insertions=I, hits=H)


def wer(pairs) -> float:
    """Corpus-level WER: pooled (S + D + I) / pooled reference length."""
    pair_list = list(pairs)
    if not pair_list:
        raise MetricError("wer needs at least one (ref, hyp) pair")
    errs = 0
    total = 0
    for ref, hyp in pair_list:
        c = edit_counts(ref, hyp)
        errs += c.errors
        total += c.reference_length
    if total == 0:
        raise MetricError("wer undefined: total reference length is 0")
    return errs / total


def utterance_wer(ref, hyp) -> float:
    """Single-pair WER; 0.0 for two empty sequences, inf for a hyp against an empty ref."""
    c = edit_counts(ref, hyp)
    if c.reference_length == 0:
        return 0.0 if len(list(hyp)) == 0 else float("inf")
    return c.errors / c.reference_length


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
