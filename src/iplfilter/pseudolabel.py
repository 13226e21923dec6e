"""Confidence scoring, pseudo-label generation, and both filters.

An utterance's confidence score is the mean over frames of the per-frame
maximum log-probability, so it is always <= 0 and equals 0 only for a model
that is fully certain at every frame. The score filter keeps labels with
score strictly above a decision boundary; the WER filter is its oracle
counterpart and may only run where ground truth is legitimately available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import NUMBER, read_jsonl, write_jsonl
from .corpus import (BLANK, LabelSequence, Split, Transcripts, checked_tokens, json_lines, ragged_rows,
                     unstacked)
from .ctc import greedy_decode
from .errors import ManifestError, MetricError, OracleError
from .metrics import utterance_wer
# forward is unused here; it stays because perfbench's traced run wraps this module's name
from .model import AcousticModel, check_split, forward, forward_frames  # noqa: F401

PSEUDOLABEL_SCHEMA = "pseudo-labels"
_PSEUDOLABEL_FIELDS = {"utterance_id": str, "tokens": list, "score": NUMBER, "oracle_wer?": NUMBER}


@dataclass
class PseudoLabel:
    """One row of :class:`PseudoLabels`."""

    utterance_id: str
    hypothesis: LabelSequence
    score: float
    oracle_wer: float | None = None


@dataclass(eq=False)
class PseudoLabels:
    """The pseudo-labels of a split as columns; row i is utterance ``ids[i]``.

    ``tokens`` stacks the hypotheses as :func:`greedy_decode` returns them.
    ``oracle_wer`` is None until every row is annotated. ``pls[idx]`` holds
    the rows of an index array or boolean mask, in order; iterating yields
    one :class:`PseudoLabel` per row."""

    ids: np.ndarray  # (N,) object: str
    tokens: np.ndarray  # int64
    lengths: np.ndarray  # (N,) int64
    scores: np.ndarray  # (N,) float64
    oracle_wer: np.ndarray | None = None  # (N,) float64

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, idx) -> PseudoLabels:
        pos, lengths = ragged_rows(self.lengths, idx)
        wer = None if self.oracle_wer is None else self.oracle_wer[idx]
        return PseudoLabels(self.ids[idx], self.tokens[pos], lengths, self.scores[idx], wer)

    def __iter__(self):
        wers = [None] * len(self) if self.oracle_wer is None else self.oracle_wer.tolist()
        for uid, tokens, score, wer in zip(self.ids.tolist(), unstacked(self.tokens, self.lengths),
                                           self.scores.tolist(), wers):
            yield PseudoLabel(uid, LabelSequence(tokens), score, wer)


# Utterances per stacked decode block. Stacking a whole split would grow the
# forward pass's arrays with it; blocks this size are also the faster choice.
DECODE_BLOCK = 128


def decode_split(model: AcousticModel, split: Split, exclude_blank: bool = False) -> tuple[np.ndarray, ...]:
    """Stacked hypotheses and scored frame maxima: ``(tokens, lengths, maxima, counts)``.

    The split's utterances are decoded a block of at most ``DECODE_BLOCK``
    at a time: one forward pass over the block's slice of the frames and
    one batch :func:`greedy_decode`. An
    utterance's ``counts`` scored maxima are every frame's, or with
    ``exclude_blank`` those of frames whose argmax is a real token (every
    frame's again when the decode is pure blank). A NaN frame, whose argmax
    is 0 (blank), is always scored.
    """
    check_split(model, split)
    ends = [0, *np.cumsum(split.num_frames).tolist()]
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64))]
    for lo in range(0, len(split), DECODE_BLOCK):
        hi = min(lo + DECODE_BLOCK, len(split))
        counts = split.num_frames[lo:hi]
        logp = forward_frames(model, split.frames[ends[lo]:ends[hi]])
        tokens, lengths, fmax = greedy_decode(logp, counts)
        if exclude_blank:
            starts = np.cumsum(counts) - counts
            token = (logp.argmax(axis=1) != BLANK) | np.isnan(fmax)
            token |= np.repeat(np.add.reduceat(token, starts, dtype=np.int64) == 0, counts)
            fmax, counts = fmax[token], np.add.reduceat(token, starts, dtype=np.int64)
        parts.append((tokens, lengths, fmax, counts))
    return tuple(np.concatenate(column) for column in zip(*parts))


def generate_pseudolabels(model: AcousticModel, split: Split, exclude_blank: bool = False) -> PseudoLabels:
    """Greedy-decode and score every unlabeled utterance; order preserved, no oracle info.

    A score is the mean of the utterance's scored frame maxima. Those with k
    of them are summed as one (n, k) matrix, each row pairwise as numpy sums
    a 1-D array, so every score is bit for bit ``ndarray.mean()``'s. A score
    that is not finite raises :class:`MetricError` naming its utterance.
    """
    tokens, lengths, maxima, counts = decode_split(model, split, exclude_blank)
    starts = np.cumsum(counts) - counts
    scores = np.empty(counts.size)
    for k in np.flatnonzero(np.bincount(counts)).tolist():  # np.unique would import numpy.ma
        rows = np.flatnonzero(counts == k)
        scores[rows] = np.add.reduce(maxima[starts[rows, None] + np.arange(k)], axis=1) / k
    for i in np.flatnonzero(~np.isfinite(scores))[:1]:
        raise MetricError(f"utterance {split.ids[i]}: non-finite confidence score {scores[i]}")
    return PseudoLabels(split.ids, tokens, lengths, scores)


def score_filter(pseudo_labels: PseudoLabels, boundary: float) -> np.ndarray:
    """The rows, in order, of exactly the labels with score strictly above the boundary."""
    return np.flatnonzero(pseudo_labels.scores > boundary)


def annotate_oracle_wer(pseudo_labels: PseudoLabels, references: Transcripts) -> None:
    """Fill ``oracle_wer`` of every row, all in one batch (oracle-only path).

    A row whose reference is missing or empty (an infinite WER) raises
    :class:`OracleError` naming it before any row is filled.
    """
    try:
        ref_tokens, ref_lengths = references.columns(pseudo_labels.ids)
    except KeyError as e:
        raise OracleError(f"no ground truth for utterance {e.args[0]}") from None
    for i in np.flatnonzero(ref_lengths == 0)[:1]:
        raise OracleError(f"utterance {pseudo_labels.ids[i]}: empty reference transcript")
    pseudo_labels.oracle_wer = utterance_wer(ref_tokens, pseudo_labels.tokens, ref_lengths,
                                             pseudo_labels.lengths)


def wer_filter(pseudo_labels: PseudoLabels, references: Transcripts, max_wer: float) -> np.ndarray:
    """Oracle filter: the rows, in order, whose per-utterance WER is strictly below max_wer.
    Annotates ``oracle_wer`` on every row as a side product for analysis."""
    annotate_oracle_wer(pseudo_labels, references)
    return np.flatnonzero(pseudo_labels.oracle_wer < max_wer)


def row_lines(pseudo_labels: PseudoLabels, tokens: bool = True):
    """One JSON line per row, formatted from the columns as ``write_jsonl`` writes the record
    of its ``oracle_wer`` (if annotated), ``score``, ``tokens`` (unless left out) and
    ``utterance_id``; a non-finite score or WER, not JSON, raises ValueError."""
    pls = pseudo_labels
    wers = np.zeros(len(pls)) if pls.oracle_wer is None else pls.oracle_wer
    if not (np.isfinite(pls.scores).all() and np.isfinite(wers).all()):
        raise ValueError("pseudo-label scores and oracle WERs must be finite")
    heads = [f'"score": {score!r}, ' for score in pls.scores.tolist()]
    if pls.oracle_wer is not None:
        heads = [f'"oracle_wer": {w!r}, {head}' for w, head in zip(wers.tolist(), heads)]
    return json_lines(pls.ids, heads, pls.tokens if tokens else None, pls.lengths)


def save_pseudolabels(pseudo_labels: PseudoLabels, path) -> None:
    """One line per row, from :func:`row_lines`."""
    write_jsonl(path, row_lines(pseudo_labels), PSEUDOLABEL_SCHEMA)


def load_pseudolabels(path, num_classes: int | None = None) -> PseudoLabels:
    """Inverse of :func:`save_pseudolabels`. Records are read by
    :func:`~iplfilter.artifacts.read_jsonl` (a score or oracle WER must be a finite
    number), then each column checked in one compare: tokens by
    :func:`~iplfilter.corpus.checked_tokens`, and oracle WERs >= 0 on every record or
    none. The first bad record raises ManifestError naming its ``path:line``."""
    recs, where = read_jsonl(path, ManifestError, _PSEUDOLABEL_FIELDS, PSEUDOLABEL_SCHEMA)
    ids, token_lists, scores, wers = (
        [rec.get(key) for rec in recs] for key in ("utterance_id", "tokens", "score", "oracle_wer"))
    tokens, lengths = checked_tokens(where, token_lists, num_classes)
    scores = np.array(scores, dtype=np.float64)
    has_wer = np.array([wer is not None for wer in wers], dtype=bool)
    wers = np.array([0.0 if wer is None else wer for wer in wers], dtype=np.float64)
    for i in np.flatnonzero((has_wer != has_wer.any()) | (wers < 0))[:1]:
        raise ManifestError(f"{where(i)}: " + (f"oracle_wer must be >= 0, got {wers[i]}"
                                                if has_wer[i] else "no oracle_wer, unlike other records"))
    return PseudoLabels(np.array(ids, dtype=object), tokens, lengths, scores, wers if has_wer.any() else None)
