"""Confidence scoring, pseudo-label generation, and both filters.

An utterance's confidence score is the mean over frames of the per-frame
maximum log-probability, so it is always <= 0 and equals 0 only for a model
that is fully certain at every frame. The score filter keeps labels with
score strictly above a decision boundary; the WER filter is its oracle
counterpart and may only run where ground truth is legitimately available.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .artifacts import NUMBER, read_jsonl, write_jsonl
from .corpus import BLANK, LabelSequence, checked_labels
from .ctc import greedy_decode
from .errors import ManifestError, MetricError, OracleError
from .metrics import utterance_wer
# forward is unused here; it stays because perfbench's traced run wraps this module's name
from .model import AcousticModel, check_feature_dim, forward, forward_frames  # noqa: F401

PSEUDOLABEL_SCHEMA = "pseudo-labels"
_PSEUDOLABEL_FIELDS = {"utterance_id": str, "tokens": list, "score": NUMBER, "oracle_wer?": NUMBER}


@dataclass
class PseudoLabel:
    utterance_id: str
    hypothesis: LabelSequence
    score: float
    oracle_wer: float | None = None


# Utterances per stacked decode block. Stacking a whole split would grow the
# forward pass's arrays with it; blocks this size are also the faster choice.
DECODE_BLOCK = 128


def decode_split(model: AcousticModel, utterances, exclude_blank: bool = False) -> Iterator[tuple]:
    """Yield the greedy hypothesis and scored frame maxima of every utterance, in order.

    Every ``feature_dim`` is checked first. Then each block of at most
    ``DECODE_BLOCK`` utterances is one forward pass over its stacked frames
    and one batch :func:`greedy_decode`; yielding block by block keeps one
    block's arrays alive at a time. The scored maxima are every frame's, or
    with ``exclude_blank`` those of frames whose argmax is a real token
    (every frame's again when the decode is pure blank). A NaN frame, whose
    argmax is 0 (blank), is always scored, so its utterance's score is NaN.
    """
    utts = list(utterances)
    for fs in utts:
        check_feature_dim(model, fs)
    for lo in range(0, len(utts), DECODE_BLOCK):
        block = utts[lo : lo + DECODE_BLOCK]
        lengths = [fs.num_frames for fs in block]
        logp = forward_frames(model, np.concatenate([fs.frames for fs in block]))
        hyps, fmax = greedy_decode(logp, lengths)
        cuts = np.cumsum(lengths[:-1])
        maxima = np.split(fmax, cuts)
        if exclude_blank:
            token = np.split((logp.argmax(axis=1) != BLANK) | np.isnan(fmax), cuts)
            maxima = [m[t] if t.any() else m for m, t in zip(maxima, token)]
        yield from zip(hyps, maxima)


def generate_pseudolabels(model: AcousticModel, unlabeled, exclude_blank: bool = False) -> list[PseudoLabel]:
    """Greedy-decode and score every unlabeled utterance; order preserved, no oracle info.

    The score is the mean of the frame maxima :func:`decode_split` pairs
    with the hypothesis. An utterance whose score is not finite raises
    :class:`MetricError` naming it, instead of a NaN label that every filter
    would drop.
    """
    utts = list(unlabeled)
    out = []
    for fs, (hyp, maxima) in zip(utts, decode_split(model, utts, exclude_blank)):
        # ndarray.mean()'s own reduction and division, without its per-call overhead
        score = float(np.add.reduce(maxima)) / maxima.size
        if not math.isfinite(score):
            raise MetricError(f"utterance {fs.utterance_id}: non-finite confidence score {score}")
        out.append(PseudoLabel(utterance_id=fs.utterance_id, hypothesis=hyp, score=score))
    return out


def score_filter(pseudo_labels, boundary: float) -> list[PseudoLabel]:
    """Keep exactly the labels with score strictly above the boundary."""
    return [p for p in pseudo_labels if p.score > boundary]


def annotate_oracle_wer(pseudo_labels, references) -> None:
    """Fill ``oracle_wer`` on every pseudo-label, all in one batch (oracle-only path).

    A label without a reference raises :class:`OracleError` before any is filled.
    """
    pls = list(pseudo_labels)
    try:
        pairs = [(references[p.utterance_id], p.hypothesis) for p in pls]
    except KeyError as e:
        raise OracleError(f"no ground truth for utterance {e.args[0]}") from None
    for p, w in zip(pls, utterance_wer(pairs)):
        p.oracle_wer = w


def wer_filter(pseudo_labels, references, max_wer: float) -> list[PseudoLabel]:
    """Oracle filter: keep labels whose per-utterance WER is strictly below max_wer.

    Annotates ``oracle_wer`` on all inputs as a side product for analysis.
    """
    pls = list(pseudo_labels)
    annotate_oracle_wer(pls, references)
    return [p for p in pls if p.oracle_wer < max_wer]


def _record(p: PseudoLabel) -> dict:
    rec = {"utterance_id": p.utterance_id, "tokens": list(p.hypothesis.tokens), "score": p.score}
    if p.oracle_wer is not None:
        rec["oracle_wer"] = p.oracle_wer
    return rec


def save_pseudolabels(pseudo_labels, path) -> None:
    write_jsonl(path, (_record(p) for p in pseudo_labels), PSEUDOLABEL_SCHEMA)


def load_pseudolabels(path, num_classes: int | None = None) -> list[PseudoLabel]:
    """Inverse of :func:`save_pseudolabels`; a malformed file raises ManifestError,
    and so does a token of ``num_classes`` or more when it is given."""
    out = []
    for where, rec in read_jsonl(path, ManifestError, _PSEUDOLABEL_FIELDS, PSEUDOLABEL_SCHEMA):
        score = float(rec["score"])
        if not np.isfinite(score):
            raise ManifestError(f"{where}: non-finite score {score}")
        oracle_wer = rec.get("oracle_wer")
        out.append(PseudoLabel(
            utterance_id=rec["utterance_id"],
            hypothesis=checked_labels(where, rec["tokens"], num_classes),
            score=score,
            oracle_wer=None if oracle_wer is None else float(oracle_wer),
        ))
    return out
