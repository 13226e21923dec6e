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
from .corpus import BLANK, LabelSequence, checked_labels
from .ctc import greedy_decode
from .errors import ConfigurationError, ManifestError, MetricError, OracleError
from .metrics import utterance_wer
from .model import AcousticModel, forward

PSEUDOLABEL_SCHEMA = "pseudo-labels"
_PSEUDOLABEL_FIELDS = {"utterance_id": str, "tokens": list, "score": NUMBER, "oracle_wer?": NUMBER}


@dataclass
class PseudoLabel:
    utterance_id: str
    hypothesis: LabelSequence
    score: float
    oracle_wer: float | None = None


@dataclass(frozen=True)
class ThresholdSchedule:
    """Decision boundaries initial - u * step for u = 0, 1, 2, ..."""

    initial: float
    step: float
    iterations_per_update: int = 3

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigurationError("schedule step must be > 0")
        if self.iterations_per_update < 1:
            raise ConfigurationError("iterations_per_update must be >= 1")

    def boundary(self, u: int) -> float:
        """The decision boundary at update ``u``."""
        return self.initial - u * self.step


def score_utterance(logp, exclude_blank: bool = False) -> float:
    """Mean over frames of the per-frame max log-probability.

    ``exclude_blank`` restricts the mean to frames whose argmax is a real
    token (falling back to all frames when the decode is pure blank); off by
    default so every frame counts. A score that is not finite raises
    :class:`MetricError`, naming the utterance when ``logp`` carries one:
    no decision boundary can rank it.
    """
    arr = np.asarray(getattr(logp, "logp", logp), dtype=np.float64)
    fmax = arr.max(axis=1)
    if exclude_blank:
        mask = arr.argmax(axis=1) != BLANK
        if mask.any():
            fmax = fmax[mask]
    score = float(fmax.mean())
    if not np.isfinite(score):
        uid = getattr(logp, "utterance_id", None)
        where = "" if uid is None else f"utterance {uid}: "
        raise MetricError(f"{where}non-finite confidence score {score}")
    return score


def generate_pseudolabels(model: AcousticModel, unlabeled, exclude_blank: bool = False) -> list[PseudoLabel]:
    """Greedy-decode every unlabeled utterance; order preserved, no oracle info.

    An utterance whose score is not finite raises :class:`MetricError`
    naming it, instead of a NaN label that every filter would drop.
    """
    out = []
    for fs in unlabeled:
        flp = forward(model, fs)
        hyp, _ = greedy_decode(flp)
        out.append(
            PseudoLabel(
                utterance_id=fs.utterance_id,
                hypothesis=hyp,
                score=score_utterance(flp, exclude_blank=exclude_blank),
            )
        )
    return out


def score_filter(pseudo_labels, boundary: float) -> list[PseudoLabel]:
    """Keep exactly the labels with score strictly above the boundary."""
    return [p for p in pseudo_labels if p.score > boundary]


def annotate_oracle_wer(pseudo_labels, references) -> None:
    """Fill ``oracle_wer`` on every pseudo-label (oracle-only path)."""
    for p in pseudo_labels:
        if p.utterance_id not in references:
            raise OracleError(f"no ground truth for utterance {p.utterance_id}")
        p.oracle_wer = utterance_wer(references[p.utterance_id], p.hypothesis)


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


def load_pseudolabels(path) -> list[PseudoLabel]:
    """Inverse of :func:`save_pseudolabels`; a malformed file raises ManifestError."""
    out = []
    for where, rec in read_jsonl(path, ManifestError, _PSEUDOLABEL_FIELDS, PSEUDOLABEL_SCHEMA):
        score = float(rec["score"])
        if not np.isfinite(score):
            raise ManifestError(f"{where}: non-finite score {score}")
        oracle_wer = rec.get("oracle_wer")
        out.append(PseudoLabel(
            utterance_id=rec["utterance_id"],
            hypothesis=checked_labels(where, rec["tokens"]),
            score=score,
            oracle_wer=None if oracle_wer is None else float(oracle_wer),
        ))
    return out
