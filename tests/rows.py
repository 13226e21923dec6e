"""Rows as the library takes them: tests build utterances as FeatureSequence and
LabelSequence rows, and hand them over as a Split, Transcripts or CorpusSplits."""

import numpy as np

from iplfilter.corpus import CorpusSplits, Split, Transcripts, stacked


def split_of(rows, feature_dim: int = 0) -> Split:
    """The Split of (FeatureSequence, LabelSequence) pairs or of FeatureSequences
    alone; no rows make an empty labeled Split of frames ``feature_dim`` wide."""
    rows = list(rows)
    labeled = not rows or isinstance(rows[0], tuple)
    feats = [fs for fs, _ in rows] if labeled else rows
    frames = np.concatenate([fs.frames for fs in feats]) if feats else np.empty((0, feature_dim))
    return Split(np.array([fs.utterance_id for fs in feats], dtype=object), frames,
                 np.array([fs.num_frames for fs in feats], dtype=np.int64),
                 *(stacked(lab for _, lab in rows) if labeled else ()))


def transcripts_of(refs) -> Transcripts:
    """The Transcripts of a mapping of utterance ids to token sequences."""
    return Transcripts(np.array(list(refs), dtype=object), *stacked(refs.values()))


def corpus_of(vocabulary, labeled, unlabeled, unlabeled_refs=None, dev=(), test=()) -> CorpusSplits:
    """The CorpusSplits of rows, every split as wide as the first utterance's frames."""
    first = next(iter([*labeled, *unlabeled]), None)
    dim = (first[0] if isinstance(first, tuple) else first).feature_dim if first is not None else 0
    unl = split_of(unlabeled, dim)
    return CorpusSplits(vocabulary, split_of(labeled, dim), Split(unl.ids, unl.frames, unl.num_frames),
                        transcripts_of(unlabeled_refs or {}), split_of(dev, dim), split_of(test, dim))
