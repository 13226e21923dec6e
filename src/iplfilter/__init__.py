"""Confidence-filtered iterative pseudo-labeling for CTC sequence recognition."""

from .corpus import (
    CorpusGenConfig,
    CorpusSplits,
    FeatureSequence,
    LabelSequence,
    Split,
    Vocabulary,
    generate_corpus,
    load_manifest,
    save_manifest,
)
from .ctc import brute_force_ctc, collapse, ctc_log_prob, greedy_decode
from .metrics import edit_counts, histogram, overlap_rate, wer
from .model import AcousticModel, FrameLogProbs, TrainConfig, forward, init_model, lr_at, train
from .pipeline import (
    EstimateConfig,
    IplConfig,
    ThresholdSchedule,
    estimate_threshold,
    run_ipl,
    select_threshold,
    sweep_threshold,
    train_teacher,
)
from .pseudolabel import (
    PseudoLabel,
    PseudoLabels,
    generate_pseudolabels,
    score_filter,
    wer_filter,
)

__version__ = "0.1.0"
