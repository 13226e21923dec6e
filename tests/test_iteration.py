"""One IPL iteration against a reference built from the per-utterance references alone."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from iplfilter import pipeline
from iplfilter.corpus import CorpusGenConfig, generate_corpus
from iplfilter.model import TrainConfig, init_model
from iplfilter.pipeline import IplConfig, IterationReport
from test_metrics import reference_edit_counts, reference_wer
from test_model import reference_train
from test_pseudolabel import reference_pseudolabels


def _mean_or_none(values):
    return float(np.mean(np.array(values, dtype=np.float64))) if values else None


def reference_corpus_wer(model, pairs) -> float:
    """Pooled WER of the reference decode over (features, labels) pairs."""
    hyps = reference_pseudolabels(model, [fs for fs, _ in pairs])
    counts = [reference_edit_counts(list(ref), list(p.hypothesis)) for (_, ref), p in zip(pairs, hyps)]
    return sum(c.errors for c in counts) / sum(c.reference_length for c in counts)


def reference_iteration(model, splits, cfg: IplConfig, iteration: int):
    """``pipeline._run_one_iteration`` from ``reference_pseudolabels``,
    ``reference_wer``, ``reference_train`` and ``reference_edit_counts`` alone.

    The splits are read as (features, labels) pairs and the hidden truth by
    utterance id, whatever their in-memory layout. Returns the trained model,
    its loss curve, the report and the pseudo-label rows.
    """
    labeled, unlabeled = list(splits.labeled), list(splits.unlabeled)
    refs = splits.unlabeled_refs
    rows = reference_pseudolabels(model, unlabeled, cfg.exclude_blank)
    if refs:
        for row in rows:
            row.oracle_wer = reference_wer(list(refs[row.utterance_id]), list(row.hypothesis))
    keep = {"none": lambda row: True,
            "score": lambda row: row.score > cfg.score_threshold,
            "wer": lambda row: row.oracle_wer < cfg.max_wer}[cfg.filter_mode]
    kept = [i for i, row in enumerate(rows) if keep(row)]
    rejected = [i for i in range(len(rows)) if i not in set(kept)]
    data = labeled + [(unlabeled[i], rows[i].hypothesis) for i in kept]
    weights = [1.0] * len(labeled) + [cfg.pseudo_weight] * len(kept)
    seed = int(np.random.SeedSequence((cfg.seed, iteration)).generate_state(1)[0])
    trained, curve = reference_train(model, data, replace(cfg.train, seed=seed), weights=weights)
    report = IterationReport(
        iteration=iteration,
        threshold=cfg.score_threshold,
        generated=len(rows),
        kept=len(kept),
        rejected=len(rejected),
        mean_score_kept=_mean_or_none([rows[i].score for i in kept]),
        oracle_mean_wer_kept=_mean_or_none([rows[i].oracle_wer for i in kept]) if refs else None,
        oracle_mean_wer_rejected=_mean_or_none([rows[i].oracle_wer for i in rejected]) if refs else None,
        dev_wer=reference_corpus_wer(trained, list(splits.dev)),
        test_wer=reference_corpus_wer(trained, list(splits.test)),
        trained_on_labeled_only=not kept,
    )
    return trained, curve, report, rows


@st.composite
def iterations(draw):
    """A tiny corpus, a model, and an iteration's config: every filter mode, a
    score boundary at one of the scores (so ``>`` and ``>=`` differ), pseudo-label
    weights other than 1, truth withheld or not, either optimizer and hidden size."""
    gen = CorpusGenConfig(vocab_size=draw(st.integers(2, 4)), feature_dim=draw(st.integers(1, 3)),
                          label_len=(1, draw(st.integers(1, 3))), frames_per_token=(1, draw(st.integers(1, 3))),
                          n_labeled=draw(st.integers(1, 4)), n_unlabeled=draw(st.integers(1, 10)),
                          n_dev=draw(st.integers(1, 3)), n_test=draw(st.integers(1, 3)))
    splits = generate_corpus(gen, seed=draw(st.integers(0, 2**16)))
    mode = draw(st.sampled_from(["none", "score", "wer"]))
    if mode != "wer" and draw(st.booleans()):
        splits = replace(splits, unlabeled_refs={})
    model = init_model(gen.feature_dim, gen.vocab_size, draw(st.sampled_from([0, 3])), seed=draw(st.integers(0, 99)))
    exclude_blank = draw(st.booleans())
    bounds = {}
    if mode == "score":
        scores = [row.score for row in reference_pseudolabels(model, list(splits.unlabeled), exclude_blank)]
        bounds["score_threshold"] = draw(st.sampled_from(scores) | st.floats(-3.0, 0.0))
    elif mode == "wer":
        bounds["max_wer"] = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    train = TrainConfig(epochs=draw(st.integers(0, 2)), batch_size=draw(st.integers(1, 4)),
                        optimizer=draw(st.sampled_from(["adam", "sgd"])))
    cfg = IplConfig(filter_mode=mode, train=train, seed=draw(st.integers(0, 99)),
                    pseudo_weight=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])), exclude_blank=exclude_blank,
                    **bounds)
    return model, splits, cfg, draw(st.integers(1, 5))


@given(iterations())
@settings(max_examples=60, deadline=None)
def test_one_iteration_equals_the_reference_iteration(case):
    model, splits, cfg, iteration = case
    trained, report, pls = pipeline._run_one_iteration(model, splits, cfg, iteration)
    ref_model, _, ref_report, ref_rows = reference_iteration(model, splits, cfg, iteration)
    assert list(trained.params) == list(ref_model.params)
    for k, p in ref_model.params.items():
        assert np.array_equal(trained.params[k], p), f"param {k}"
    assert report == ref_report
    assert [(p.utterance_id, p.hypothesis.tokens, p.score, p.oracle_wer) for p in pls] == [
        (p.utterance_id, p.hypothesis.tokens, p.score, p.oracle_wer) for p in ref_rows]
