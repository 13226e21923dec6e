"""Tests of the benchmark's span arithmetic and of its wrapper install/restore."""

import math

import pytest

import iplfilter
from iplfilter import corpus, metrics, model, pipeline

import spans
from spans import Span, Tracer


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered([], 0.0, 10.0) == 0.0
    assert spans.covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert spans.covered([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == 3.0
    assert spans.covered([(4.0, 4.0), (6.0, 5.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_only_direct_children():
    s = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    kids = spans.children_of(s)
    assert spans.self_time(s, kids, 0) == pytest.approx(3.0)
    assert spans.self_time(s, kids, 1) == pytest.approx(2.0)
    assert spans.self_time(s, kids, 2) == pytest.approx(1.0)


def test_iteration_split_sums_to_the_iteration_duration():
    s = [
        Span(spans.ITER, 0.0, 10.0, None, 0),
        Span("pseudolabel.generate", 0.5, 2.0, 0, 0),
        Span("model.train", 2.0, 7.0, 0, 0),
        Span("model.loss_grads", 2.5, 6.0, 2, 0),
        Span("pipeline.eval", 7.5, 9.0, 0, 0),
        Span("pipeline.write", 9.0, 9.75, 0, 0),
        Span("model.forward", 9.75, 9.875, 0, 0),
    ]
    split = spans.iteration_split(s, spans.children_of(s), 0)
    assert split["decode"] == 1.5 and split["train"] == 5.0 and split["oracle"] == 0.0
    assert split["other"] == 0.125
    assert split["self"] == pytest.approx(1.125)
    assert sum(split.values()) == pytest.approx(10.0)


def test_close_ends_spans_left_open_inside():
    tr = Tracer()
    outer = tr.open("outer")
    tr.open("inner")
    tr.close(outer)
    assert not tr.stack
    assert all(not math.isnan(s.end) for s in tr.spans)
    assert tr.spans[1].parent == outer


def _targets():
    out = []
    for module, attr, _, _ in spans.TARGETS:
        owner, leaf = spans._owner(module, attr)
        out.append((owner, leaf, vars(owner)[leaf]))
    return out


def test_installed_wraps_then_restores_every_target():
    before = _targets()
    tr = Tracer()
    with spans.installed(tr):
        assert all(vars(owner)[leaf] is not fn for owner, leaf, fn in before)
        metrics.wer([((1, 2, 3), (1, 3))])
    assert all(vars(owner)[leaf] is fn for owner, leaf, fn in before)
    assert [s.name for s in tr.spans] == ["metrics.edit_counts"]
    assert tr.counts[(0, "metrics.edit_counts.cells")] == 4 * 3


def test_installed_restores_after_an_exception():
    before = _targets()
    with pytest.raises(RuntimeError):
        with spans.installed(Tracer()):
            raise RuntimeError("boom")
    assert all(vars(owner)[leaf] is fn for owner, leaf, fn in before)


def test_installed_raises_on_a_missing_target_and_restores_the_others():
    before = _targets()
    with pytest.raises(AttributeError, match="iplfilter.model.no_such_fn"):
        with spans.installed(Tracer(), [*spans.TARGETS, ("model", "no_such_fn", "x", None)]):
            pass
    assert all(vars(owner)[leaf] is fn for owner, leaf, fn in before)
    assert not hasattr(model, "no_such_fn")


def test_traced_ipl_iterations_split_exactly():
    gen = corpus.CorpusGenConfig(n_labeled=2, n_unlabeled=4, n_dev=2, n_test=2)
    splits = corpus.generate_corpus(gen, seed=0)
    cfg = pipeline.IplConfig(iter_max=2, filter_mode="score", score_threshold=-0.5,
                             train=model.TrainConfig(epochs=1))
    tr = Tracer()
    with spans.installed(tr):
        pipeline.run_ipl(splits, cfg)
    kids = spans.children_of(tr.spans)
    iters = [i for i, s in enumerate(tr.spans) if s.name == spans.ITER]
    assert len(iters) == 2
    for i in iters:
        assert tr.spans[tr.spans[i].parent].name == "pipeline.ipl"
        split = spans.iteration_split(tr.spans, kids, i)
        assert split["decode"] > 0 and split["train"] > 0 and split["eval"] > 0
        assert sum(split.values()) == pytest.approx(tr.spans[i].end - tr.spans[i].start, abs=1e-12)
    m = spans.layer_metrics(tr, {0})
    assert m["ctc.fb.calls"] > 0 and m["model.train.steps"] > 0
    assert iplfilter.model.ctc_log_prob is iplfilter.ctc.ctc_log_prob
