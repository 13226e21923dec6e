"""In-memory span recorder and the wrappers that trace iplfilter's layers.

The benchmark never edits the package. For a traced pass it swaps selected
module attributes (the names a caller looks up at call time, e.g.
``iplfilter.model.ctc_log_prob`` as seen from ``model``) for thin wrappers
that record a span around the call, and puts the originals back afterwards.

A span is (name, start, end, parent, pass id); self time is its duration
minus the part of it covered by its children. Counts that give the work
behind a span (frames, cells, bytes, utterances) are recorded next to it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class Tracer:
    """Spans and counters of one benchmark process, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.pass_id = 0

    def top(self) -> str | None:
        return self.spans[self.stack[-1]].name if self.stack else None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.pass_id))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` and any span still open inside it."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top].end = now
            if top == idx:
                return

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, value: float) -> None:
        self.counts[(self.pass_id, name)] += value

    def write(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "pass": s.pass_id}
                fh.write(json.dumps(rec) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_time(spans: list[Span], kids: dict[int, list[int]], idx: int) -> float:
    s = spans[idx]
    return (s.end - s.start) - covered(
        [(spans[k].start, spans[k].end) for k in kids.get(idx, ())], s.start, s.end
    )


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _frames(x) -> int:
    return int(np.shape(getattr(x, "logp", getattr(x, "frames", x)))[0])


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _count_ctc(tr, args, kwargs, result):
    tr.count("ctc.fb.frames", _frames(args[0]))


def _count_forward(tr, args, kwargs, result):
    tr.count("model.forward.frames", _frames(args[1]))


def _count_train(tr, args, kwargs, result):
    n, cfg = len(list(args[1])), args[2]
    tr.count("model.train.steps", cfg.epochs * math.ceil(n / cfg.batch_size) if n else 0)


def _count_checkpoint(tr, args, kwargs, result):
    tr.count("model.checkpoint.bytes", os.path.getsize(args[1]))


def _count_manifest_save(tr, args, kwargs, result):
    tr.count("corpus.manifest.bytes", _dir_bytes(args[1]))


def _count_manifest_load(tr, args, kwargs, result):
    tr.count("corpus.manifest.bytes", _dir_bytes(args[0]))


def _count_generate(tr, args, kwargs, result):
    tr.count("pseudolabel.generate.utts", len(result))


def _count_filter(tr, args, kwargs, result):
    tr.count("pseudolabel.generated", len(list(args[0])))
    tr.count("pseudolabel.kept", len(result))


def _count_edit(tr, args, kwargs, result):
    tr.count("metrics.edit_counts.cells", (len(list(args[0])) + 1) * (len(list(args[1])) + 1))


# (module, attribute, span name, counter). Each attribute is the name the
# calling module looks up, so only calls made from that module are traced.
TARGETS = [
    ("model", "ctc_log_prob", "ctc.fb", _count_ctc),
    ("model", "utterance_loss_and_grads", "model.loss_grads", None),
    ("pipeline", "forward", "model.forward", _count_forward),
    ("pseudolabel", "forward", "model.forward", _count_forward),
    ("pipeline", "greedy_decode", "ctc.greedy_decode", None),
    ("pseudolabel", "greedy_decode", "ctc.greedy_decode", None),
    ("pipeline", "train", "model.train", _count_train),
    ("pipeline", "save_checkpoint", "model.checkpoint.save", _count_checkpoint),
    ("cli", "load_checkpoint", "model.checkpoint.load", None),
    ("cli", "save_manifest", "corpus.manifest.save", _count_manifest_save),
    ("cli", "load_manifest", "corpus.manifest.load", _count_manifest_load),
    ("pipeline", "generate_pseudolabels", "pseudolabel.generate", _count_generate),
    ("cli", "generate_pseudolabels", "pseudolabel.generate", _count_generate),
    ("pipeline", "save_pseudolabels", "pseudolabel.io.save", None),
    ("cli", "save_pseudolabels", "pseudolabel.io.save", None),
    ("cli", "load_pseudolabels", "pseudolabel.io.load", None),
    ("pipeline", "score_filter", "pseudolabel.filter", _count_filter),
    ("cli", "score_filter", "pseudolabel.filter", _count_filter),
    ("pipeline", "wer_filter", "pseudolabel.filter", _count_filter),
    ("cli", "wer_filter", "pseudolabel.filter", _count_filter),
    ("pipeline", "annotate_oracle_wer", "pseudolabel.oracle", None),
    ("cli", "annotate_oracle_wer", "pseudolabel.oracle", None),
    ("metrics", "edit_counts", "metrics.edit_counts", _count_edit),
    ("pipeline", "evaluate_wer", "pipeline.eval", None),
    ("pipeline", "train_teacher", "pipeline.teacher", None),
    ("cli", "train_teacher", "pipeline.teacher", None),
    ("pipeline", "run_ipl", "pipeline.ipl", None),
    ("cli", "run_ipl", "pipeline.ipl", None),
    ("cli", "sweep_threshold", "pipeline.sweep", None),
    ("cli", "estimate_threshold", "pipeline.estimate", None),
    ("pipeline", "RunWriter.iteration", "pipeline.write", None),
]

# An IPL iteration has no public function of its own. Its span opens where
# the loop (run_ipl or sweep_threshold) starts decoding and closes when the
# run writer has stored the iteration, so it covers the whole iteration body.
LOOPS = ("pipeline.ipl", "pipeline.sweep")
ITER = "pipeline.iter"


def _wrap(tr: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "pseudolabel.generate" and tr.top() in LOOPS:
            tr.open(ITER)
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if name == "pipeline.write" and tr.top() == ITER:
            tr.close(tr.stack[-1])
        if counter is not None:
            counter(tr, args, kwargs, result)
        return result

    return traced


def _owner(module: str, attr: str):
    obj = importlib.import_module(f"iplfilter.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, leaf


@contextlib.contextmanager
def installed(tr: Tracer, targets=TARGETS):
    """Trace every target for the duration of the block; restore on exit.

    A target that no longer exists raises, so a renamed function stops the
    run instead of reading as a layer that takes no time.
    """
    saved = []
    try:
        for module, attr, name, counter in targets:
            owner, leaf = _owner(module, attr)
            if leaf not in vars(owner):
                raise AttributeError(f"iplfilter.{module}.{attr} not found; update spans.TARGETS")
            original = vars(owner)[leaf]
            setattr(owner, leaf, _wrap(tr, original, name, counter))
            saved.append((owner, leaf, original))
        yield
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

STAGES = {
    "pseudolabel.generate": "decode",
    "pseudolabel.oracle": "oracle",
    "pseudolabel.filter": "filter",
    "model.train": "train",
    "pipeline.eval": "eval",
    "pipeline.write": "write",
}


ITER_PARTS = [*STAGES.values(), "other", "self"]


def iteration_split(spans: list[Span], kids, idx: int) -> dict[str, float]:
    """Seconds of one iteration span by stage, plus the span's own self time.

    The stages are the iteration's direct children (a traced call that is
    not a known stage counts as "other"), so the values sum to the
    iteration's duration.
    """
    split = dict.fromkeys(ITER_PARTS, 0.0)
    for k in kids.get(idx, ()):
        split[STAGES.get(spans[k].name, "other")] += spans[k].end - spans[k].start
    split["self"] = self_time(spans, kids, idx)
    return split


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, passes: set[int]) -> dict[str, float]:
    """Per-pass layer numbers over the traced passes ``passes``.

    Totals (calls, seconds, steps) are per traced pass; I/O times are per
    call, so set-up calls made outside the passes count too.
    """
    kids = children_of(tr.spans)
    n = len(passes)
    calls: dict[str, int] = defaultdict(int)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    io_calls: dict[str, int] = defaultdict(int)
    io_dur: dict[str, float] = defaultdict(float)
    split = defaultdict(float)
    for i, s in enumerate(tr.spans):
        d = s.end - s.start
        io_calls[s.name] += 1
        io_dur[s.name] += d
        if s.pass_id not in passes:
            continue
        calls[s.name] += 1
        dur[s.name] += d
        own[s.name] += self_time(tr.spans, kids, i)
        if s.name == ITER:
            for stage, sec in iteration_split(tr.spans, kids, i).items():
                split[stage] += sec
    count = defaultdict(float)
    for (pass_id, name), v in tr.counts.items():
        count[name, pass_id in passes] += v

    def per_call(name):
        return _ratio(io_dur[name], io_calls[name])

    m = {
        "ctc.fb.calls": calls["ctc.fb"] / n,
        "ctc.fb.us_per_call": 1e6 * _ratio(dur["ctc.fb"], calls["ctc.fb"]),
        "ctc.fb.frames_per_s": _ratio(count["ctc.fb.frames", True], dur["ctc.fb"]),
        "ctc.greedy_decode.calls": calls["ctc.greedy_decode"] / n,
        "ctc.greedy_decode.us_per_call": 1e6 * _ratio(dur["ctc.greedy_decode"], calls["ctc.greedy_decode"]),
        "model.forward.us_per_call": 1e6 * _ratio(dur["model.forward"], calls["model.forward"]),
        "model.forward.frames_per_s": _ratio(count["model.forward.frames", True], dur["model.forward"]),
        "model.loss_grads.self_us_per_call": 1e6 * _ratio(own["model.loss_grads"], calls["model.loss_grads"]),
        "model.train.self_s": own["model.train"] / n,
        "model.train.steps": count["model.train.steps", True] / n,
        "model.checkpoint.save_s": per_call("model.checkpoint.save"),
        "model.checkpoint.load_s": per_call("model.checkpoint.load"),
        "model.checkpoint.bytes": _ratio(
            count["model.checkpoint.bytes", True] + count["model.checkpoint.bytes", False],
            io_calls["model.checkpoint.save"],
        ),
        "corpus.manifest.save_s": per_call("corpus.manifest.save"),
        "corpus.manifest.load_s": per_call("corpus.manifest.load"),
        "corpus.manifest.mb_per_s": 1e-6 * _ratio(
            count["corpus.manifest.bytes", True] + count["corpus.manifest.bytes", False],
            io_dur["corpus.manifest.save"] + io_dur["corpus.manifest.load"],
        ),
        "pseudolabel.generate.utt_per_s": _ratio(
            count["pseudolabel.generate.utts", True], dur["pseudolabel.generate"]
        ),
        "pseudolabel.io.save_s": per_call("pseudolabel.io.save"),
        "pseudolabel.io.load_s": per_call("pseudolabel.io.load"),
        "pseudolabel.kept_frac": _ratio(count["pseudolabel.kept", True], count["pseudolabel.generated", True]),
        "metrics.edit_counts.calls": calls["metrics.edit_counts"] / n,
        "metrics.edit_counts.us_per_call": 1e6 * _ratio(dur["metrics.edit_counts"], calls["metrics.edit_counts"]),
        "metrics.edit_counts.cells_per_s": _ratio(
            count["metrics.edit_counts.cells", True], dur["metrics.edit_counts"]
        ),
    }
    for part in ITER_PARTS:
        m[f"pipeline.iter.{part}_s"] = split[part] / n
    for name in ("teacher", "sweep", "estimate"):
        m[f"pipeline.{name}_s"] = dur[f"pipeline.{name}"] / n
    return m
