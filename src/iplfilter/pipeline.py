"""Iterative pseudo-labeling: teacher, IPL loop, threshold sweep, estimation.

The loop is: train a teacher on the labeled split, then repeatedly
(re)generate pseudo-labels for the unlabeled split with the latest model,
filter them, fuse the kept set with the labeled data, and train for a fixed
number of epochs continuing from the previous weights. Reports carry enough
oracle information (when the corpus retains hidden truth) to reproduce the
filter-comparison and threshold-study tables.

Hidden-truth isolation: training only ever sees features plus hypothesized
labels. Ground truth enters an iteration solely through the oracle paths
(`wer`-mode filtering and report annotation); a corpus stripped of truth runs
the score/none modes to bit-identical weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .artifacts import read_json, read_jsonl, record_fields, write_json, write_jsonl, write_text
from .corpus import CorpusSplits, Split, Transcripts, unstacked
from .errors import ConfigurationError, InsufficientProbeError, OracleError, check_config
from .metrics import histogram, overlap_min_ratio, overlap_rate, wer
# forward and greedy_decode are unused here; they stay because perfbench's traced run wraps them
from .model import AcousticModel, TrainConfig, forward, init_model, save_checkpoint, train  # noqa: F401
from .ctc import greedy_decode  # noqa: F401
from .pseudolabel import (
    PseudoLabels,
    annotate_oracle_wer,
    decode_split,
    generate_pseudolabels,
    row_lines,
    save_pseudolabels,
    score_filter,
    wer_filter,
)

REPORT_SCHEMA = "iteration-reports"

# Each filter mode and the IplConfig field holding its boundary; "none" keeps every label
FILTER_MODES = {"none": None, "score": "score_threshold", "wer": "max_wer"}


@dataclass(frozen=True)
class IplConfig:
    iter_max: int = 3
    filter_mode: str = "none"
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    hidden_dim: int = 0
    score_threshold: float | None = None
    max_wer: float | None = None
    warm_start: bool = True
    pseudo_weight: float = 1.0
    exclude_blank: bool = False

    def __post_init__(self):
        check_config(self, iter_max=1, seed=0, hidden_dim=0, max_wer=(0, None), pseudo_weight=0)
        if self.filter_mode not in FILTER_MODES:
            raise ConfigurationError(f"filter_mode must be one of {tuple(FILTER_MODES)}")
        for mode, name in FILTER_MODES.items():
            if name is not None and (getattr(self, name) is None) == (mode == self.filter_mode):
                raise ConfigurationError(f"{mode} mode needs {name}" if mode == self.filter_mode
                                         else f"{self.filter_mode!r} mode takes no {name}")


@dataclass(frozen=True)
class ThresholdSchedule:
    """Every setting of the sweep: the decision boundaries ``initial - u * step``
    for ``u < max_updates``, each run for ``iters_per_update`` IPL iterations."""

    initial: float = -0.05
    step: float = 0.03
    iters_per_update: int = 3
    max_updates: int = 8

    def __post_init__(self):
        check_config(self, step=(0, None), iters_per_update=1, max_updates=1)

    def boundary(self, u: int) -> float:
        """The decision boundary at update ``u``."""
        return self.initial - u * self.step


@dataclass(frozen=True)
class EstimateConfig:
    """Every setting of :func:`estimate_threshold`, each named like its ``estimate-threshold``
    flag and checked when it is built."""

    max_wer: float = 0.10
    coverage: float = 0.9
    min_probe: int = 20
    exclude_blank: bool = False

    def __post_init__(self):
        check_config(self, max_wer=(0, None), coverage=(0, 1), min_probe=1)


@dataclass
class IterationReport:
    iteration: int
    threshold: float | None
    generated: int
    kept: int
    rejected: int
    mean_score_kept: float | None
    oracle_mean_wer_kept: float | None
    oracle_mean_wer_rejected: float | None
    dev_wer: float
    test_wer: float
    trained_on_labeled_only: bool


@dataclass
class TeacherReport:
    dev_wer: float
    test_wer: float
    loss_curve: list[float]


@dataclass
class TeacherResult:
    model: AcousticModel
    report: TeacherReport


@dataclass
class IplResult:
    model: AcousticModel
    reports: list[IterationReport]


@dataclass
class SweepResult:
    best_threshold: float
    declined: bool  # False means the schedule ran out without a dev-WER decline
    thresholds: list[float]
    best_dev_wer_per_threshold: list[float]
    reports: list[IterationReport]
    model: AcousticModel


@dataclass
class EstimateResult:
    threshold: float
    probe_size: int
    wer_kept_count: int
    score_kept_count: int
    overlap_jaccard: float
    overlap_min_ratio: float
    pseudolabels: PseudoLabels  # the probe's labels, with oracle WER


def evaluate_wer(model: AcousticModel, split: Split) -> float:
    """Pooled greedy-decode WER of a model over a labeled split."""
    tokens, lengths, _, _ = decode_split(model, split)
    return wer(zip(unstacked(split.tokens, split.lengths), unstacked(tokens, lengths)))


def check_splits(splits: CorpusSplits) -> None:
    """A run trains on the labeled split and scores every model on dev and test."""
    for name in ("labeled", "dev", "test"):
        if not getattr(splits, name):
            raise ConfigurationError(f"{name} split is empty")


def train_teacher(splits: CorpusSplits, cfg: IplConfig) -> TeacherResult:
    """Train the initial model on the labeled split alone."""
    check_splits(splits)
    model = init_model(
        splits.feature_dim, len(splits.vocabulary.tokens), cfg.hidden_dim, seed=cfg.seed
    )
    tcfg = replace(cfg.train, seed=_derived_seed(cfg.seed, 0))
    result = train(model, splits.labeled, tcfg)
    report = TeacherReport(
        dev_wer=evaluate_wer(result.model, splits.dev),
        test_wer=evaluate_wer(result.model, splits.test),
        loss_curve=result.loss_curve,
    )
    return TeacherResult(model=result.model, report=report)


def _derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


def _mean_or_none(values: np.ndarray) -> float | None:
    return float(np.mean(values)) if values.size else None


def _run_one_iteration(
    model: AcousticModel,
    splits: CorpusSplits,
    cfg: IplConfig,
    iteration: int,
) -> tuple[AcousticModel, IterationReport, PseudoLabels]:
    """One iteration under ``cfg``: decode, filter by ``cfg.filter_mode``, fuse, train, evaluate."""
    pls = generate_pseudolabels(model, splits.unlabeled, exclude_blank=cfg.exclude_blank)
    has_truth = bool(splits.unlabeled_refs)
    if cfg.filter_mode == "wer":
        kept = wer_filter(pls, splits.unlabeled_refs, cfg.max_wer)  # annotates every label
    else:
        if has_truth:
            annotate_oracle_wer(pls, splits.unlabeled_refs)
        kept = score_filter(pls, cfg.score_threshold) if cfg.filter_mode == "score" else np.arange(len(pls))
    rejected = np.delete(np.arange(len(pls)), kept)

    # the labeled split, then the kept rows with their pseudo-labels
    pseudo = {"tokens": pls[kept].tokens, "lengths": pls.lengths[kept]}
    fused = splits.labeled + replace(splits.unlabeled[kept], **pseudo)
    weights = [1.0] * len(splits.labeled) + [cfg.pseudo_weight] * kept.size
    tcfg = replace(cfg.train, seed=_derived_seed(cfg.seed, iteration))
    trained = train(model, fused, tcfg, weights=weights)

    report = IterationReport(
        iteration=iteration,
        threshold=cfg.score_threshold,
        generated=len(pls),
        kept=kept.size,
        rejected=rejected.size,
        mean_score_kept=_mean_or_none(pls.scores[kept]),
        oracle_mean_wer_kept=_mean_or_none(pls.oracle_wer[kept]) if has_truth else None,
        oracle_mean_wer_rejected=_mean_or_none(pls.oracle_wer[rejected]) if has_truth else None,
        dev_wer=evaluate_wer(trained.model, splits.dev),
        test_wer=evaluate_wer(trained.model, splits.test),
        trained_on_labeled_only=not kept.size,
    )
    return trained.model, report, pls


def _ipl_loop(
    splits: CorpusSplits,
    schedule: list[IplConfig],
    teacher: AcousticModel | None,
    out: RunWriter,
) -> tuple[IplResult, list[float]]:
    """The IPL loop behind :func:`run_ipl` and :func:`sweep_threshold`.

    Trains a teacher under the first config unless one is given, then runs
    each config of ``schedule`` in turn for its ``iter_max`` iterations, up to
    the first config whose best dev WER :func:`select_threshold` finds to be a
    decline. Returns the result and the best dev WER of each config run.
    """
    check_splits(splits)
    if splits.unlabeled and not splits.unlabeled_refs and any(c.filter_mode == "wer" for c in schedule):
        raise OracleError("filter mode 'wer' needs the unlabeled transcripts the corpus withholds")
    if teacher is None:
        teacher = out.teacher(train_teacher(splits, schedule[0]))

    model = teacher
    reports: list[IterationReport] = []
    best_per_config: list[float] = []
    for cfg in schedule:
        for _ in range(cfg.iter_max):
            t = len(reports) + 1
            base = model if cfg.warm_start else teacher
            model, report, pls = _run_one_iteration(base, splits, cfg, t)
            reports.append(report)
            out.iteration(model, reports, pls)
        best_per_config.append(min(r.dev_wer for r in reports[-cfg.iter_max:]))
        if select_threshold(enumerate(best_per_config))[1]:
            break
    return IplResult(model=model, reports=reports), best_per_config


def run_ipl(
    splits: CorpusSplits,
    cfg: IplConfig,
    teacher: AcousticModel | None = None,
    out_dir=None,
) -> IplResult:
    """Run ``cfg.iter_max`` iterations under ``cfg``; returns the final model and the reports.

    With ``cfg.warm_start`` each iteration continues training from the previous
    model; otherwise every iteration restarts from the teacher weights. An
    iteration whose filter keeps nothing trains on the labeled split alone and
    is flagged in its report rather than aborting the run.
    """
    out = RunWriter(out_dir)
    result, _ = _ipl_loop(splits, [cfg], teacher, out)
    out.finish()
    return result


def select_threshold(history) -> tuple[float, bool]:
    """Stopping rule over (threshold, dev_wer) pairs in schedule order.

    Scans for the first strict increase in dev WER and returns the threshold
    just before it (declined=True). A sequence that never declines returns its
    last threshold with declined=False, which callers surface as a warning.
    """
    pairs = list(history)
    if not pairs:
        raise ConfigurationError("select_threshold needs at least one entry")
    for k in range(1, len(pairs)):
        if pairs[k][1] > pairs[k - 1][1]:
            return pairs[k - 1][0], True
    return pairs[-1][0], False


def sweep_threshold(
    splits: CorpusSplits,
    cfg: IplConfig,
    schedule: ThresholdSchedule = ThresholdSchedule(),
    teacher: AcousticModel | None = None,
    out_dir=None,
) -> SweepResult:
    """Lower the boundary stepwise, a few iterations per step, stop on decline.

    Each of the schedule's ``max_updates`` thresholds gets
    ``schedule.iters_per_update`` IPL iterations (training continues across
    thresholds); its slot is scored by the best dev WER among them. The sweep
    stops at the first threshold scoring worse than its predecessor and
    returns that predecessor. Each step runs under ``cfg`` with its filter
    replaced by the score filter at the step's boundary and its ``iter_max``
    set to ``schedule.iters_per_update``.
    """
    out = RunWriter(out_dir)
    boundaries = [schedule.boundary(u) for u in range(schedule.max_updates)]
    configs = [replace(cfg, filter_mode="score", score_threshold=b, max_wer=None,
                       iter_max=schedule.iters_per_update) for b in boundaries]
    run, best_per_threshold = _ipl_loop(splits, configs, teacher, out)
    thresholds = boundaries[: len(best_per_threshold)]
    best, declined = select_threshold(zip(thresholds, best_per_threshold))
    result = SweepResult(best_threshold=best, declined=declined, thresholds=thresholds,
                         best_dev_wer_per_threshold=best_per_threshold, reports=run.reports,
                         model=run.model)
    out.finish(sweep=result)
    return result


def check_probe_size(probe_size: int, min_probe: int) -> None:
    """The probe size :func:`estimate_threshold` needs, checkable before a teacher is trained."""
    if probe_size < min_probe:
        raise InsufficientProbeError(f"probe has {probe_size} utterances; need at least {min_probe}")


def estimate_threshold(model: AcousticModel, probe: Split,
                       cfg: EstimateConfig = EstimateConfig()) -> EstimateResult:
    """Estimate a score boundary from a labeled probe, no sweep required.

    Predicts the probe, applies the oracle WER filter at ``cfg.max_wer``, then
    scans candidate boundaries down the sorted score values, growing the
    score-kept set {score >= candidate}. A candidate qualifies when the
    score-kept set is no larger than the WER-kept set and at least
    ``cfg.coverage`` of it lies inside the WER-kept set; the deepest
    qualifying candidate wins, i.e. the point where the two filters keep
    nearly the same (and nearly equally many) utterances. The boundary
    returned is the float just below it, so that :func:`score_filter` (which
    keeps scores strictly above its boundary) keeps exactly the
    ``score_kept_count`` labels. When no candidate qualifies the boundary 0.0
    comes back, which keeps nothing (scores are strictly negative for any
    finite model).
    """
    check_probe_size(len(probe), cfg.min_probe)
    pls = generate_pseudolabels(model, probe, exclude_blank=cfg.exclude_blank)
    wer_kept = wer_filter(pls, Transcripts(probe.ids, probe.tokens, probe.lengths), cfg.max_wer)

    # the candidates, down the sorted scores, are each tied run's last; the
    # empty prefix trivially qualifies
    order = np.argsort(-pls.scores, kind="stable")
    ranked, n_kept = pls.scores[order], np.arange(1, len(pls) + 1)
    last = np.append(ranked[1:] != ranked[:-1], True)
    inside = np.cumsum(np.isin(order, wer_kept))
    qualifies = last & (n_kept <= wer_kept.size) & (inside >= cfg.coverage * n_kept)
    estimate = float(np.nextafter(ranked[qualifies][-1], -np.inf)) if qualifies.any() else 0.0

    score_kept, wer_set = set(score_filter(pls, estimate).tolist()), set(wer_kept.tolist())
    return EstimateResult(threshold=estimate, probe_size=len(probe), wer_kept_count=wer_kept.size,
                          score_kept_count=len(score_kept), pseudolabels=pls,
                          overlap_jaccard=overlap_rate(score_kept, wer_set),
                          overlap_min_ratio=overlap_min_ratio(score_kept, wer_set))


# ---------------------------------------------------------------------------
# Run-directory artifacts
# ---------------------------------------------------------------------------


# Field tables of the records (see artifacts), one per dataclass: name -> allowed JSON types
REPORT_FIELDS = record_fields(IterationReport)
TEACHER_SCHEMA = "teacher-report"
TEACHER_FIELDS = record_fields(TeacherReport)
SWEEP_SCHEMA = "sweep-result"
SWEEP_FIELDS = record_fields(SweepResult, skip=("reports", "model"))
ESTIMATE_SCHEMA = "threshold-estimate"
ESTIMATE_FIELDS = record_fields(EstimateResult, skip=("pseudolabels",))


def _record(obj, table: dict) -> dict:
    return {name: getattr(obj, name) for name in table}


def report_record(report: IterationReport) -> dict:
    """The ``reports.jsonl`` record of an iteration."""
    return _record(report, REPORT_FIELDS)


@dataclass
class RunRecord:
    """What :func:`load_run` reads back from a run directory; the files are the one copy."""

    teacher: TeacherReport | None = None
    reports: list[IterationReport] = field(default_factory=list)
    sweep: dict | None = None
    estimate: dict | None = None
    pseudolabels: Path | None = None  # the last iteration's pseudo-label file, else the probe's


def load_run(run_dir) -> RunRecord:
    """Read back what :class:`RunWriter` wrote.

    A missing directory raises FileNotFoundError. A malformed ``teacher_report.jsonl``,
    ``reports.jsonl``, ``sweep.json`` or ``estimate.json``, a directory holding none of
    them, or a missing pseudo-label file raises ConfigurationError naming the file.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    run = RunRecord()
    if (path := run_dir / "teacher_report.jsonl").is_file():
        recs, _ = read_jsonl(path, ConfigurationError, TEACHER_FIELDS, TEACHER_SCHEMA)
        if len(recs) != 1:
            raise ConfigurationError(f"{path}: expected one record, found {len(recs)}")
        run.teacher = TeacherReport(**recs[0])
    if (path := run_dir / "reports.jsonl").is_file():
        run.reports = [IterationReport(**rec) for rec in
                       read_jsonl(path, ConfigurationError, REPORT_FIELDS, REPORT_SCHEMA)[0]]
        if not run.reports:
            raise ConfigurationError(f"{path}: no iteration records")
    if (path := run_dir / "sweep.json").is_file():
        run.sweep = read_json(path, ConfigurationError, SWEEP_SCHEMA, SWEEP_FIELDS)
        thresholds, devs = run.sweep["thresholds"], run.sweep["best_dev_wer_per_threshold"]
        if len(thresholds) != len(devs) or run.sweep["best_threshold"] not in thresholds:
            raise ConfigurationError(f"{path}:1: thresholds and best_dev_wer_per_threshold must "
                                     "be equally long, with best_threshold among the thresholds")
    if (path := run_dir / "estimate.json").is_file():
        run.estimate = read_json(path, ConfigurationError, ESTIMATE_SCHEMA, ESTIMATE_FIELDS)
    if run == RunRecord():
        raise ConfigurationError(
            f"{run_dir}: no reports.jsonl, sweep.json, estimate.json or teacher_report.jsonl")
    if run.reports or run.estimate is not None:
        run.pseudolabels = run_dir / (f"iter-{run.reports[-1].iteration:02d}.pseudolabels.jsonl"
                                      if run.reports else "probe_pseudolabels.jsonl")
        if not run.pseudolabels.is_file():
            raise ConfigurationError(f"{run.pseudolabels}: missing file")
    return run


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.4f}"
    return str(x)


def _table(rows) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def run_summary(run: RunRecord) -> str:
    """Fixed-width ``summary.txt`` text of a run.

    A line on the teacher, when the run trained one; one row per iteration
    with the best dev-WER row starred; then, given a ``sweep.json`` record,
    one row per threshold with the chosen one starred; then, given an
    ``estimate.json`` record, one line on the estimate.
    """
    text = ""
    if run.teacher is not None:
        text = f"teacher dev_wer {run.teacher.dev_wer:.4f} test_wer {run.teacher.test_wer:.4f}\n"
    if run.reports:
        best = min(run.reports, key=lambda r: r.dev_wer).iteration
        rows = [("iter", "threshold", "generated", "kept", "mean_score",
                 "oracle_wer_kept", "dev_wer", "test_wer", "flag")]
        for r in run.reports:
            rows.append((
                f"{r.iteration}{'*' if r.iteration == best else ''}", _fmt(r.threshold),
                _fmt(r.generated), _fmt(r.kept), _fmt(r.mean_score_kept),
                _fmt(r.oracle_mean_wer_kept), _fmt(r.dev_wer), _fmt(r.test_wer),
                "labeled-only" if r.trained_on_labeled_only else "",
            ))
        text += _table(rows)
    if run.sweep is not None:
        rows = [("threshold", "best_dev_wer", "")]
        for thr, dev in zip(run.sweep["thresholds"], run.sweep["best_dev_wer_per_threshold"]):
            rows.append((_fmt(thr), _fmt(dev), "*" if thr == run.sweep["best_threshold"] else ""))
        text += "\n" + _table(rows)
    if run.estimate is not None:
        text += ("estimated threshold {threshold:.4f} (score-kept {score_kept_count}, "
                 "wer-kept {wer_kept_count}, jaccard {overlap_jaccard:.4f}, "
                 "min-ratio {overlap_min_ratio:.4f})\n").format(**run.estimate)
    return text


class RunWriter:
    """Writes a run directory; a no-op when no directory is given. Each record is written
    when its stage ends. ``timings.txt`` times each stage from the end of the one before
    (or the writer's creation) to its writes; ``summary.txt``, written last, renders
    :func:`load_run` of the directory with :func:`run_summary`, and so marks a finished run."""

    def __init__(self, out_dir):
        self.dir = Path(out_dir) if out_dir is not None else None
        if self.dir is not None:  # what an earlier run left of these would misdescribe this one
            for name in ("teacher_report.jsonl", "reports.jsonl", "sweep.json", "estimate.json",
                         "timings.txt", "summary.txt"):
                (self.dir / name).unlink(missing_ok=True)
        self.timings: list[tuple[str, float]] = []
        self._clock = time.perf_counter()

    def _stage_done(self, name: str) -> None:
        now = time.perf_counter()
        self.timings.append((name, now - self._clock))
        self._clock = now

    def teacher(self, result: TeacherResult) -> AcousticModel:
        """Write the teacher's checkpoint and report; returns its model."""
        if self.dir is not None:
            save_checkpoint(result.model, self.dir / "teacher_model.json")
            write_jsonl(self.dir / "teacher_report.jsonl", [_record(result.report, TEACHER_FIELDS)],
                        TEACHER_SCHEMA)
            self._stage_done("teacher")
        return result.model

    def iteration(self, model: AcousticModel, reports: list[IterationReport], pls: PseudoLabels) -> None:
        """The last iteration's checkpoint and labels, then ``reports.jsonl`` of every report so far."""
        if self.dir is None:
            return
        name = f"iter-{reports[-1].iteration:02d}"
        save_checkpoint(model, self.dir / f"{name}.model.json")
        save_pseudolabels(pls, self.dir / f"{name}.pseudolabels.jsonl")
        write_jsonl(self.dir / "reports.jsonl", map(report_record, reports), REPORT_SCHEMA)
        self._stage_done(name)

    def estimate(self, result: EstimateResult, n_bins: int) -> None:
        """The probe's labels, their plot data (see :func:`write_plots`) and ``estimate.json``."""
        if self.dir is None:
            return
        save_pseudolabels(result.pseudolabels, self.dir / "probe_pseudolabels.jsonl")
        write_plots(result.pseudolabels, n_bins, self.dir)
        write_json(self.dir / "estimate.json", _record(result, ESTIMATE_FIELDS), ESTIMATE_SCHEMA)
        self._stage_done("estimate")

    def finish(self, sweep: SweepResult | None = None) -> None:
        """Write ``sweep.json`` given a sweep, the timings, then the summary."""
        if self.dir is None:
            return
        if sweep is not None:
            write_json(self.dir / "sweep.json", _record(sweep, SWEEP_FIELDS), SWEEP_SCHEMA)
        write_text(self.dir / "timings.txt",
                   "".join(f"{name}\t{sec:.3f}s\n" for name, sec in self.timings))
        write_text(self.dir / "summary.txt", run_summary(load_run(self.dir)))


def write_plots(pls, n_bins: int, out_dir) -> None:
    """Plot data of pseudo-labels: ``score_hist.jsonl`` and, when they carry
    oracle WERs, ``wer_hist.jsonl`` and the (utterance_id, score,
    oracle_wer) points of ``scatter.jsonl``. No labels write no file."""
    if not pls:
        return
    out = Path(out_dir)
    columns = {"score": pls.scores}
    if pls.oracle_wer is not None:
        columns["wer"] = pls.oracle_wer
    for name, values in columns.items():
        hist = histogram(values, n_bins)
        write_jsonl(out / f"{name}_hist.jsonl", (
            {"bin_left": left, "bin_right": right, "count": count}
            for left, right, count in zip(hist.bin_edges, hist.bin_edges[1:], hist.counts)
        ), f"{name}-histogram")
    if "wer" in columns:
        write_jsonl(out / "scatter.jsonl", row_lines(pls, tokens=False), "score-wer-scatter")
