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

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .artifacts import NUMBER, VERSION, read_json, read_jsonl, write_json, write_jsonl, write_text
from .corpus import CorpusSplits
from .errors import ConfigurationError, InsufficientProbeError
from .metrics import histogram, overlap_min_ratio, overlap_rate, wer
# forward and greedy_decode are unused here; they stay because perfbench's traced run wraps them
from .model import AcousticModel, TrainConfig, forward, init_model, save_checkpoint, train  # noqa: F401
from .ctc import greedy_decode  # noqa: F401
from .pseudolabel import (
    PseudoLabel,
    annotate_oracle_wer,
    decode_split,
    generate_pseudolabels,
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
        if self.iter_max < 1:
            raise ConfigurationError("iter_max must be >= 1")
        if self.filter_mode not in FILTER_MODES:
            raise ConfigurationError(f"filter_mode must be one of {tuple(FILTER_MODES)}")
        for mode, name in FILTER_MODES.items():
            if name is not None and (getattr(self, name) is None) == (mode == self.filter_mode):
                raise ConfigurationError(f"{mode} mode needs {name}" if mode == self.filter_mode
                                         else f"{self.filter_mode!r} mode takes no {name}")
        for name in ("score_threshold", "max_wer", "pseudo_weight"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.pseudo_weight < 0:
            raise ConfigurationError("pseudo_weight must be >= 0")


@dataclass(frozen=True)
class ThresholdSchedule:
    """Every setting of the sweep: the decision boundaries ``initial - u * step``
    for ``u < max_updates``, each run for ``iters_per_update`` IPL iterations."""

    initial: float = -0.05
    step: float = 0.03
    iters_per_update: int = 3
    max_updates: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.initial) and math.isfinite(self.step)):
            raise ConfigurationError("schedule initial and step must be finite")
        if self.step <= 0:
            raise ConfigurationError("schedule step must be > 0")
        for name in ("iters_per_update", "max_updates"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")

    def boundary(self, u: int) -> float:
        """The decision boundary at update ``u``."""
        return self.initial - u * self.step


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
    wall_clock_sec: float = 0.0  # measured; excluded from serialized records


@dataclass
class TeacherReport:
    dev_wer: float
    test_wer: float
    loss_curve: list[float]
    wall_clock_sec: float = 0.0


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
    pseudolabels: list[PseudoLabel]  # the probe's labels, with oracle WER


def evaluate_wer(model: AcousticModel, pairs) -> float:
    """Pooled greedy-decode WER of a model over (features, reference) pairs."""
    pairs = list(pairs)
    decoded = decode_split(model, [fs for fs, _ in pairs])
    return wer([(ref, hyp) for (_, ref), (hyp, _) in zip(pairs, decoded)])


def check_splits(splits: CorpusSplits) -> None:
    """A run trains on the labeled split and scores every model on dev and test."""
    for name in ("labeled", "dev", "test"):
        if not getattr(splits, name):
            raise ConfigurationError(f"{name} split is empty")


def train_teacher(splits: CorpusSplits, cfg: IplConfig) -> TeacherResult:
    """Train the initial model on the labeled split alone."""
    check_splits(splits)
    t0 = time.perf_counter()
    model = init_model(
        splits.feature_dim, len(splits.vocabulary.tokens), cfg.hidden_dim, seed=cfg.seed
    )
    tcfg = replace(cfg.train, seed=_derived_seed(cfg.seed, 0))
    result = train(model, splits.labeled, tcfg)
    report = TeacherReport(
        dev_wer=evaluate_wer(result.model, splits.dev),
        test_wer=evaluate_wer(result.model, splits.test),
        loss_curve=result.loss_curve,
        wall_clock_sec=time.perf_counter() - t0,
    )
    return TeacherResult(model=result.model, report=report)


def _derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


def _mean_or_none(values) -> float | None:
    vals = list(values)
    return float(np.mean(vals)) if vals else None


def _run_one_iteration(
    model: AcousticModel,
    splits: CorpusSplits,
    cfg: IplConfig,
    iteration: int,
) -> tuple[AcousticModel, IterationReport, list[PseudoLabel]]:
    """One iteration under ``cfg``: decode, filter by ``cfg.filter_mode``, fuse, train, evaluate."""
    t0 = time.perf_counter()
    pls = generate_pseudolabels(model, splits.unlabeled, exclude_blank=cfg.exclude_blank)
    has_truth = bool(splits.unlabeled_refs)
    if cfg.filter_mode == "wer":
        kept = wer_filter(pls, splits.unlabeled_refs, cfg.max_wer)  # annotates every label
    else:
        if has_truth:
            annotate_oracle_wer(pls, splits.unlabeled_refs)
        kept = score_filter(pls, cfg.score_threshold) if cfg.filter_mode == "score" else list(pls)
    kept_ids = {p.utterance_id for p in kept}
    rejected = [p for p in pls if p.utterance_id not in kept_ids]

    features_by_id = {fs.utterance_id: fs for fs in splits.unlabeled}
    fused = list(splits.labeled) + [
        (features_by_id[p.utterance_id], p.hypothesis) for p in kept
    ]
    weights = [1.0] * len(splits.labeled) + [cfg.pseudo_weight] * len(kept)
    tcfg = replace(cfg.train, seed=_derived_seed(cfg.seed, iteration))
    trained = train(model, fused, tcfg, weights=weights)

    report = IterationReport(
        iteration=iteration,
        threshold=cfg.score_threshold,
        generated=len(pls),
        kept=len(kept),
        rejected=len(rejected),
        mean_score_kept=_mean_or_none(p.score for p in kept),
        oracle_mean_wer_kept=_mean_or_none(p.oracle_wer for p in kept) if has_truth else None,
        oracle_mean_wer_rejected=_mean_or_none(p.oracle_wer for p in rejected) if has_truth else None,
        dev_wer=evaluate_wer(trained.model, splits.dev),
        test_wer=evaluate_wer(trained.model, splits.test),
        trained_on_labeled_only=not kept,
        wall_clock_sec=time.perf_counter() - t0,
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
    if teacher is None:
        tr = train_teacher(splits, schedule[0])
        teacher = tr.model
        out.teacher(tr.model, tr.report)

    model = teacher
    reports: list[IterationReport] = []
    best_per_config: list[float] = []
    for cfg in schedule:
        for _ in range(cfg.iter_max):
            t = len(reports) + 1
            base = model if cfg.warm_start else teacher
            model, report, pls = _run_one_iteration(base, splits, cfg, t)
            reports.append(report)
            out.iteration(t, model, pls)
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
    out.finish(result.reports)
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
    result = SweepResult(
        best_threshold=best,
        declined=declined,
        thresholds=thresholds,
        best_dev_wer_per_threshold=best_per_threshold,
        reports=run.reports,
        model=run.model,
    )
    out.finish(run.reports, sweep=sweep_record(result))
    return result


def check_estimate_args(coverage_frac: float, min_probe: int) -> None:
    """The ranges :func:`estimate_threshold` accepts, checkable before a teacher is trained."""
    if not 0.0 <= coverage_frac <= 1.0:
        raise ConfigurationError(f"coverage_frac must lie in [0, 1], got {coverage_frac}")
    if min_probe < 1:
        raise ConfigurationError(f"min_probe must be >= 1, got {min_probe}")


def check_probe_size(probe_size: int, min_probe: int) -> None:
    """The probe size :func:`estimate_threshold` needs, checkable before a teacher is trained."""
    if probe_size < min_probe:
        raise InsufficientProbeError(f"probe has {probe_size} utterances; need at least {min_probe}")


def estimate_threshold(
    model: AcousticModel,
    probe,
    max_wer: float,
    coverage_frac: float = 0.9,
    min_probe: int = 20,
    exclude_blank: bool = False,
    n_bins: int = 20,
    out_dir=None,
) -> EstimateResult:
    """Estimate a score boundary from a labeled probe, no sweep required.

    Predicts the probe, applies the oracle WER filter at ``max_wer``, then
    scans candidate boundaries down the sorted score values, growing the
    score-kept set {score >= candidate}. A candidate qualifies when the
    score-kept set is no larger than the WER-kept set and at least
    ``coverage_frac`` of it lies inside the WER-kept set; the deepest
    qualifying candidate wins, i.e. the point where the two filters keep
    nearly the same (and nearly equally many) utterances. The boundary
    returned is the float just below it, so that :func:`score_filter` (which
    keeps scores strictly above its boundary) keeps exactly the
    ``score_kept_count`` labels. When no candidate qualifies the boundary 0.0
    comes back, which keeps nothing (scores are strictly negative for any
    finite model).
    """
    check_estimate_args(coverage_frac, min_probe)
    pairs = list(probe)
    check_probe_size(len(pairs), min_probe)
    refs = {fs.utterance_id: lab for fs, lab in pairs}
    pls = generate_pseudolabels(model, [fs for fs, _ in pairs], exclude_blank=exclude_blank)
    wer_kept = wer_filter(pls, refs, max_wer)
    wer_ids = {p.utterance_id for p in wer_kept}

    estimate, inside = 0.0, 0  # the empty prefix trivially qualifies
    by_score = sorted(pls, key=lambda p: -p.score)
    for n_kept, p in enumerate(by_score, start=1):  # candidate p.score, once per tied run
        inside += p.utterance_id in wer_ids
        tied = n_kept < len(by_score) and by_score[n_kept].score == p.score
        if not tied and n_kept <= len(wer_kept) and inside >= coverage_frac * n_kept:
            estimate = float(np.nextafter(p.score, -np.inf))

    score_kept_ids = {p.utterance_id for p in score_filter(pls, estimate)}
    result = EstimateResult(
        threshold=estimate,
        probe_size=len(pairs),
        wer_kept_count=len(wer_kept),
        score_kept_count=len(score_kept_ids),
        overlap_jaccard=overlap_rate(score_kept_ids, wer_ids),
        overlap_min_ratio=overlap_min_ratio(score_kept_ids, wer_ids),
        pseudolabels=pls,
    )
    if out_dir is not None:
        write_estimate(result, n_bins, out_dir)
    return result


# ---------------------------------------------------------------------------
# Run-directory artifacts
# ---------------------------------------------------------------------------


# Field tables of the records (see artifacts): name -> allowed JSON types.
_OPTIONAL = (*NUMBER, type(None))
REPORT_FIELDS = {
    "iteration": int, "threshold": _OPTIONAL, "generated": int, "kept": int, "rejected": int,
    "mean_score_kept": _OPTIONAL, "oracle_mean_wer_kept": _OPTIONAL,
    "oracle_mean_wer_rejected": _OPTIONAL, "dev_wer": NUMBER, "test_wer": NUMBER,
    "trained_on_labeled_only": bool,
}
SWEEP_SCHEMA = "sweep-result"
SWEEP_FIELDS = {"best_threshold": NUMBER, "declined": bool, "thresholds": list,
                "best_dev_wer_per_threshold": list}
ESTIMATE_SCHEMA = "threshold-estimate"
ESTIMATE_FIELDS = {"threshold": NUMBER, "probe_size": int, "wer_kept_count": int,
                   "score_kept_count": int, "overlap_jaccard": NUMBER, "overlap_min_ratio": NUMBER}


def report_record(report: IterationReport) -> dict:
    """Deterministic serializable view of a report (wall clock excluded)."""
    return {name: getattr(report, name) for name in REPORT_FIELDS}


def sweep_record(result: SweepResult) -> dict:
    """The ``sweep.json`` record of a sweep."""
    return {"schema": SWEEP_SCHEMA, "version": VERSION,
            **{name: getattr(result, name) for name in SWEEP_FIELDS}}


@dataclass
class RunRecord:
    """A run directory read back by :func:`load_run`."""

    reports: list[IterationReport]
    sweep: dict | None
    estimate: dict | None
    pseudolabels: Path | None  # the last iteration's pseudo-label file, else the probe's


def load_run(run_dir) -> RunRecord:
    """Read back what :class:`RunWriter` and :func:`write_estimate` wrote.

    A missing directory raises FileNotFoundError. A malformed
    ``reports.jsonl``, ``sweep.json`` or ``estimate.json``, or a directory
    holding none of them, raises ConfigurationError naming the file.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    reports, sweep, estimate = [], None, None
    path = run_dir / "reports.jsonl"
    if path.is_file():
        reports = [IterationReport(**rec) for _, rec in
                   read_jsonl(path, ConfigurationError, REPORT_FIELDS, REPORT_SCHEMA)]
        if not reports:
            raise ConfigurationError(f"{path}: no iteration records")
    path = run_dir / "sweep.json"
    if path.is_file():
        sweep = read_json(path, ConfigurationError, SWEEP_SCHEMA, SWEEP_FIELDS)
        thresholds, devs = sweep["thresholds"], sweep["best_dev_wer_per_threshold"]
        if not (all(type(x) in NUMBER for x in thresholds + devs) and len(thresholds) == len(devs)
                and sweep["best_threshold"] in thresholds):
            raise ConfigurationError(f"{path}:1: thresholds and best_dev_wer_per_threshold must "
                                     "be equally long lists of numbers, with best_threshold "
                                     "among the thresholds")
    path = run_dir / "estimate.json"
    if path.is_file():
        estimate = read_json(path, ConfigurationError, ESTIMATE_SCHEMA, ESTIMATE_FIELDS)
    if not reports and sweep is None and estimate is None:
        raise ConfigurationError(f"{run_dir}: no reports.jsonl, sweep.json, or estimate.json")
    # iter-NN is zero-padded to two digits, so iter-100 sorts after iter-99 by length
    iters = sorted(run_dir.glob("iter-*.pseudolabels.jsonl"), key=lambda p: (len(p.name), p.name))
    probe = run_dir / "probe_pseudolabels.jsonl"
    pls = iters[-1] if iters else probe if probe.is_file() else None
    return RunRecord(reports, sweep, estimate, pls)


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.4f}"
    return str(x)


def _table(rows) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def run_summary(reports, sweep: dict | None = None, estimate: dict | None = None) -> str:
    """Fixed-width ``summary.txt`` text of a run.

    One row per iteration with the best dev-WER row starred; then, given a
    ``sweep.json`` record, one row per threshold with the chosen one starred;
    then, given an ``estimate.json`` record, one line on the estimate.
    """
    text = ""
    if reports:
        best = min(reports, key=lambda r: r.dev_wer).iteration
        rows = [("iter", "threshold", "generated", "kept", "mean_score",
                 "oracle_wer_kept", "dev_wer", "test_wer", "flag")]
        for r in reports:
            rows.append((
                f"{r.iteration}{'*' if r.iteration == best else ''}", _fmt(r.threshold),
                _fmt(r.generated), _fmt(r.kept), _fmt(r.mean_score_kept),
                _fmt(r.oracle_mean_wer_kept), _fmt(r.dev_wer), _fmt(r.test_wer),
                "labeled-only" if r.trained_on_labeled_only else "",
            ))
        text = _table(rows)
    if sweep is not None:
        rows = [("threshold", "best_dev_wer", "")]
        for thr, dev in zip(sweep["thresholds"], sweep["best_dev_wer_per_threshold"]):
            rows.append((_fmt(thr), _fmt(dev), "*" if thr == sweep["best_threshold"] else ""))
        text += "\n" + _table(rows)
    if estimate is not None:
        text += ("estimated threshold {threshold:.4f} (score-kept {score_kept_count}, "
                 "wer-kept {wer_kept_count}, jaccard {overlap_jaccard:.4f}, "
                 "min-ratio {overlap_min_ratio:.4f})\n").format(**estimate)
    return text


class RunWriter:
    """Writes run-directory artifacts; a no-op when no directory is given."""

    def __init__(self, out_dir):
        self.dir = Path(out_dir) if out_dir is not None else None
        self.timings: list[tuple[str, float]] = []

    def teacher(self, model: AcousticModel, report: TeacherReport) -> None:
        if self.dir is None:
            return
        save_checkpoint(model, self.dir / "teacher_model.json")
        body = {
            "dev_wer": report.dev_wer,
            "test_wer": report.test_wer,
            "loss_curve": report.loss_curve,
        }
        write_jsonl(self.dir / "teacher_report.jsonl", [body], "teacher-report")
        self.timings.append(("teacher", report.wall_clock_sec))

    def iteration(self, t: int, model: AcousticModel, pls) -> None:
        if self.dir is None:
            return
        save_checkpoint(model, self.dir / f"iter-{t:02d}.model.json")
        save_pseudolabels(pls, self.dir / f"iter-{t:02d}.pseudolabels.jsonl")

    def finish(self, reports, sweep: dict | None = None) -> None:
        """Write the reports, ``sweep.json`` given a sweep record, the summary and timings."""
        if self.dir is None:
            return
        if sweep is not None:
            write_json(self.dir / "sweep.json", sweep)
        if reports:
            write_jsonl(self.dir / "reports.jsonl", map(report_record, reports), REPORT_SCHEMA)
            write_text(self.dir / "summary.txt", run_summary(reports, sweep))
            self.timings.extend((f"iter-{r.iteration:02d}", r.wall_clock_sec) for r in reports)
        if self.timings:
            write_text(self.dir / "timings.txt",
                       "".join(f"{name}\t{sec:.3f}s\n" for name, sec in self.timings))


def write_plots(pls, n_bins: int, out_dir) -> None:
    """Plot data of pseudo-labels: ``score_hist.jsonl`` and, when every label
    has an oracle WER, ``wer_hist.jsonl`` and the (utterance_id, score,
    oracle_wer) points of ``scatter.jsonl``. No labels write no file."""
    if not pls:
        return
    out = Path(out_dir)
    columns = {"score": [p.score for p in pls]}
    if all(p.oracle_wer is not None for p in pls):
        columns["wer"] = [p.oracle_wer for p in pls]
    for name, values in columns.items():
        hist = histogram(values, n_bins)
        write_jsonl(out / f"{name}_hist.jsonl", (
            {"bin_left": left, "bin_right": right, "count": count}
            for left, right, count in zip(hist.bin_edges, hist.bin_edges[1:], hist.counts)
        ), f"{name}-histogram")
    if "wer" in columns:
        write_jsonl(out / "scatter.jsonl", (
            {"utterance_id": p.utterance_id, "score": p.score, "oracle_wer": p.oracle_wer}
            for p in pls
        ), "score-wer-scatter")


def write_estimate(result: EstimateResult, n_bins: int, out_dir) -> None:
    out = Path(out_dir)
    save_pseudolabels(result.pseudolabels, out / "probe_pseudolabels.jsonl")
    write_plots(result.pseudolabels, n_bins, out)
    write_json(out / "estimate.json", {"schema": ESTIMATE_SCHEMA, "version": VERSION,
                                       **{name: getattr(result, name) for name in ESTIMATE_FIELDS}})
